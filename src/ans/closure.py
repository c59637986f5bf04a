"""Additive closure of the affine maps and the resulting near-semiring.

The closure is a worklist fixpoint inside M(B_n): starting from the
generators, adjoin s + g (known element on the left, generator on the
right) until nothing new appears.  Every finite sum of generators folds
left, so right-extension alone reaches the whole additive closure.
Conjugation by Aut(B_n) ≅ S_n permutes M(B_n) by near-semiring
automorphisms and maps Aff(B_n) onto itself (`maps.index_permutations`),
so the fixpoint extends one representative per new orbit (its least
index, `maps.orbit_labels`): s + g for s = pi(r) is pi(r + pi^-1(g)).

Element identity is the canonical rank (`maps.rank`), which checks
membership by re-rendering.  `fixpoint` reads each sum off the additive
rows of the orbit representatives, ranked directly before any table is
allocated.  Its ranks are a boolean mask over the canonical family, an
independent proof that they cover it: `additive_closure` refuses a miss,
naming the least element, and `ans verify` reruns it on every closure.  So
every Cayley table is indexed by rank: index i is `maps.all_canonical(n)[i]`,
and no element list is kept.  The product formulas live in `maps.products`.

Both Cayley tables store element indices as uint16.  Their S_n symmetry
is stated once, as the row identity t[P f] = P[t[f][P^-1]] for each
generator P (`_conjugate_rows`).  `spread` walks the orbit representatives'
rows of any per-element table to every other row by such a rule, this one
or `green`'s for ideal rows.  `additive_closure` fills the tables by the
walk; `tables_witness` proves each table alone, say from a cache, by a
direct sample and the same walk, and ranks only a table whose proof fails,
naming its first wrong cell.

Tables that commute with S_n carry the `symmetric` mark, set only here:
by `additive_closure`, and by `tables_witness` on the tables it proves.
`from_dict` never sets it, so a cache hit is unmarked.  On marked tables
the axiom scan and `green`'s scans and ideals visit one element per orbit
(27 of 145 at n = 3, via `labelling`), and every element otherwise.
"""

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ._numpy import np
from . import maps

# Beyond n=6 the Cayley tables (tens of thousands squared) leave the
# intended resource envelope, so the engine refuses early by default.
DEFAULT_N_CAP = 6

FORMAT_VERSION = 1

# Cayley tables hold element indices; at the cap n=6 there are 27,253
# elements, so uint16 is wide enough and halves the memory of int32.
TABLE_DTYPE = np.uint16

# The seed of every sample: the direct cells of `tables_witness` and the
# axiom triples of `verify_near_semiring`.
_SEED = 0

# The direct sample of `tables_witness`: whole rows of this many
# non-representatives, and a grid of this many rows by this many columns.
_SAMPLE_ROWS = 3
_SAMPLE_GRID = 64

# The axiom scan checks every triple of a law while there are at most this
# many, and this many sampled triples beyond that.
_EXHAUSTIVE_MAX = 4_000_000
_AXIOM_SAMPLES = 100_000


@dataclass
class FiniteSemigroup:
    """One reduct: a Cayley table whose index i is `maps.all_canonical(n)[i]`."""
    n: int
    label: str  # "additive" | "multiplicative"
    op: np.ndarray
    symmetric: bool = False  # its near-semiring's mark

    def __post_init__(self):
        m = len(self.op)
        if self.op.shape != (m, m):
            raise ValueError(f"Cayley table shape {self.op.shape} is not square")
        if m and (self.op.min() < 0 or self.op.max() >= m):
            raise ValueError("Cayley table contains out-of-range indices")

    def __len__(self):
        return len(self.op)


@dataclass
class NearSemiring:
    """Both Cayley tables over the canonical family, indexed by rank."""
    n: int
    add_table: np.ndarray
    mul_table: np.ndarray
    symmetric: bool = False  # commute with `maps.index_permutations(n)`; set only here

    def __len__(self):
        return len(self.add_table)

    def reduct(self, label) -> FiniteSemigroup:
        if label == "additive":
            return FiniteSemigroup(self.n, label, self.add_table, self.symmetric)
        if label == "multiplicative":
            return FiniteSemigroup(self.n, label, self.mul_table, self.symmetric)
        raise ValueError(f"unknown reduct {label!r}")


def _ranked_rows(rows, n):
    """Both tables' `rows`, every cell ranked directly.  Raises if a product
    falls outside the four shapes, naming the first such cell (row-major)."""
    E = maps.canonical_tables(n)
    add_rows, mul_rows = (np.empty((len(rows), len(E)), dtype=TABLE_DTYPE) for _ in range(2))
    F = E[rows]
    for (lo, sums), (_, comps) in zip(maps.products(F, E, "+", n), maps.products(F, E, "o", n)):
        bad = np.flatnonzero((sums < 0) | (comps < 0))
        if bad.size:
            i, j = np.unravel_index(bad[0], sums.shape)
            kind = "additively" if sums[i, j] < 0 else "multiplicatively"
            raise AssertionError(f"closure not {kind} closed at ({rows[lo + i]},{j})")
        add_rows[lo:lo + len(sums)], mul_rows[lo:lo + len(comps)] = sums, comps
    return add_rows, mul_rows


def labelling(s) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """(labels, reps, perms) for a per-element scan of `s`, a near-semiring
    or a reduct: `maps.orbit_labels` and `maps.index_permutations` of s.n
    when `s` is marked `symmetric`, else the identity labelling and no
    permutation; reps are the labels' fixed points, which the scan visits."""
    m = len(s)
    labels = maps.orbit_labels(s.n) if s.symmetric else np.arange(m)
    perms = maps.index_permutations(s.n) if s.symmetric else ()
    return labels, np.flatnonzero(labels == np.arange(m)), perms


def spread(t, perms, reps, move):
    """Rows of a per-element table t, spread from its rows `reps` (one per
    orbit of `perms`): (g, P f, move(t[f], P, P^-1)) for P = perms[g], per
    block of reached f with P f unreached, until all are reached.  `move`
    gives the rows of P f from those of f; the caller may write them into
    t before the next block; a round that reaches no new row raises."""
    reached = np.zeros(len(t), dtype=bool)
    reached[reps] = True
    inverses = [np.argsort(P) for P in perms]
    while not reached.all():
        before = np.count_nonzero(reached)
        for g, (P, P_inv) in enumerate(zip(perms, inverses)):
            sources = np.flatnonzero(reached & ~reached[P])  # f reached, P f not
            for f in maps.row_blocks(sources, len(t)):
                yield g, P[f], move(t[f], P, P_inv)
            reached[P[sources]] = True
        if np.count_nonzero(reached) == before:
            raise AssertionError(f"{len(t) - before} rows lie in no orbit of the representatives")


def _conjugate_rows(rows, P, P_inv):
    """The Cayley rows of P f from those of f: t[P f] = P[t[f][P^-1]]."""
    return P.take(rows.take(P_inv, axis=1))


def _draw(rng: random.Random, count: int, m: int) -> np.ndarray:
    """`count` seeded draws from range(m): 32-bit words of `rng.randbytes`,
    each mapped to w m >> 32 (multiply-shift; bias under m / 2^32).  The
    stream is the same whether drawn at once or in pieces of any size."""
    words = np.frombuffer(rng.randbytes(4 * count), dtype="<u4").astype(np.uint64)
    return (words * m >> 32).astype(np.intp)


def _first_wrong(label, t, op, rows, cols, n) -> str:
    """The first cell of t[rows x cols] (row-major) that differs from its
    product ranked directly, as a witness, or "" if none.  Rows are ranked
    a block at a time, and the scan stops at the first block that differs."""
    E = maps.canonical_tables(n)
    for lo, want in maps.products(E[rows], E[cols], op, n):
        bad = np.argwhere(t[rows[lo:lo + len(want)]].take(cols, axis=1) != want)
        if bad.size:
            i, j = bad[0]
            a, b = int(rows[lo + i]), int(cols[j])
            return f"{label}_table[{a},{b}] is {int(t[a, b])}, recomputed {int(want[i, j])}"
    return ""


def tables_witness(ns: NearSemiring) -> Tuple[str, Optional[NearSemiring]]:
    """("", proved) when both Cayley tables are proved right, else (a
    witness, None).  `proved` holds the same arrays, marked `symmetric`:
    conjugation by S_n is an automorphism of proved tables, so a scan may
    read its verdicts off the orbit representatives (`labelling`).

    Each table is proved alone, add then mul, over the orbits of `labelling`:
    a seeded sample of direct cells (the representatives' rows, whole rows
    of a few others, a grid), then, if it holds, every other row equal to
    its `spread` from a row already proved, so every cell by induction.  A
    table that fails has its rows ranked directly from row 0 until a block
    differs: the witness is its first wrong cell (row-major), else the
    breach.  A table that passes has no wrong cell, so add is named first.
    """
    proved = replace(ns, symmetric=True)
    n, m = ns.n, len(ns)
    labels, reps, perms = labelling(proved)
    every = np.arange(m)
    others = np.flatnonzero(labels != every)
    rng = random.Random(_SEED)
    picked = others[_draw(rng, min(_SAMPLE_ROWS, len(others)), len(others))]
    sample = [(np.concatenate([reps, np.sort(picked)]), every),
              np.sort(_draw(rng, 2 * _SAMPLE_GRID, m).reshape(2, -1), axis=1)]
    for label, op, t in (("add", "+", ns.add_table), ("mul", "o", ns.mul_table)):
        breach = any(_first_wrong(label, t, op, rows, cols, n) for rows, cols in sample) or next(
            (f"{label}_table is not invariant under index permutation {g}"
             for g, rows, moved in spread(t, perms, reps, _conjugate_rows)
             if not np.array_equal(t[rows], moved)), "")
        if breach:
            return _first_wrong(label, t, op, every, every, n) or breach, None
    return "", proved


def check_n_cap(n: int):
    """Refuse a non-int n, a bool too, or one above the cap, before any work starts."""
    if type(n) is not int:
        raise ValueError(f"n={n!r} is not an int")
    if n > DEFAULT_N_CAP:
        raise ValueError(f"n={n} exceeds cap {DEFAULT_N_CAP}")


def _generator_mask(gens) -> np.ndarray:
    """The generators' ranks as a mask; refuses an empty set, an n over the cap,
    a generator outside the shapes (named) and a set not closed under S_n."""
    if not len(gens):
        raise ValueError("generator set is empty")
    check_n_cap(gens.n)
    seen = np.zeros(len(maps.canonical_tables(gens.n)), dtype=bool)
    seen[maps.member_ranks(np.array(list(gens.members)), gens.n)] = True
    label = maps.orbit_labels(gens.n)
    if not np.array_equal(np.isin(label, label[seen]), seen):  # a union of orbits
        raise ValueError("generator set is not closed under conjugation by S_n")
    return seen


def fixpoint(gens, add_rows) -> np.ndarray:
    """The mask of the canonical elements that finite sums of the generators
    reach, refusing them as `_generator_mask` does.  `add_rows` are the
    additive rows of the orbit representatives, in rank order: the worklist
    reads no other, as it extends each new orbit's representative r by r + g."""
    seen = _generator_mask(gens)
    label = maps.orbit_labels(gens.n)
    reps = np.flatnonzero(label == np.arange(len(label)))  # least in each orbit
    gen = np.flatnonzero(seen)
    frontier = np.flatnonzero(seen[reps])  # rows of add_rows
    while frontier.size:
        found = np.zeros_like(seen)
        for rows in maps.row_blocks(frontier, len(gen)):
            found[add_rows[np.ix_(rows, gen)].ravel()] = True
        found = np.isin(label, label[found])  # the orbits that meet it
        frontier = np.flatnonzero((found & ~seen)[reps])
        seen |= found
    return seen


def additive_closure(gens) -> NearSemiring:
    """Close the generators under pointwise + and return both reducts' tables.

    The representatives' rows are ranked directly, raising on a product
    outside the shapes (the first cell, row-major), and `fixpoint` reads
    them; a closure that misses an element is refused, naming the least.
    Only then are both tables allocated, and `spread` fills the other rows.
    """
    _generator_mask(gens)  # refuse bad generators before ranking any row
    n, m = gens.n, len(maps.canonical_tables(gens.n))
    reps = np.flatnonzero(maps.orbit_labels(n) == np.arange(m))
    add_rows, mul_rows = _ranked_rows(reps, n)
    seen = fixpoint(gens, add_rows)
    if not seen.all():  # argmin: the least rank not reached
        raise ValueError(f"the closure misses {maps.tokens([seen.argmin()], n)[0]}")
    add_table, mul_table = (np.empty((m, m), dtype=TABLE_DTYPE) for _ in range(2))
    add_table[reps], mul_table[reps] = add_rows, mul_rows
    del add_rows, mul_rows  # the walk below sets the peak
    for t in (add_table, mul_table):
        for _, rows, moved in spread(t, maps.index_permutations(n), reps, _conjugate_rows):
            t[rows] = moved
    return NearSemiring(n, add_table, mul_table, symmetric=True)


# --- axiom checking -----------------------------------------------------------

@dataclass
class AxiomCheck:
    name: str
    passed: bool
    checked: int
    counterexample: Optional[Tuple[int, int, int]] = None

    def __str__(self):
        if self.passed:
            return f"{self.name}: ok ({self.checked} triples)"
        return f"{self.name}: FAILED at triple {self.counterexample}"


@dataclass
class ValidationReport:
    checks: List[AxiomCheck] = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def _scan(name, fails, blocks, checked) -> AxiomCheck:
    """Scan index blocks in order; `fails(a, b, c)` is the law's negation on
    broadcastable index arrays.  The witness is the first failing triple,
    in block order and row-major within a block."""
    for a, b, c in blocks:
        bad = fails(a, b, c)
        hit = np.flatnonzero(bad)
        if hit.size:
            witness = tuple(int(np.broadcast_to(x, bad.shape).flat[hit[0]]) for x in (a, b, c))
            return AxiomCheck(name, False, checked, witness)
    return AxiomCheck(name, True, checked)


def verify_near_semiring(ns: NearSemiring) -> ValidationReport:
    """Check both associativities and left distributivity f(g+h) = fg + fh.

    Each law is scanned exhaustively while its m^3 triples number at most
    _EXHAUSTIVE_MAX (up to n = 3), and on _AXIOM_SAMPLES deterministic
    random triples beyond that: one `_draw` stream from _SEED, laws in
    order, each law's triples drawn a `maps.row_blocks` slice at a time.
    Failures carry the first offending triple (row-major, or in sample order).
    On marked tables an exhaustive scan lets x run over the representatives
    of `labelling` only, yet covers and reports all m^3 triples: a failing
    (x, y, z) fails again at (P x, P y, P z) for every automorphism P.
    """
    m = len(ns)
    total = m ** 3
    rng = random.Random(_SEED)
    ar = np.arange(m)
    _, reps, _ = labelling(ns)

    def product(table):  # the Cayley table as a vectorized binary operation
        flat = table.ravel()
        return lambda x, y: flat.take(np.asarray(x, dtype=np.intp) * m + y)

    def assoc(op):
        return lambda a, b, c: op(op(a, b), c) != op(a, op(b, c))

    add, mul = product(ns.add_table), product(ns.mul_table)
    laws = [("additive associativity", assoc(add)),
            ("multiplicative associativity", assoc(mul)),
            ("left distributivity",
             lambda f, g, h: mul(f, add(g, h)) != add(mul(f, g), mul(f, h)))]
    report = ValidationReport()
    for name, fails in laws:
        if total <= _EXHAUSTIVE_MAX:
            checked = total
            blocks = ((i, ar[:, None], ar[None, :]) for i in reps)
        else:
            checked = min(_AXIOM_SAMPLES, total)
            # a triple is a row of 6 cells, its draws and about as many products,
            # so a slice holds 10,922; bigger slices raise peak memory, not speed
            blocks = (_draw(rng, 3 * len(part), m).reshape(-1, 3).T
                      for part in maps.row_blocks(range(checked), 6))
        report.checks.append(_scan(name, fails, blocks, checked))
        for _ in blocks:  # draw what a failure left, so the next law's sample stays put
            pass
    return report


def support_histogram(ns: NearSemiring) -> dict:
    """Element count per support size."""
    sizes, counts = np.unique(maps.support_sizes(maps.canonical_tables(ns.n)), return_counts=True)
    return dict(zip(sizes.tolist(), counts.tolist()))


# --- interchange: the JSON output and the .npz cache share this schema --------

def to_dict(ns: NearSemiring) -> dict:
    """Tables stay arrays: `np.savez` stores them, and JSON lists them via `default`."""
    return {
        "format_version": FORMAT_VERSION,
        "n": ns.n,
        "count": len(ns),
        "elements": maps.tokens(range(len(ns)), ns.n),
        "add_table": ns.add_table,
        "mul_table": ns.mul_table,
    }


def from_dict(d: dict) -> NearSemiring:
    """Validate a `to_dict` payload; the tables may be nested lists or arrays.
    The element list must be the whole canonical family, in order."""
    if type(d.get("format_version")) is not int or d["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {d.get('format_version')!r}")
    n = d["n"]
    check_n_cap(n)  # the token table grows with n!
    ranks = maps.token_ranks(d["elements"], n)
    if d["count"] != len(ranks):
        raise ValueError("declared count does not match the element list")
    if not np.all(np.diff(ranks) > 0):
        raise ValueError("element list is not in canonical order or repeats an element")
    m = len(maps.canonical_tables(n))
    if len(ranks) < m:  # ascending and distinct, so all m are there iff there are m
        first = np.setdiff1d(range(m), ranks)[0]
        raise ValueError(f"element list misses {maps.tokens([first], n)[0]}")
    tables = [np.asarray(d["add_table"]), np.asarray(d["mul_table"])]
    for label, t in zip(("additive", "multiplicative"), tables):
        if t.dtype.kind not in "iu":
            raise ValueError(f"{label} Cayley table is not an integer array")
        if t.shape != (m, m):
            raise ValueError(f"{label} Cayley table shape {t.shape} does not match {m} elements")
        FiniteSemigroup(n, label, t)  # the range before the cast wraps 70000 to 4464
    return NearSemiring(n, *(t.astype(TABLE_DTYPE, copy=False) for t in tables))
