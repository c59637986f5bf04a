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
walk.  A cell is proved by checking it, not ranking it: its element's
table must be its product's (`_first_wrong`), which holds for one element
only, since the canonical tables are distinct.  `tables_witness` proves
each table alone by a sample of such checks and the same walk, and checks
every cell only of a table whose proof fails, naming its first wrong cell.
The cache (`to_dict`) stores only the representatives' rows; `from_dict`
checks every stored cell, then fills the tables by the walk.

Tables that commute with S_n carry the `symmetric` mark, set only here:
by `additive_closure`, by `from_dict` on the rows it proves, and by
`tables_witness` on the tables it proves.  On marked tables the axiom scan
and `green`'s scans and ideals visit one element per orbit (27 of 145 at
n = 3, via `labelling`), and every element otherwise.
"""

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ._numpy import np
from . import maps

# Beyond n=6 the Cayley tables (tens of thousands squared) leave the
# intended resource envelope, so the engine refuses early by default.
DEFAULT_N_CAP = 6

# The .npz cache's schema (`to_dict`): the representatives' rows since 2.
FORMAT_VERSION = 2

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


def _representatives(n) -> np.ndarray:
    """The least index of each orbit of `maps.orbit_labels(n)`, ascending."""
    labels = maps.orbit_labels(n)
    return np.flatnonzero(labels == np.arange(len(labels)))


def labelling(s) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """(labels, reps, perms) for a per-element scan of `s`, a near-semiring
    or a reduct: `maps.orbit_labels` and `maps.index_permutations` of s.n
    when `s` is marked `symmetric`, else the identity labelling and no
    permutation; reps are the labels' fixed points, which the scan visits."""
    m = len(s)
    labels = maps.orbit_labels(s.n) if s.symmetric else np.arange(m)
    perms = maps.index_permutations(s.n) if s.symmetric else ()
    return labels, np.flatnonzero(labels == np.arange(m)), perms


def spread(t, perms, reps, move, width):
    """Rows of a per-element table t, spread from its rows `reps` (one per
    orbit of `perms`): (g, P f, move(t[f], P, P^-1)) for P = perms[g], per
    block of reached f with P f unreached, until all are reached.  `move`
    gives the rows of P f from those of f, building about `width` cells per
    row, which sizes the blocks (`maps.row_blocks`); the caller may write
    them into t before the next block; a round that reaches no new row raises."""
    reached = np.zeros(len(t), dtype=bool)
    reached[reps] = True
    inverses = [maps.inverse(P) for P in perms]
    while not reached.all():
        before = np.count_nonzero(reached)
        for g, (P, P_inv) in enumerate(zip(perms, inverses)):
            sources = np.flatnonzero(reached & ~reached[P])  # f reached, P f not
            for f in maps.row_blocks(sources, width):
                yield g, P[f], move(t[f], P, P_inv)
            reached[P[sources]] = True
        if np.count_nonzero(reached) == before:
            raise AssertionError(f"{len(t) - before} rows lie in no orbit of the representatives")


def _conjugate_rows(rows, P, P_inv):
    """The Cayley rows of P f from those of f: t[P f] = P[t[f][P^-1]].
    `P.take` makes an 8-byte index of each 2-byte cell, so moving a row
    costs about four rows of cells: `spread` it with width 4m."""
    return P.take(rows.take(P_inv, axis=1))


def _draw(rng: random.Random, count: int, m: int) -> np.ndarray:
    """`count` seeded draws from range(m): 32-bit words of `rng.randbytes`,
    each mapped to w m >> 32 (multiply-shift; bias under m / 2^32).  The
    stream is the same whether drawn at once or in pieces of any size."""
    words = np.frombuffer(rng.randbytes(4 * count), dtype="<u4").astype(np.uint64)
    return (words * m >> 32).astype(np.intp)


def _first_wrong(label, claimed, op, rows, cols, n) -> str:
    """The first cell of `claimed` (row-major) that is not its product, as a
    witness, or "" if none: claimed[i, j] is the table's claim for rows[i]
    op cols[j], and holds when its element's table is the product's.  Only
    a wrong cell is ranked, for its witness; the check stops at the first
    `maps.product_tables` block that holds one."""
    E = maps.canonical_tables(n)
    for lo, cells in maps.product_tables(E[rows], E[cols], op, n):
        got = claimed[lo:lo + len(cells)]
        bad = np.argwhere((E[got] != cells).any(axis=2))
        if bad.size:
            i, j = bad[0]
            want = maps.rank(cells[i, j][None], n)[0]
            return (f"{label}_table[{int(rows[lo + i])},{int(cols[j])}] is {int(got[i, j])}, "
                    f"recomputed {int(want)}")
    return ""


def tables_witness(ns: NearSemiring) -> Tuple[str, Optional[NearSemiring]]:
    """("", proved) when both Cayley tables are proved right, else (a
    witness, None).  `proved` holds the same arrays, marked `symmetric`:
    conjugation by S_n is an automorphism of proved tables, so a scan may
    read its verdicts off the orbit representatives (`labelling`).

    Each table is proved alone, add then mul, over the orbits of `labelling`:
    a seeded sample of cells checked against their products (the
    representatives' rows, whole rows of a few others, a grid), then, if it
    holds, every other row equal to its `spread` from a row already proved,
    so every cell by induction.  A table that fails has its rows checked
    from row 0 until a block holds a wrong cell: the witness is its first
    wrong cell (row-major), else the breach.  A table that passes has no
    wrong cell, so add is named first.
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
        breach = any(_first_wrong(label, t[np.ix_(rows, cols)], op, rows, cols, n)
                     for rows, cols in sample) or next(
            (f"{label}_table is not invariant under index permutation {g}"
             for g, rows, moved in spread(t, perms, reps, _conjugate_rows, 4 * m)
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
    label, reps = maps.orbit_labels(gens.n), _representatives(gens.n)
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
    Only then are both tables filled (`_spread_tables`).
    """
    _generator_mask(gens)  # refuse bad generators before ranking any row
    n = gens.n
    reps = _representatives(n)
    rows = list(_ranked_rows(reps, n))
    seen = fixpoint(gens, rows[0])
    if not seen.all():  # argmin: the least rank not reached
        raise ValueError(f"the closure misses {maps.tokens([seen.argmin()], n)[0]}")
    return _spread_tables(n, reps, rows)


def _spread_tables(n, reps, rows) -> NearSemiring:
    """Both Cayley tables from `rows`, the list of their right rows `reps`,
    add then mul, which it empties so that the walk does not hold them; every
    other row is filled by `spread`.  Marked `symmetric`, since conjugation
    by S_n is an automorphism of the products the right rows state."""
    m = len(maps.canonical_tables(n))
    tables = [np.empty((m, m), dtype=TABLE_DTYPE) for _ in rows]
    for t in tables:
        t[reps] = rows.pop(0)
    for t in tables:
        for _, to, moved in spread(t, maps.index_permutations(n), reps, _conjugate_rows, 4 * m):
            t[to] = moved
    return NearSemiring(n, *tables, symmetric=True)


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


# --- the .npz cache ------------------------------------------------------------

def to_dict(ns: NearSemiring) -> dict:
    """Both tables' rows at the orbit representatives, ascending, as uint16:
    they determine the rest, since both tables commute with S_n."""
    reps = _representatives(ns.n)
    return {"format_version": FORMAT_VERSION, "n": ns.n,
            "add_table": ns.add_table[reps], "mul_table": ns.mul_table[reps]}


def from_dict(d: dict) -> NearSemiring:
    """Both tables from a `to_dict` payload, whose rows may be nested lists
    or arrays.  A wrong version, n, dtype, shape or cell range is refused
    before any product is taken; then every stored cell is checked against
    its product, add then mul, raising on the first wrong one (row-major),
    named as `tables_witness` names it, and the proved rows are spread to
    both tables, marked `symmetric`."""
    if type(d.get("format_version")) is not int or d["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {d.get('format_version')!r}")
    n = d["n"]
    check_n_cap(n)
    reps = _representatives(n)
    m = len(maps.canonical_tables(n))
    rows = []
    for label, t in (("additive", d["add_table"]), ("multiplicative", d["mul_table"])):
        t = np.asarray(t)
        if t.dtype.kind not in "iu":
            raise ValueError(f"{label} Cayley table is not an integer array")
        if t.shape != (len(reps), m):
            raise ValueError(f"{label} Cayley table shape {t.shape} is not the rows of the "
                             f"{len(reps)} orbit representatives over {m} elements")
        if t.min() < 0 or t.max() >= m:  # before the cast wraps 70000 to 4464
            raise ValueError("Cayley table contains out-of-range indices")
        rows.append(t.astype(TABLE_DTYPE, copy=False))
    every = np.arange(m)
    for (label, op), t in zip((("add", "+"), ("mul", "o")), rows):
        witness = _first_wrong(label, t, op, reps, every, n)
        if witness:
            raise ValueError(witness)
    return _spread_tables(n, reps, rows)
