"""Additive closure of the affine maps and the resulting near-semiring.

The closure is a worklist fixpoint inside M(B_n): starting from the
generators, adjoin s + g until nothing new appears; every finite sum of
generators folds left, so right-extension alone reaches the whole closure.
Conjugation by Aut(B_n) ≅ S_n permutes M(B_n) by near-semiring
automorphisms and maps Aff(B_n) onto itself, so `fixpoint` extends one
representative per new orbit (`maps.orbit_labels`) by the additive rows of
the representatives, ranked directly (`maps.products`).  Its mask proves
that it covers the canonical family, so every table is indexed by rank:
index i is canonical index i, with shape and fields `maps.fields(n)[i]`,
and no element list is kept.

There is one Cayley-table type, `Table`: the rows of one representative per
orbit of a group of automorphisms (`maps.Action`), 27 of 145 at n = 3 under
S_n (`maps.sn_action`) for a closure, all of them over the trivial group
for a dense table.  Only `Table.dense` builds an m x m table, for output
listing every cell and the exhaustive axiom scan.  A cell is proved by
checking that its element's table is its product's (`_first_wrong`):
`tables_witness` checks the stored cells, their rows against their
stabilisers and a sample of other cells, `from_dict` a cache's cells.
"""

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ._numpy import np
from . import maps

# n = 7 has 249,411 elements, beyond uint16 ranks (`maps.index_permutations`).
DEFAULT_N_CAP = 6

# The .npz cache's schema (`to_dict`): the representatives' rows since 2.
FORMAT_VERSION = 2

# Cayley tables hold element indices; at the cap n=6 there are 27,253
# elements, so uint16 is wide enough and halves the memory of int32.
TABLE_DTYPE = np.uint16

# The seed of every sample: the direct cells of `tables_witness` (whole rows
# of _SAMPLE_ROWS non-representatives, and a square grid of _SAMPLE_GRID) and
# the axiom triples of `verify_near_semiring`.
_SEED = 0
_SAMPLE_ROWS = 3
_SAMPLE_GRID = 64

# The axiom scan checks every triple of a law while there are at most this
# many, and this many sampled triples beyond that.
_EXHAUSTIVE_MAX = 4_000_000
_AXIOM_SAMPLES = 100_000


class Table:
    """A Cayley table over range(m) whose `action` permutes it by
    automorphisms, stored as its representatives' `rows`.  t[x, y], for
    index arrays that broadcast, is G[g_x][t[r_x, G[g_x]^-1[y]]]."""

    def __init__(self, rows, action: maps.Action):
        self.rows, self.action, m = rows, action, rows.shape[1]
        self._rows, self._group = rows.ravel(), action.group.ravel()
        self.rep_row = np.searchsorted(action.reps, action.labels)  # rows[rep_row[x]] is r_x's
        self._row_at = self.rep_row * m
        self._g_at, self._inv_at = action.g * m, action.inverse[action.g] * m

    def __getitem__(self, xy):
        x, y = xy
        if len(self.action.group) == 1:  # the trivial group: every row is stored
            return self._rows.take(np.asarray(x, dtype=np.intp) * len(self._row_at) + y)
        moved = self._rows[self._row_at[x] + self._group[self._inv_at[x] + y]]
        return self._group[self._g_at[x] + moved]

    def dense(self) -> np.ndarray:
        """The whole m x m table, a row block at a time."""
        every = np.arange(self.rows.shape[1])
        return np.concatenate([self[x[:, None], every] for x in maps.row_blocks(every, len(every))])


@dataclass
class FiniteSemigroup:
    """One reduct: a `Table` whose index i is canonical index i; a
    dense m x m array is checked and taken as one over the trivial group."""
    n: int
    label: str  # "additive" | "multiplicative"
    op: Table

    def __post_init__(self):
        if not isinstance(self.op, Table):
            op, m = np.asarray(self.op), len(self.op)
            if op.shape != (m, m) or m and (op.min() < 0 or op.max() >= m):
                raise ValueError(f"Cayley table of shape {op.shape} is not square over range(m)")
            self.op = Table(op, maps.trivial_action(m))

    def __len__(self):
        return self.op.rows.shape[1]


@dataclass
class NearSemiring:
    """Both Cayley tables over the canonical family, indexed by rank, as the
    rows of `action`'s representatives: `maps.sn_action(n)`'s for a closure."""
    n: int
    add_table: np.ndarray
    mul_table: np.ndarray
    action: maps.Action

    def __len__(self):
        return self.add_table.shape[1]

    def reduct(self, label) -> FiniteSemigroup:
        tables = {"additive": self.add_table, "multiplicative": self.mul_table}
        if label not in tables:
            raise ValueError(f"unknown reduct {label!r}")
        return FiniteSemigroup(self.n, label, Table(tables[label], self.action))


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


def _draw(rng: random.Random, count: int, m: int) -> np.ndarray:
    """`count` seeded draws from range(m): 32-bit words of `rng.randbytes`,
    each mapped to w m >> 32 (multiply-shift; bias under m / 2^32).  The
    stream is the same whether drawn at once or in pieces of any size."""
    words = np.frombuffer(rng.randbytes(4 * count), dtype="<u4").astype(np.uint64)
    return (words * m >> 32).astype(np.intp)


def _first_wrong(label, t: Table, op, rows, cols, n) -> str:
    """The first cell of t[rows x cols] (row-major) that is not its product,
    as a witness, or "" if none: t[x, y] holds when its element's table is
    that of x op y.  Only a wrong cell is ranked, and the check stops at the
    first block that holds one."""
    E = maps.canonical_tables(n)
    for lo, cells in maps.product_tables(E[rows], E[cols], op, n):
        got = t[np.ix_(rows[lo:lo + len(cells)], cols)]
        bad = np.argwhere((E[got] != cells).any(axis=2))
        if bad.size:
            i, j = bad[0]
            want = maps.rank(cells[i, j][None], n)[0]
            return (f"{label}_table[{int(rows[lo + i])},{int(cols[j])}] is {int(got[i, j])}, "
                    f"recomputed {int(want)}")
    return ""


def _stabiliser_breach(label, t: Table) -> str:
    """The first breach, by group row h, representative r and column y, of
    t[r, G[h][y]] = G[h][t[r, y]] where G[h] fixes r, as a witness, or "";
    the rows G[h] fixes are read a `maps.row_blocks` block at a time."""
    G, reps = t.action.group, t.action.reps
    for h in range(1, len(G)):
        for fixed in maps.row_blocks(np.flatnonzero(G[h, reps] == reps), G.shape[1]):
            rows = t.rows[fixed]
            bad = np.argwhere(rows.take(G[h], axis=1) != G[h].take(rows))
            if bad.size:
                (i, y), r = bad[0], int(reps[fixed[bad[0, 0]]])
                return (f"{label}_table[{r},{G[h, y]}] is {rows[i, G[h, y]]}, not "
                        f"{G[h, rows[i, y]]}, the image of {label}_table[{r},{y}] under "
                        f"permutation {h}, which fixes {r}")
    return ""


def tables_witness(ns: NearSemiring) -> str:
    """"" when both Cayley tables are proved right, else the first failure:
    each table, add then mul, by its stored cells (`_first_wrong`), its rows
    against their stabilisers (`_stabiliser_breach`), so that scans may read
    verdicts off the representatives, and a seeded sample of other cells (the
    rows of a few non-representatives, and a grid), which a non-automorphism fails."""
    n, action, every = ns.n, ns.action, np.arange(len(ns))
    others = np.flatnonzero(action.labels != every)
    rng = random.Random(_SEED)
    picked = others[_draw(rng, min(_SAMPLE_ROWS, len(others)), len(others))]
    grid = np.sort(_draw(rng, 2 * _SAMPLE_GRID, len(ns)).reshape(2, -1), axis=1)
    for label, op, rows in (("add", "+", ns.add_table), ("mul", "o", ns.mul_table)):
        t = Table(rows, action)
        witness = (_first_wrong(label, t, op, action.reps, every, n) or _stabiliser_breach(label, t)
                   or _first_wrong(label, t, op, np.sort(picked), every, n)
                   or _first_wrong(label, t, op, *grid, n))
        if witness:
            return witness
    return ""


def check_n_cap(n: int):
    """Refuse a non-int n, a bool too, one below 1 or one above the cap, before
    any work starts."""
    if type(n) is not int:
        raise ValueError(f"n={n!r} is not an int")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > DEFAULT_N_CAP:
        raise ValueError(f"n={n} exceeds cap {DEFAULT_N_CAP}")


def _generator_mask(gens) -> np.ndarray:
    """The generators' ranks as a mask; refuses an empty set, an n over the cap,
    a generator outside the shapes (named) and a set not closed under S_n."""
    if not len(gens):
        raise ValueError("generator set is empty")
    check_n_cap(gens.n)
    seen = np.zeros(len(maps.canonical_tables(gens.n)), dtype=bool)
    seen[maps.member_ranks(gens.members, gens.n)] = True
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
    label, reps = maps.orbit_labels(gens.n), maps.sn_action(gens.n).reps
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
    """Close the generators under pointwise + and return both reducts' tables:
    the representatives' rows, ranked directly, raising on a product outside
    the shapes (the first cell, row-major), which `fixpoint` reads; a
    closure that misses an element is refused, naming the least."""
    _generator_mask(gens)  # refuse bad generators before ranking any row
    n, action = gens.n, maps.sn_action(gens.n)
    rows = _ranked_rows(action.reps, n)
    seen = fixpoint(gens, rows[0])
    if not seen.all():  # argmin: the least rank not reached
        raise ValueError(f"the closure misses {maps.tokens([seen.argmin()], n)[0]}")
    return NearSemiring(n, *rows, action)


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


def _every_pair(reps, sums, comps):
    """The exhaustive blocks: each representative x, whose stored row is the
    i-th, with every (y, z); y + z and yz are the whole tables, read once."""
    y, z = np.ogrid[:len(sums), :len(sums)]
    sums, comps = sums.astype(np.intp), comps.astype(np.intp)  # an offset plus a cell never wraps
    return (((x, y, z), i * len(sums), y, z, sums, comps) for i, x in enumerate(reps))


def _moved_samples(add: Table, mul: Table, checked):
    """The sampled blocks: `checked` triples (x, y, z), one `_draw` stream
    from _SEED a `maps.row_blocks` slice at a time, each moved by G[g_x]^-1
    so that x is its representative, whose stored row it reads."""
    rng, m = random.Random(_SEED), len(add.rep_row)
    # 5,461 triples a slice: 10,922 raised the n = 4 scan's traced peak
    # from about 0.7 MB to 1.3 MB, and did not speed it up
    for part in maps.row_blocks(range(checked), 6):
        x, y, z = _draw(rng, 3 * len(part), m).reshape(-1, 3).T
        y_, z_ = (add._group[add._inv_at[x] + v] for v in (y, z))
        yield (x, y, z), add._row_at[x], y_, z_, add[y_, z_], mul[y_, z_]


def verify_near_semiring(ns: NearSemiring) -> ValidationReport:
    """Check both associativities and left distributivity f(g+h) = fg + fh,
    all three at once on each block, every product with x on the left read
    off x's stored row: x over the representatives with every (y, z) while
    the m^3 triples number at most _EXHAUSTIVE_MAX (up to n = 3; on tables
    `tables_witness` proved, a failing (x, y, z) fails again at (P x, P y,
    P z) for every P in the group), and beyond that _AXIOM_SAMPLES random
    triples shared by the laws.  Failures carry the first offending triple
    (row-major, or in sample order), as drawn."""
    m, A, M = len(ns), ns.add_table.ravel(), ns.mul_table.ravel()
    add, mul = ns.reduct("additive").op, ns.reduct("multiplicative").op
    if m ** 3 <= _EXHAUSTIVE_MAX:  # m <= 158: each x reads all of both tables, so read them once
        checked = m ** 3
        add, mul = (Table(t.dense(), maps.trivial_action(m)) for t in (add, mul))
        blocks = _every_pair(ns.action.reps, add.rows, mul.rows)
    else:
        checked = min(_AXIOM_SAMPLES, m ** 3)
        blocks = _moved_samples(add, mul, checked)
    names = ("additive associativity", "multiplicative associativity", "left distributivity")
    witness = {}
    for drawn, row, y, z, sums, comps in blocks:  # x's stored row starts at A[row], M[row]
        xy = M.take(row + y)
        for name, bad in zip(names, (add[A.take(row + y), z] != A.take(row + sums),
                                     mul[xy, z] != M.take(row + comps),
                                     M.take(row + sums) != add[xy, M.take(row + z)])):
            if name not in witness and bad.any():  # argmax: the first failure, row-major
                at = bad.argmax()
                witness[name] = tuple(int(np.broadcast_to(v, bad.shape).flat[at]) for v in drawn)
    return ValidationReport([AxiomCheck(name, name not in witness, checked, witness.get(name))
                             for name in names])


def support_histogram(ns: NearSemiring) -> dict:
    """Element count per support size."""
    sizes, counts = np.unique(maps.support_sizes(maps.canonical_tables(ns.n)), return_counts=True)
    return dict(zip(sizes.tolist(), counts.tolist()))


# --- the .npz cache ------------------------------------------------------------

def to_dict(ns: NearSemiring) -> dict:
    """The cache schema: a closure's stored rows, those of its S_n orbit
    representatives, ascending, as uint16; they determine the rest.  How
    the file compresses them is the file's business, not the schema's."""
    return {"format_version": FORMAT_VERSION, "n": ns.n,
            "add_table": ns.add_table, "mul_table": ns.mul_table}


def from_dict(d: dict) -> NearSemiring:
    """Both tables from a `to_dict` payload, whose rows may be nested lists
    or arrays.  A wrong version, n, dtype, shape or cell range is refused
    before any product is taken; then every stored cell is checked against
    its product, add then mul, raising on the first wrong one (row-major),
    named as `tables_witness` names it; the proved rows are the tables."""
    if type(d.get("format_version")) is not int or d["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {d.get('format_version')!r}")
    n = d["n"]
    check_n_cap(n)
    action, m = maps.sn_action(n), len(maps.canonical_tables(n))
    rows = []
    for label, t in (("additive", d["add_table"]), ("multiplicative", d["mul_table"])):
        t = np.asarray(t)
        if t.dtype.kind not in "iu":
            raise ValueError(f"{label} Cayley table is not an integer array")
        if t.shape != (len(action.reps), m):
            raise ValueError(f"{label} Cayley table shape {t.shape} is not the rows of the "
                             f"{len(action.reps)} orbit representatives over {m} elements")
        if t.min() < 0 or t.max() >= m:  # before the cast wraps 70000 to 4464
            raise ValueError("Cayley table contains out-of-range indices")
        rows.append(t.astype(TABLE_DTYPE, copy=False))
    for (label, op), t in zip((("add", "+"), ("mul", "o")), rows):
        witness = _first_wrong(label, Table(t, action), op, action.reps, np.arange(m), n)
        if witness:
            raise ValueError(witness)
    return NearSemiring(n, *rows, action)
