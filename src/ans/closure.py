"""Additive closure of the affine maps and the resulting near-semiring.

The closure is a worklist fixpoint inside M(B_n): starting from the
generators, adjoin s + g (known element on the left, generator on the
right) until nothing new appears.  Every finite sum of generators folds
left, so right-extension alone reaches the whole additive closure.

Conjugation by Aut(B_n) ≅ S_n permutes M(B_n) by near-semiring
automorphisms and maps Aff(B_n) onto itself (`maps.index_permutations`).
So the fixpoint keeps its found set closed under S_n and extends only one
representative per new orbit (the least index in it): s + g for s = pi(r)
is pi(r + pi^-1(g)), already found.  Every sum is still ranked with the
membership check, so the fixpoint stays an independent proof that the
carrier is the canonical family.

Element identity is the canonical rank (`maps.rank`), which checks
membership by re-rendering, so a sum outside the four shapes raises with
its table as the witness.  The discovered ranks are a boolean mask over
the canonical family, so the element list comes out in canonical order
with no sort, and element indices are stable across runs.  The product
formulas live in one place, `maps.products`.

Both Cayley tables store element indices as uint16.  The S_n symmetry
of the tables is stated once, as the row identity t[P f] = P[t[f][P^-1]]
for each generator P (`_conjugated_rows`), and it does two jobs.
`orbit_tables` ranks the orbit representatives' rows directly, asserting
pairwise closure under + and o there, and fills every other row from a
filled one by the identity.  `tables_witness` proves a pair of tables,
say from a cache: the representatives' rows ranked directly, plus every
row obeying the identity, prove every cell.  `fill_tables` ranks all m^2
cells directly; it is the reference the symmetric tables are tested
against, and it names the first wrong cell when a proof fails.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import maps

# Beyond n=6 the Cayley tables (tens of thousands squared) leave the
# intended resource envelope, so the engine refuses early by default.
DEFAULT_N_CAP = 6

FORMAT_VERSION = 1

# Cayley tables hold element indices; at the cap n=6 there are 27,253
# elements, so uint16 is wide enough and halves the memory of int32.
TABLE_DTYPE = np.uint16

# The direct sample of `tables_witness`: whole rows of this many
# non-representatives, and a grid of this many rows by this many columns.
_SAMPLE_ROWS = 3
_SAMPLE_GRID = 64

# Sampled axiom triples checked per vectorized step; bigger slices raise peak
# memory without making the scan faster.
_SCAN_SLICE = 10_000


@dataclass
class FiniteSemigroup:
    """One reduct: elements in canonical order plus one Cayley table."""
    n: int
    label: str  # "additive" | "multiplicative"
    elements: Tuple[tuple, ...]
    op: np.ndarray

    def __post_init__(self):
        m = len(self.elements)
        if self.op.shape != (m, m):
            raise ValueError(f"Cayley table shape {self.op.shape} does not match {m} elements")
        if m and (self.op.min() < 0 or self.op.max() >= m):
            raise ValueError("Cayley table contains out-of-range indices")

    def __len__(self):
        return len(self.elements)


@dataclass
class NearSemiring:
    n: int
    elements: Tuple[tuple, ...]
    add_table: np.ndarray
    mul_table: np.ndarray

    def __len__(self):
        return len(self.elements)

    def reduct(self, label) -> FiniteSemigroup:
        if label == "additive":
            return FiniteSemigroup(self.n, label, self.elements, self.add_table)
        if label == "multiplicative":
            return FiniteSemigroup(self.n, label, self.elements, self.mul_table)
        raise ValueError(f"unknown reduct {label!r}")


def _list_index(elems, n):
    """Canonical ranks and tables of an element list, and rank -> list
    position (-1 off the list; the spare last slot catches rank -1)."""
    m = len(elems)
    if m > np.iinfo(TABLE_DTYPE).max + 1:
        raise ValueError(f"{m} elements do not fit {np.dtype(TABLE_DTYPE)} Cayley tables")
    ranks = maps.member_ranks(np.array(elems), n)
    position = np.full(len(maps.canonical_tables(n)) + 1, -1, dtype=np.int64)
    position[ranks] = np.arange(m)
    return ranks, maps.canonical_tables(n)[ranks], position


def _ranked_blocks(index, rows, cols, n):
    """(lo, sums, composites) of the listed elements rows x cols, each
    ranked directly, as list positions, block by block of rows; -1 marks a
    product off the list."""
    _, E, position = index
    F, G = E[rows], E[cols]
    for (lo, sums), (_, comps) in zip(maps.products(F, G, "+", n), maps.products(F, G, "o", n)):
        yield lo, position[sums], position[comps]


def _ranked_rows(index, rows, n):
    """Both tables' `rows`, every cell ranked directly.  Raises if a product
    falls outside the list, naming the first such cell (row-major)."""
    m = len(index[1])
    add_rows = np.empty((len(rows), m), dtype=TABLE_DTYPE)
    mul_rows = np.empty((len(rows), m), dtype=TABLE_DTYPE)
    for lo, sums, comps in _ranked_blocks(index, rows, np.arange(m), n):
        bad = np.flatnonzero((sums < 0) | (comps < 0))
        if bad.size:
            i, j = np.unravel_index(bad[0], sums.shape)
            kind = "additively" if sums[i, j] < 0 else "multiplicatively"
            raise AssertionError(f"closure not {kind} closed at ({rows[lo + i]},{j})")
        add_rows[lo:lo + len(sums)], mul_rows[lo:lo + len(comps)] = sums, comps
    return add_rows, mul_rows


def fill_tables(elems, n):
    """Both Cayley tables over the closed element list, every cell ranked.

    Every sum and composite is ranked and looked up in the list, which need
    not be the whole canonical family.  Raises if any falls outside the
    list, naming the first cell in row-major order, which doubles as the
    pairwise-closure re-verification.
    """
    return _ranked_rows(_list_index(elems, n), np.arange(len(elems)), n)


def _permutations(index, n):
    """`maps.index_permutations(n)` as permutations of list positions, in
    TABLE_DTYPE; None when the list is not closed under them."""
    ranks, _, position = index
    perms = tuple(position[P[ranks]] for P in maps.index_permutations(n))
    if any((P < 0).any() for P in perms):
        return None
    return tuple(P.astype(TABLE_DTYPE) for P in perms)


def element_permutations(elems, n):
    """`maps.index_permutations(n)` as permutations of the list's positions,
    or None when the list is not closed under them."""
    return _permutations(_list_index(elems, n), n)


def _orbit_labels(perms, m) -> np.ndarray:
    """The least index in each of 0..m-1's orbit under the group that the
    permutations generate; the orbit representatives are the fixed points."""
    label = np.arange(m)
    while True:
        nxt = label
        for P in perms:
            nxt = np.minimum(nxt, nxt[P])
        if np.array_equal(nxt, label):
            return label
        label = nxt


def orbit_representatives(perms, m) -> np.ndarray:
    """The least index in each orbit of 0..m-1, ascending."""
    return np.flatnonzero(_orbit_labels(perms, m) == np.arange(m))


def _conjugated_rows(t, f, P, P_inv):
    """Rows P f of a table that commutes with the permutation P, from its
    rows f: t[P f] = P[t[f][P^-1]], since t[P f, P g] = P t[f, g]."""
    return P.take(t[f].take(P_inv, axis=1))


def orbit_tables(elems, n):
    """Both Cayley tables, from the orbit representatives' rows.

    The same tables as `fill_tables`, for a list closed under conjugation
    by S_n (a ValueError otherwise).  The representatives' rows are ranked
    directly, and a product off the list raises as in `fill_tables`,
    naming the first such cell in those rows.  Then each unreached row
    P f is filled from a reached row f by `_conjugated_rows`, generator by
    generator, until every row is reached, so it stays on the list too.
    """
    index = _list_index(elems, n)
    perms = _permutations(index, n)
    if perms is None:
        raise ValueError("element list is not closed under conjugation by S_n")
    m = len(elems)
    reps = orbit_representatives(perms, m)
    add_table = np.empty((m, m), dtype=TABLE_DTYPE)
    mul_table = np.empty((m, m), dtype=TABLE_DTYPE)
    add_table[reps], mul_table[reps] = _ranked_rows(index, reps, n)
    reached = np.zeros(m, dtype=bool)
    reached[reps] = True
    inverses = [np.argsort(P) for P in perms]
    while not reached.all():
        for P, P_inv in zip(perms, inverses):
            sources = np.flatnonzero(reached & ~reached[P])  # f reached, P f not
            for f in maps.row_blocks(sources, m):
                add_table[P[f]] = _conjugated_rows(add_table, f, P, P_inv)
                mul_table[P[f]] = _conjugated_rows(mul_table, f, P, P_inv)
            reached[P[sources]] = True
    return add_table, mul_table


def _proof_breach(ns: NearSemiring, index) -> str:
    """Which part of the symmetric proof of the tables fails, or "" if none.

    Three parts: the orbit representatives' rows, ranked directly; every
    row obeying `_conjugated_rows` for each generator P of S_n, compared in
    row blocks; and a seeded sample of direct cells (a grid, plus whole
    rows of a few elements that are not representatives).  The first two prove every cell, since each
    row is the image of a representative's row under a product of
    generators; the sample keeps a direct check that does not lean on the
    symmetry argument.
    """
    n, m = ns.n, len(ns)
    tables = {"add": ns.add_table, "mul": ns.mul_table}
    perms = _permutations(index, n)
    if perms is None:
        return "element list is not closed under conjugation by S_n"
    is_rep = _orbit_labels(perms, m) == np.arange(m)
    reps, others = np.flatnonzero(is_rep), np.flatnonzero(~is_rep)
    rng = np.random.default_rng(0)
    sample = np.concatenate([reps, np.sort(rng.permutation(others)[:_SAMPLE_ROWS])])
    grid = np.sort(rng.integers(0, m, size=(2, _SAMPLE_GRID)), axis=1)
    for where, rows, cols in (((sample, slice(None)), sample, np.arange(m)),
                              (np.ix_(*grid), *grid)):
        blocks = list(_ranked_blocks(index, rows, cols, n))
        for k, (label, t) in enumerate(tables.items(), 1):
            if not np.array_equal(t[where], np.concatenate([b[k] for b in blocks])):
                return f"{label}_table differs from a directly ranked cell"
    for label, t in tables.items():
        for g, P in enumerate(perms):
            P_inv = np.argsort(P)
            for f in maps.row_blocks(np.arange(m), m):
                if not np.array_equal(t[P[f]], _conjugated_rows(t, f, P, P_inv)):
                    return f"{label}_table is not invariant under index permutation {g}"
    return ""


def tables_witness(ns: NearSemiring) -> str:
    """"" when both Cayley tables are proved right for the element list,
    else a witness.

    On any breach of the symmetric proof (`_proof_breach`), every cell is
    ranked as in `fill_tables`, and the witness is the first cell
    (row-major) that differs, or the breach when no cell does.
    """
    index = _list_index(ns.elements, ns.n)
    breach = _proof_breach(ns, index)
    if not breach:
        return ""
    m = len(ns)
    rows = np.arange(m)
    direct = _ranked_rows(index, rows, ns.n)
    for label, got, want in zip(("add", "mul"), (ns.add_table, ns.mul_table), direct):
        for f in maps.row_blocks(rows, m):
            bad = np.argwhere(got[f] != want[f])
            if bad.size:
                i, j = int(f[bad[0][0]]), int(bad[0][1])
                return f"{label}_table[{i},{j}] is {int(got[i, j])}, recomputed {int(want[i, j])}"
    return breach


def check_n_cap(n: int):
    """Refuse an n above the cap, before any work on it starts."""
    if n > DEFAULT_N_CAP:
        raise ValueError(f"n={n} exceeds cap {DEFAULT_N_CAP}")


def additive_closure(gens) -> NearSemiring:
    """Close the generators under pointwise + and return both reducts' tables.

    The generator set must be closed under conjugation by S_n, as every
    generator kind is; the fixpoint extends one representative per orbit.
    """
    if not len(gens):
        raise ValueError("generator set is empty")
    n = gens.n
    check_n_cap(n)
    G = np.array(list(gens.members))
    E = maps.canonical_tables(n)
    label = _orbit_labels(maps.index_permutations(n), len(E))
    is_rep = label == np.arange(len(E))  # the least rank in its orbit

    def saturate(mask):  # the union of the orbits that meet the mask
        hit = np.zeros(len(E), dtype=bool)
        hit[label[mask]] = True
        return hit[label]

    seen = np.zeros(len(E), dtype=bool)
    seen[maps.member_ranks(G, n)] = True
    if not np.array_equal(saturate(seen), seen):
        raise ValueError("generator set is not closed under conjugation by S_n")
    frontier = np.flatnonzero(seen & is_rep)
    while frontier.size:
        found = np.zeros(len(E), dtype=bool)
        for lo, sums in maps.products(E[frontier], G, "+", n):
            bad = np.flatnonzero(sums < 0)
            if bad.size:  # re-derive the first sum outside the shapes, to name it
                i, j = divmod(int(bad[0]), len(G))
                witness = maps.pointwise_add(E[frontier[lo + i]].tolist(), G[j].tolist())
                raise maps.NotAffineElement(f"table {witness} is outside the four closure shapes")
            found[sums.ravel()] = True
        found = saturate(found)
        frontier = np.flatnonzero(found & ~seen & is_rep)
        seen |= found

    # the rendered rows equal the discovered ones, since rank checks membership
    elems = tuple(map(tuple, E[np.flatnonzero(seen)].tolist()))
    add_table, mul_table = orbit_tables(elems, n)
    return NearSemiring(n, elems, add_table, mul_table)


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


def verify_near_semiring(ns: NearSemiring, samples=100_000, seed=0,
                         assoc_exhaustive_max=4_000_000,
                         distrib_exhaustive_max=100_000) -> ValidationReport:
    """Check both associativities and left distributivity f(g+h) = fg + fh.

    Axioms are scanned exhaustively while the triple count stays under the
    given bounds, and on deterministic random samples beyond that; failures
    carry the first offending triple (row-major, or in sample order) as a
    witness.
    """
    m = len(ns)
    total = m ** 3
    rng = np.random.default_rng(seed)
    ar = np.arange(m)

    def product(table):  # the Cayley table as a vectorized binary operation
        flat = table.ravel()
        return lambda x, y: flat.take(np.asarray(x, dtype=np.intp) * m + y)

    def assoc(op):
        return lambda a, b, c: op(op(a, b), c) != op(a, op(b, c))

    add, mul = product(ns.add_table), product(ns.mul_table)
    laws = [("additive associativity", assoc(add), assoc_exhaustive_max),
            ("multiplicative associativity", assoc(mul), assoc_exhaustive_max),
            ("left distributivity",
             lambda f, g, h: mul(f, add(g, h)) != add(mul(f, g), mul(f, h)),
             distrib_exhaustive_max)]
    report = ValidationReport()
    for name, fails, exhaustive_max in laws:
        if total <= exhaustive_max:
            checked = total
            blocks = ((i, ar[:, None], ar[None, :]) for i in range(m))
        else:
            triples = rng.integers(0, m, size=(min(samples, total), 3))
            checked = len(triples)
            blocks = (triples[lo:lo + _SCAN_SLICE].T for lo in range(0, checked, _SCAN_SLICE))
        report.checks.append(_scan(name, fails, blocks, checked))
    return report


def support_histogram(ns: NearSemiring) -> dict:
    """Element count per support size."""
    sizes, counts = np.unique(maps.support_sizes(ns.elements), return_counts=True)
    return dict(zip(sizes.tolist(), counts.tolist()))


def intermediate_support_check(ns: NearSemiring) -> bool:
    """No support size strictly between 1 and n, or between n and n^2+1."""
    n = ns.n
    sizes = set(support_histogram(ns))
    return all(not (1 < k < n or n < k < n * n + 1) for k in sizes)


# --- interchange: the JSON output and the .npz cache share this schema --------

def to_dict(ns: NearSemiring) -> dict:
    """Tables stay arrays: `np.savez` stores them, and JSON lists them via `default`."""
    return {
        "format_version": FORMAT_VERSION,
        "n": ns.n,
        "count": len(ns),
        "elements": [maps.canonical_str(c) for c in maps.forms(ns.elements, ns.n)],
        "add_table": ns.add_table,
        "mul_table": ns.mul_table,
    }


def from_dict(d: dict) -> NearSemiring:
    """Validate a `to_dict` payload; the tables may be nested lists or arrays."""
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {d.get('format_version')!r}")
    n = d["n"]
    elems = tuple(maps.render(maps.parse_canonical(s, n), n) for s in d["elements"])
    if d["count"] != len(elems):
        raise ValueError("declared count does not match the element list")
    if elems and not np.all(np.diff(maps.rank(np.array(elems), n)) > 0):
        raise ValueError("element list is not in canonical order or repeats an element")
    tables = [np.asarray(d["add_table"]), np.asarray(d["mul_table"])]
    for label, t in zip(("additive", "multiplicative"), tables):
        if t.dtype.kind not in "iu":
            raise ValueError(f"{label} Cayley table is not an integer array")
        FiniteSemigroup(n, label, elems, t)  # shape and range before the cast wraps 70000 to 4464
    return NearSemiring(n, elems, *(t.astype(TABLE_DTYPE, copy=False) for t in tables))
