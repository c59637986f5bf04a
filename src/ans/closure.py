"""Additive closure of the affine maps and the resulting near-semiring.

The closure is a worklist fixpoint inside M(B_n): starting from the
generators, adjoin s + g (known element on the left, generator on the
right) until nothing new appears.  Every finite sum of generators folds
left, so right-extension alone reaches the whole additive closure; full
pairwise closure is re-verified anyway while the Cayley tables are built,
and closure under composition is asserted at the same time.

Element identity during the fixpoint is the canonical rank (`maps.rank`),
which checks membership by re-rendering, so a sum outside the four shapes
raises with its table as the witness.  The discovered ranks are a boolean
mask over the canonical family, so the element list comes out in canonical
order with no sort, and element indices are stable across runs.  The
product formulas live in one place, `maps.products`, which ranks blocks of
sums or composites; the fixpoint and both Cayley tables go through it, and
the tables store element indices as uint16.
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


def fill_tables(elems, n):
    """Both Cayley tables over the closed element list.

    Every sum and composite is ranked and looked up in the list, which need
    not be the whole canonical family.  Raises if any falls outside the
    list, naming the first cell in row-major order, which doubles as the
    pairwise-closure re-verification.
    """
    m = len(elems)
    if m > np.iinfo(TABLE_DTYPE).max + 1:
        raise ValueError(f"{m} elements do not fit {np.dtype(TABLE_DTYPE)} Cayley tables")
    ranks = maps.member_ranks(np.array(elems), n)
    E = maps.canonical_tables(n)[ranks]
    # rank -> list position; the spare last slot catches rank -1
    position = np.full(len(maps.canonical_tables(n)) + 1, -1, dtype=np.int64)
    position[ranks] = np.arange(m)
    add_table = np.empty((m, m), dtype=TABLE_DTYPE)
    mul_table = np.empty((m, m), dtype=TABLE_DTYPE)
    # sums and composites block by block, so the first bad cell is row-major first
    for (lo, sums), (_, comps) in zip(maps.products(E, E, "+", n), maps.products(E, E, "o", n)):
        sums, comps = position[sums], position[comps]
        bad = np.flatnonzero((sums < 0) | (comps < 0))
        if bad.size:
            i, j = divmod(int(bad[0]), m)
            kind = "additively" if sums[i, j] < 0 else "multiplicatively"
            raise AssertionError(f"closure not {kind} closed at ({lo + i},{j})")
        add_table[lo:lo + len(sums)] = sums
        mul_table[lo:lo + len(comps)] = comps
    return add_table, mul_table


def check_n_cap(n: int):
    """Refuse an n above the cap, before any work on it starts."""
    if n > DEFAULT_N_CAP:
        raise ValueError(f"n={n} exceeds cap {DEFAULT_N_CAP}")


def additive_closure(gens) -> NearSemiring:
    """Close the generators under pointwise + and return both reducts' tables."""
    if not len(gens):
        raise ValueError("generator set is empty")
    n = gens.n
    check_n_cap(n)
    G = np.array(list(gens.members))
    E = maps.canonical_tables(n)

    seen = np.zeros(len(E), dtype=bool)
    frontier = np.unique(maps.member_ranks(G, n))
    seen[frontier] = True
    while frontier.size:
        found = np.zeros(len(E), dtype=bool)
        for lo, sums in maps.products(E[frontier], G, "+", n):
            bad = np.flatnonzero(sums < 0)
            if bad.size:  # re-derive the first sum outside the shapes, to name it
                i, j = divmod(int(bad[0]), len(G))
                witness = maps.pointwise_add(E[frontier[lo + i]].tolist(), G[j].tolist())
                raise maps.NotAffineElement(f"table {witness} is outside the four closure shapes")
            found[sums.ravel()] = True
        frontier = np.flatnonzero(found & ~seen)
        seen |= found

    # the rendered rows equal the discovered ones, since rank checks membership
    elems = tuple(map(tuple, E[np.flatnonzero(seen)].tolist()))
    add_table, mul_table = fill_tables(elems, n)
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
