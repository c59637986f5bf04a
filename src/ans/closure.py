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
Cayley tables rank every sum and composite the same way and store element
indices as uint16.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import brandt, maps

# Beyond n=6 the Cayley tables (tens of thousands squared) leave the
# intended resource envelope, so the engine refuses early by default.
DEFAULT_N_CAP = 6

FORMAT_VERSION = 1

# Cayley tables hold element indices; at the cap n=6 there are 27,253
# elements, so uint16 is wide enough and halves the memory of int32.
TABLE_DTYPE = np.uint16

# Cells of sums or composites ranked at a time; bigger blocks raise peak
# memory without making the ranking faster.
_CHUNK_CELLS = 1 << 16
# Sampled axiom triples checked per vectorized step, for the same reason.
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
    ranks = _member_ranks(np.array(elems), n)
    E = maps.canonical_tables(n)[ranks]
    w = E.shape[1]
    badd = brandt.add_table(n).astype(E.dtype).ravel()
    # rank -> list position; the spare last slot catches rank -1
    position = np.full(len(maps.canonical_tables(n)) + 1, -1, dtype=np.int64)
    position[ranks] = np.arange(m)
    add_table = np.empty((m, m), dtype=TABLE_DTYPE)
    mul_table = np.empty((m, m), dtype=TABLE_DTYPE)
    # flat indices: x(f+g) is badd[xf * w + xg], x(f o g) is E[g * w + xf]
    left = E.astype(np.int64) * w
    row_start = (np.arange(m) * w)[:, None]
    step = max(1, _CHUNK_CELLS // (m * w))
    for lo in range(0, m, step):
        sums = badd.take(left[lo:lo + step, None, :] + E).reshape(-1, w)
        comps = E.take(row_start + E[lo:lo + step, None, :]).reshape(-1, w)
        sums = position[maps.rank(sums, n)].reshape(-1, m)
        comps = position[maps.rank(comps, n)].reshape(-1, m)
        bad = np.flatnonzero((sums < 0) | (comps < 0))
        if bad.size:
            i, j = divmod(int(bad[0]), m)
            kind = "additively" if sums[i, j] < 0 else "multiplicatively"
            raise AssertionError(f"closure not {kind} closed at ({lo + i},{j})")
        add_table[lo:lo + step] = sums
        mul_table[lo:lo + step] = comps
    return add_table, mul_table


def check_n_cap(n: int, n_cap: Optional[int] = DEFAULT_N_CAP):
    """Refuse an n above the cap, before any work on it starts."""
    if n_cap is not None and n > n_cap:
        raise ValueError(f"n={n} exceeds cap {n_cap}; raise n_cap if you really want this")


def _member_ranks(rows, n):
    """Ranks of table rows that must be closure elements."""
    r = maps.rank(rows, n)
    bad = np.flatnonzero(r < 0)
    if bad.size:
        witness = tuple(int(v) for v in rows[bad[0]])
        raise maps.NotAffineElement(f"table {witness} is outside the four closure shapes")
    return r


def additive_closure(gens, n_cap: Optional[int] = DEFAULT_N_CAP) -> NearSemiring:
    """Close the generators under pointwise + and return both reducts' tables."""
    if not len(gens):
        raise ValueError("generator set is empty")
    n = gens.n
    check_n_cap(n, n_cap)
    badd = brandt.add_table(n).ravel()
    G = np.array(list(gens.members), dtype=np.int64)
    E = maps.canonical_tables(n)
    w = E.shape[1]
    left = E.astype(np.int64) * w  # x(s+g) is badd[xs * w + xg]

    seen = np.zeros(len(E), dtype=bool)
    frontier = np.unique(_member_ranks(G, n))
    seen[frontier] = True
    step = max(1, _CHUNK_CELLS // (len(G) * w))
    while frontier.size:
        found = np.zeros(len(E), dtype=bool)
        for lo in range(0, len(frontier), step):
            sums = badd.take(left[frontier[lo:lo + step], None, :] + G)
            found[_member_ranks(sums.reshape(-1, w), n)] = True
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


def _first_failure(fails, triples):
    """Scan sampled triples in order, a slice at a time; `fails(a, b, c)`
    maps index arrays to a boolean array.  Returns the scan verdict with
    the first failing triple in sample order."""
    for lo in range(0, len(triples), _SCAN_SLICE):
        a, b, c = triples[lo:lo + _SCAN_SLICE].T
        bad = np.flatnonzero(fails(a, b, c))
        if bad.size:
            return False, len(triples), (int(a[bad[0]]), int(b[bad[0]]), int(c[bad[0]]))
    return True, len(triples), None


def _scan_assoc(t, triples=None):
    m = t.shape[0]
    if triples is None:
        for i in range(m):
            lhs = t[t[i], :]           # [j,k] -> (i j) k
            rhs = t[i][t]              # [j,k] -> i (j k)
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                j, k = map(int, bad[0])
                return False, m * m * m, (i, j, k)
        return True, m * m * m, None
    return _first_failure(lambda i, j, k: t[t[i, j], k] != t[i, t[j, k]], triples)


def _scan_distrib(add_t, mul_t, triples=None):
    m = add_t.shape[0]
    if triples is None:
        for f in range(m):
            lhs = mul_t[f][add_t]                       # [g,h] -> f (g+h)
            rhs = add_t[mul_t[f][:, None], mul_t[f]]    # [g,h] -> fg + fh
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                g, h = map(int, bad[0])
                return False, m * m * m, (f, g, h)
        return True, m * m * m, None
    return _first_failure(
        lambda f, g, h: mul_t[f, add_t[g, h]] != add_t[mul_t[f, g], mul_t[f, h]], triples)


def verify_near_semiring(ns: NearSemiring, samples=100_000, seed=0,
                         assoc_exhaustive_max=4_000_000,
                         distrib_exhaustive_max=100_000) -> ValidationReport:
    """Check both associativities and left distributivity f(g+h) = fg + fh.

    Axioms are scanned exhaustively while the triple count stays under the
    given bounds, and on deterministic random samples beyond that; failures
    carry the first offending triple as a witness.
    """
    m = len(ns)
    total = m ** 3
    rng = np.random.default_rng(seed)

    def sample():
        return rng.integers(0, m, size=(min(samples, total), 3))

    report = ValidationReport()
    for name, table in (("additive associativity", ns.add_table),
                        ("multiplicative associativity", ns.mul_table)):
        triples = None if total <= assoc_exhaustive_max else sample()
        ok, checked, witness = _scan_assoc(table, triples)
        report.checks.append(AxiomCheck(name, ok, checked, witness))
    triples = None if total <= distrib_exhaustive_max else sample()
    ok, checked, witness = _scan_distrib(ns.add_table, ns.mul_table, triples)
    report.checks.append(AxiomCheck("left distributivity", ok, checked, witness))
    return report


def support_histogram(ns: NearSemiring) -> dict:
    """Element count per support size."""
    return dict(sorted(Counter(len(maps.support(f)) for f in ns.elements).items()))


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
        "elements": [maps.map_str(f) for f in ns.elements],
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
