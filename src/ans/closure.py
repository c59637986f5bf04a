"""Additive closure of the affine maps and the resulting near-semiring.

The closure is a worklist fixpoint inside M(B_n): starting from the
generators, adjoin s + g (known element on the left, generator on the
right) until nothing new appears.  Every finite sum of generators folds
left, so right-extension alone reaches the whole additive closure; full
pairwise closure is re-verified anyway while the Cayley tables are built,
and closure under composition is asserted at the same time.

Element identity during the fixpoint is the raw table (the canonical form
only provably exists once membership is established); the final element
list is re-sorted into canonical order so element indices are stable
across runs.
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

    Raises if any sum or composite falls outside the list, which doubles as
    the pairwise-closure re-verification.
    """
    m = len(elems)
    E = np.array(elems, dtype=np.int32)
    badd = brandt.add_table(n)
    index = {row.tobytes(): i for i, row in enumerate(E)}
    add_table = np.empty((m, m), dtype=np.int32)
    mul_table = np.empty((m, m), dtype=np.int32)
    for i in range(m):
        sums = badd[E[i][None, :], E]
        comps = E[:, E[i]]
        for j in range(m):
            s = index.get(sums[j].tobytes())
            c = index.get(comps[j].tobytes())
            if s is None:
                raise AssertionError(f"closure not additively closed at ({i},{j})")
            if c is None:
                raise AssertionError(f"closure not multiplicatively closed at ({i},{j})")
            add_table[i, j] = s
            mul_table[i, j] = c
    return add_table, mul_table


def check_n_cap(n: int, n_cap: Optional[int] = DEFAULT_N_CAP):
    """Refuse an n above the cap, before any work on it starts."""
    if n_cap is not None and n > n_cap:
        raise ValueError(f"n={n} exceeds cap {n_cap}; raise n_cap if you really want this")


def additive_closure(gens, n_cap: Optional[int] = DEFAULT_N_CAP) -> NearSemiring:
    """Close the generators under pointwise + and return both reducts' tables."""
    if not len(gens):
        raise ValueError("generator set is empty")
    n = gens.n
    check_n_cap(n, n_cap)
    badd = brandt.add_table(n)
    G = np.array(list(gens.members), dtype=np.int32)

    seen = {}
    for g in gens.members:
        seen.setdefault(g, None)
    frontier = list(seen)
    while frontier:
        new = []
        for s in frontier:
            sums = badd[np.array(s, dtype=np.int32)[None, :], G]
            for row in sums:
                t = tuple(int(v) for v in row)
                if t not in seen:
                    seen[t] = None
                    new.append(t)
        frontier = new

    elems = sorted(seen, key=lambda f: maps.canonical_key(maps.classify(f)))
    add_table, mul_table = fill_tables(elems, n)
    return NearSemiring(n, tuple(elems), add_table, mul_table)


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
    for i, j, k in triples:
        if t[t[i, j], k] != t[i, t[j, k]]:
            return False, len(triples), (int(i), int(j), int(k))
    return True, len(triples), None


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
    for f, g, h in triples:
        if mul_t[f, add_t[g, h]] != add_t[mul_t[f, g], mul_t[f, h]]:
            return False, len(triples), (int(f), int(g), int(h))
    return True, len(triples), None


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


# --- JSON interchange ---------------------------------------------------------

def to_dict(ns: NearSemiring) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": ns.n,
        "count": len(ns),
        "elements": [maps.map_str(f) for f in ns.elements],
        "add_table": ns.add_table.tolist(),
        "mul_table": ns.mul_table.tolist(),
    }


def from_dict(d: dict) -> NearSemiring:
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {d.get('format_version')!r}")
    n = d["n"]
    elems = tuple(maps.render(maps.parse_canonical(s, n), n) for s in d["elements"])
    if d["count"] != len(elems):
        raise ValueError("declared count does not match the element list")
    keys = [maps.canonical_key(maps.classify(f)) for f in elems]
    if keys != sorted(keys):
        raise ValueError("element list is not in canonical order")
    add_t = np.array(d["add_table"], dtype=np.int32)
    mul_t = np.array(d["mul_table"], dtype=np.int32)
    ns = NearSemiring(n, elems, add_t, mul_t)
    ns.reduct("additive"), ns.reduct("multiplicative")  # shape/range validation
    return ns
