"""Closed-form counting oracle.

Every count is a pure function of n, evaluated in exact integer
arithmetic.  These are the expected sides of the enumeration tests; the
measured sides come from the closure engine and the Green analysis.

The n = 1 case is degenerate: the single 1-support element doubles as the
n-support shape, so the census rows are fixed constants there instead of
the n >= 2 polynomials.
"""

from dataclasses import asdict, dataclass
from math import comb, factorial
from typing import Dict

KINDS = ("end", "aut", "aff", "const")  # the generator sets, named here so the CLI needs no numpy


@dataclass(frozen=True)
class CountsTable:
    n: int
    end_count: int
    aut_count: int
    aff_count: int
    a_plus_total: int
    breakup: Dict[str, int]         # {"full", "n_support", "singleton", "zero"}
    additive: Dict[str, int]        # {"r", "l", "d", "idempotents", "regular"}
    multiplicative: Dict[str, int]  # {"r", "l", "d", "h", "idempotents"}

    def to_dict(self) -> dict:
        return asdict(self)


def counts(n: int) -> CountsTable:
    """All closed-form counts at a given n >= 1."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    f = factorial(n)
    breakup = {
        "full": n * n,
        "n_support": f * n * n,
        "singleton": n ** 4 if n >= 2 else 0,
        "zero": 1,
    }
    total = sum(breakup.values())
    if n == 1:
        additive = {"r": 3, "l": 3, "d": 3, "idempotents": 3, "regular": 3}
        multiplicative = {"r": 2, "l": 3, "d": 2, "h": 3, "idempotents": 3}
    else:
        additive = {
            "r": f * n + n ** 3 + n + 1,
            "l": f * n * n + n ** 3 + n + 1,
            "d": f * n + n * n + 2,
            "idempotents": n ** 3 + n + 1,
            "regular": n ** 4 + n * n + 1,
        }
        multiplicative = {
            "r": n * n + n + 1,
            "l": 2 * n * n + n + 1,
            "d": 3,
            "h": n ** 4 + 2 * n * n + 1,
            "idempotents": 2 * n * n + n + 1,
        }
    return CountsTable(
        n=n,
        end_count=f + n + 1,
        aut_count=f,
        aff_count=(f + 1) * n * n + 1,
        a_plus_total=total,
        breakup=breakup,
        additive=additive,
        multiplicative=multiplicative,
    )


def support_histogram_expected(n: int) -> Dict[int, int]:
    """Expected element count per support size, folding colliding sizes."""
    ct = counts(n)
    sizes = {"zero": 0, "singleton": 1, "n_support": n, "full": n * n + 1}
    hist: Dict[int, int] = {}
    for key, c in ct.breakup.items():
        if c:
            hist[sizes[key]] = hist.get(sizes[key], 0) + c
    return dict(sorted(hist.items()))


def orbit_counts(n: int) -> Dict[str, int]:
    """Orbits of S_n (conjugation) on the closure elements of each shape,
    keyed as `counts(n).breakup`, by Burnside's lemma: Σ_{j <= min(k, n)}
    S(k, j) on k-tuples of points (S a Stirling number of the second kind),
    k = 2 for the constants and 4 for the singletons (none at n = 1); pi fixes
    a column map (k, q; sigma) when it fixes k and q and commutes with sigma,
    so Σ_λ m1(λ)^2 over the cycle types λ ⊢ n, m1(λ) its fixed points, which
    is Σ_{a >= 1} (2a - 1) p(n - a), as p(n - a) of the λ fix a points or more."""
    def tuples(k):  # S(k, j) by inclusion-exclusion
        return sum(sum((-1) ** i * comb(j, i) * (j - i) ** k for i in range(j + 1)) // factorial(j)
                   for j in range(min(k, n) + 1))
    p = [1] + [0] * n  # p[k]: the partitions of k, counted one part size at a time
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return {"zero": 1, "full": tuples(2), "singleton": tuples(4) if n >= 2 else 0,
            "n_support": sum((2 * a - 1) * p[n - a] for a in range(1, n + 1))}


def eventual_regularity_max(n: int) -> int:
    """Largest eventual-regularity index in the additive reduct."""
    return 1 if n == 1 else 2
