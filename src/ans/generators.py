"""Endomorphisms, automorphisms and affine maps over B_n.

End(B_n) splits into the automorphisms phi_sigma (one per permutation) and
the constant maps onto idempotents; Aff(B_n) is every sum g + xi with g an
endomorphism and xi a constant.  Aff is *constructed* that way here, by
ranking all End x Const sums (`maps.products`) and deduplicating the ranks;
the closed-form sizes and shape characterizations are asserted afterwards,
so the counting theorems are construction-time checks rather than
assumptions.

Automorphisms are not members of the affine closure for n >= 2 (their
support has size n^2, outside the four closure shapes), so generator-set
dumps serialize them with the extra token "phi[sigma]".
"""

import math
import re
from dataclasses import dataclass
from itertools import product
from typing import Tuple

import numpy as np

from . import brandt, closure, maps
from .brandt import THETA
from .maps import NotAffineElement

_PHI_RE = re.compile(r"^phi(\[[\d,]*\])$")

KINDS = ("end", "aut", "aff", "const")

def expected_size(kind, n):
    f = math.factorial(n)
    return {
        "aut": f,
        "end": f + n + 1,
        "aff": (f + 1) * n * n + 1,
        "const": n * n + 1,
    }[kind]


@dataclass(frozen=True)
class GeneratorSet:
    n: int
    kind: str
    members: Tuple[tuple, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if len(set(self.members)) != len(self.members):
            raise ValueError("generator members are not distinct")
        want = expected_size(self.kind, self.n)
        if len(self.members) != want:
            raise ValueError(
                f"{self.kind} generator set for n={self.n} has "
                f"{len(self.members)} members, expected {want}")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def phi_sigma(sigma, n):
    """The automorphism (i,j) -> (i sigma, j sigma), theta -> theta."""
    brandt.check_perm(sigma)
    if len(sigma) != n:
        raise ValueError(f"permutation length {len(sigma)} != n={n}")
    t = [THETA] * brandt.size(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t[brandt.pair(i, j, n)] = brandt.pair(sigma[i - 1], sigma[j - 1], n)
    return tuple(t)


def is_endomorphism(f) -> bool:
    """(a + b)f = af + bf for all a, b in B_n."""
    n = maps.map_n(f)
    t = brandt.add_table(n)
    return all(f[t[a, b]] == t[f[a], f[b]]
               for a in range(len(f)) for b in range(len(f)))


def enumerate_aut(n) -> GeneratorSet:
    """Aut(B_n), ordered by sigma in one-line lexicographic order."""
    members = tuple(phi_sigma(s, n) for s in brandt.enumerate_sn(n))
    return GeneratorSet(n, "aut", members)


def enumerate_constants(n) -> GeneratorSet:
    """All constant maps, xi_theta first then xi_(i,j) in pair order."""
    members = tuple(maps.constant_map(a, n) for a in brandt.elements(n))
    return GeneratorSet(n, "const", members)


def enumerate_end(n) -> GeneratorSet:
    """End(B_n) = Aut(B_n) u {xi_a : a idempotent}.

    Order: xi_theta, the diagonal constants, then automorphisms.
    """
    members = [maps.zero_map(n)]
    members += [maps.constant_map(brandt.pair(k, k, n), n) for k in range(1, n + 1)]
    members += list(enumerate_aut(n))
    return GeneratorSet(n, "end", tuple(members))


def brute_force_endomorphisms(n):
    """All members of M(B_n) with the homomorphism property, by full scan.

    The scan is N^N tables (N = n^2+1); refuse anything past n=2 where it
    stops being desk-scale.
    """
    if n > 2:
        raise ValueError(f"exhaustive endomorphism scan infeasible for n={n}")
    m = brandt.size(n)
    found = []
    for f in product(range(m), repeat=m):
        if is_endomorphism(f):
            found.append(f)
    return found


def enumerate_aff(n) -> GeneratorSet:
    """Aff(B_n) = {g + xi : g in End, xi constant}, deduplicated.

    Members come out in canonical closure order, which is rank order; the
    characterization (all constants plus all column maps, size
    (n!+1)n^2+1) is asserted.
    """
    closure.check_n_cap(n)  # Aff grows with n!, so refuse before building anything
    E = maps.canonical_tables(n)
    seen = np.zeros(len(E), dtype=bool)
    for _, ranks in maps.products(enumerate_end(n).members,
                                  enumerate_constants(n).members, "+", n):
        assert ranks.min() >= 0, "an End + Const sum is outside the four closure shapes"
        seen[ranks] = True
    members = tuple(map(tuple, E[seen].tolist()))
    gs = GeneratorSet(n, "aff", members)
    shapes = {type(c) for c in maps.forms(members, n)}
    assert shapes <= {maps.Zero, maps.Constant, maps.NSupport}
    return gs


def enumerate_kind(kind, n) -> GeneratorSet:
    """Dispatch on a KINDS name."""
    builders = {"end": enumerate_end, "aut": enumerate_aut,
                "aff": enumerate_aff, "const": enumerate_constants}
    if kind not in builders:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {KINDS}")
    closure.check_n_cap(n)  # Aff and End grow with n!, so refuse before building
    return builders[kind](n)


def triple_to_map(k, q, sigma, n):
    """The column map with support column k: phi_sigma + xi_(k sigma, q)."""
    brandt.check_perm(sigma)
    const = maps.constant_map(brandt.pair(sigma[k - 1], q, n), n)
    return maps.pointwise_add(phi_sigma(sigma, n), const)


def map_to_triple(f):
    """Inverse of triple_to_map; errors unless f is an n-support column map."""
    c = maps.forms([f], maps.map_n(f))[0]
    if not isinstance(c, maps.NSupport):
        raise ValueError(f"not an n-support closure element: {maps.canonical_str(c)}")
    return c.k, c.q, c.sigma


def aut_iso_sn(n) -> bool:
    """Check that sigma -> phi_sigma is a group isomorphism S_n -> Aut(B_n).

    Verifies injectivity, that the images are exactly the bijective
    endomorphisms, that phi_id is the identity map, and that
    phi_(sigma tau) = phi_sigma phi_tau for every sigma and every tau in
    `brandt.sn_generators(n)`.  That last check covers every tau: write
    tau as a word tau_1 ... tau_k in the generators; induction on k gives
    phi_(sigma tau) = phi_sigma phi_tau_1 ... phi_tau_k, and with
    sigma = id (phi_id being the identity) phi_tau = phi_tau_1 ... phi_tau_k.
    """
    perms = brandt.enumerate_sn(n)
    images = {s: phi_sigma(s, n) for s in perms}
    if len(set(images.values())) != len(perms):
        return False
    bijective_end = {f for f in enumerate_end(n) if len(set(f)) == len(f)}
    if set(images.values()) != bijective_end:
        return False
    if images[brandt.identity_perm(n)] != tuple(range(brandt.size(n))):
        return False
    return all(maps.compose(images[s], images[t]) == images[brandt.perm_compose(s, t)]
               for s in perms for t in brandt.sn_generators(n))


def member_str(f) -> str:
    """Canonical token, falling back to "phi[sigma]" for automorphisms."""
    try:
        return maps.map_str(f)
    except NotAffineElement:
        n = maps.map_n(f)
        sigma = tuple(maps.proj1(f[brandt.pair(i, i, n)], n) for i in range(1, n + 1))
        if phi_sigma(brandt.check_perm(sigma), n) == f:
            return "phi" + brandt.perm_str(sigma)
        raise


def parse_member(s, n):
    m = _PHI_RE.match(s.strip())
    if m:
        return phi_sigma(brandt.parse_perm(m.group(1)), n)
    return maps.render(maps.parse_canonical(s, n), n)


def generators_dict(gs: GeneratorSet) -> dict:
    """JSON form of a generator set."""
    return {
        "n": gs.n,
        "kind": gs.kind,
        "count": len(gs),
        "members": [member_str(f) for f in gs],
    }
