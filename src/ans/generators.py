"""Endomorphisms, automorphisms and affine maps over B_n.

End(B_n) splits into the automorphisms phi_sigma (one per permutation) and
the constant maps onto idempotents; Aff(B_n) is every sum g + xi with g an
endomorphism and xi a constant.  Aff is *constructed* that way here, by
ranking all End x Const sums (`maps.products`) and deduplicating the ranks;
the shape characterization is asserted afterwards.  The sizes are not
assumed anywhere here: the verification battery compares each generator
census with the closed forms of `formulas.counts`.

Automorphisms are not members of the affine closure for n >= 2 (their
support has size n^2, outside the four closure shapes), so generator-set
dumps serialize them with the extra token "phi[sigma]".
"""

from dataclasses import dataclass
from typing import Tuple

from ._numpy import np
from . import brandt, closure, maps
from .formulas import KINDS
from .maps import NotAffineElement


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

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def phi_sigma(sigma, n):
    """The automorphism (i,j) -> (i sigma, j sigma), theta -> theta, as a tuple."""
    return tuple(brandt.automorphism(sigma, n).tolist())


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


def enumerate_aff(n) -> GeneratorSet:
    """Aff(B_n) = {g + xi : g in End, xi constant}, deduplicated.

    Members come out in canonical closure order, which is rank order.  A
    sum outside the four shapes, or a member that is not the zero map, a
    constant or a column map, raises AssertionError (under `python -O` too).
    """
    closure.check_n_cap(n)  # Aff grows with n!, so refuse before building anything
    E = maps.canonical_tables(n)
    seen = np.zeros(len(E), dtype=bool)
    for _, ranks in maps.products(enumerate_end(n).members,
                                  enumerate_constants(n).members, "+", n):
        if ranks.min() < 0:  # rank -1 would mark the last canonical element
            raise AssertionError("an End + Const sum is outside the four closure shapes")
        seen[ranks] = True
    members = tuple(map(tuple, E[seen].tolist()))
    gs = GeneratorSet(n, "aff", members)
    if (maps.fields(n)[seen, 0] == 2).any():  # the shape column: 2 is a singleton
        raise AssertionError("an affine map is a singleton, not the zero map, "
                             "a constant or a column map")
    return gs


def enumerate_kind(kind, n) -> GeneratorSet:
    """Dispatch on a KINDS name."""
    builders = {"end": enumerate_end, "aut": enumerate_aut,
                "aff": enumerate_aff, "const": enumerate_constants}
    if kind not in builders:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {KINDS}")
    closure.check_n_cap(n)  # Aff and End grow with n!, so refuse before building
    return builders[kind](n)


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


def generators_dict(gs: GeneratorSet) -> dict:
    """JSON form of a generator set."""
    return {
        "n": gs.n,
        "kind": gs.kind,
        "count": len(gs),
        "members": [member_str(f) for f in gs],
    }
