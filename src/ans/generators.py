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

from ._numpy import np
from . import brandt, closure, maps
from .formulas import KINDS
from .maps import NotAffineElement


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """A generator set: `members` is one read-only uint8 array, a row of
    element codes per member, as `maps.canonical_tables` holds its rows."""
    n: int
    kind: str
    members: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if len({row.tobytes() for row in self.members}) != len(self.members):
            raise ValueError("generator members are not distinct")
        self.members.setflags(write=False)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def phi_sigma(sigma, n):
    """The automorphism (i,j) -> (i sigma, j sigma), theta -> theta, as a uint8 row."""
    return brandt.automorphism(sigma, n).astype(np.uint8)


def enumerate_aut(n) -> GeneratorSet:
    """Aut(B_n), ordered by sigma in one-line lexicographic order."""
    return GeneratorSet(n, "aut", np.array([phi_sigma(s, n) for s in brandt.enumerate_sn(n)]))


def enumerate_constants(n) -> GeneratorSet:
    """All constant maps, xi_theta first then xi_(i,j) in pair order: row a is all a."""
    codes = np.arange(brandt.size(n), dtype=np.uint8)
    return GeneratorSet(n, "const", codes[:, None].repeat(len(codes), axis=1))


def enumerate_end(n) -> GeneratorSet:
    """End(B_n) = Aut(B_n) u {xi_a : a idempotent}.

    Order: xi_theta, the diagonal constants, then automorphisms.
    """
    idempotents = [brandt.THETA] + [brandt.pair(k, k, n) for k in range(1, n + 1)]
    members = [enumerate_constants(n).members[idempotents], enumerate_aut(n).members]
    return GeneratorSet(n, "end", np.concatenate(members))


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
    gs = GeneratorSet(n, "aff", E[seen])
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
    Rows compose as x(f o g) = (xf)g, that is g[f].
    """
    perms = brandt.enumerate_sn(n)
    images = {s: phi_sigma(s, n) for s in perms}
    distinct = {f.tobytes() for f in images.values()}
    if len(distinct) != len(perms):
        return False
    bijective_end = {f.tobytes() for f in enumerate_end(n) if len(set(f.tolist())) == len(f)}
    if distinct != bijective_end:
        return False
    if not np.array_equal(images[brandt.identity_perm(n)], np.arange(brandt.size(n))):
        return False
    return all(np.array_equal(images[t][images[s]], images[brandt.perm_compose(s, t)])
               for s in perms for t in brandt.sn_generators(n))


def automorphism_str(f, n) -> str:
    """"phi[sigma]" for the row of phi_sigma; any other row raises
    NotAffineElement.  sigma is read off the images of the diagonal pairs."""
    sigma = tuple((int(f[brandt.pair(i, i, n)]) - 1) // n + 1 for i in range(1, n + 1))
    if sorted(sigma) != list(range(1, n + 1)) or not np.array_equal(phi_sigma(sigma, n), f):
        raise NotAffineElement(f"table {tuple(f.tolist())} is neither a closure element "
                               "nor an automorphism")
    return "phi" + brandt.perm_str(sigma)


def generators_dict(gs: GeneratorSet) -> dict:
    """JSON form of a generator set: each member's canonical token, by one
    `maps.rank` of every row, and "phi[sigma]" for an automorphism (rank -1)."""
    ranks = maps.rank(gs.members, gs.n).tolist()
    return {
        "n": gs.n,
        "kind": gs.kind,
        "count": len(gs),
        "members": [automorphism_str(f, gs.n) if r < 0 else token  # rank -1's token is unused
                    for f, r, token in zip(gs.members, ranks, maps.tokens(ranks, gs.n))],
    }
