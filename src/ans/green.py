"""Green's relations and structural properties of the closure reducts.

Two independent routes are provided.  `green_brute` works on any Cayley
table, straight from the principal-ideal definitions with an identity
adjoined, from `ideals`, the one place those ideals are computed; it
keeps each J-class's two-sided row for the egg-box J-order.  The analytic
route decides relatedness from the canonical form alone: `additive_keys`
and `multiplicative_keys` state the support and projection rules once, as
per-element R/L/D keys, and `_KEYS_OF_RELATION` says which keys each of
the five relations compares (J as D, H as R and L together);
`analytic_structure` groups the canonical family by them, as a reduct's
index i is `maps.all_canonical(n)[i]`.  Agreement of the two routes is
checked in tests, not assumed here.

Every partition is one labelling: each element's least class-mate.
`_labels` makes it from per-element keys (ideal rows for R, L and J, the
R and L labels for H, the analytic keys), `maps.least_labels` joins R and
L into D, and `_classes` gives the class tuples, each ascending and
ordered by least member, so equal partitions have equal tuples.

Regularity is stated once, as x y x == x (`_xyx`).  Every cell is read
through the reduct's `closure.Table`.  The per-element scans (`ideals`,
`regular_elements`, `eventual_regularity`, and `subset_report`'s
closedness, regularity and inverse counts) visit the representatives of
the table's action only, one per S_n orbit on a closure and every element
over the trivial group, and spread each verdict, or ideal row (`_spread`),
over its orbit.  Only the isomorphism certificates build a local table.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ._numpy import np
from . import brandt, maps
from .closure import FiniteSemigroup
from .maps import Constant, Singleton, Zero

RELATIONS = ("R", "L", "D", "J", "H")

SUBSET_NAMES = ("all", "K", "N", "constants", "singleton-ideal")


# --- brute force from the Cayley table ---------------------------------------

@dataclass
class GreenStructure:
    """Partitions of one reduct under R, L, D, J, H plus element flags."""
    label: str
    classes: Dict[str, Tuple[Tuple[int, ...], ...]]
    class_of: Dict[str, Tuple[int, ...]]
    idempotent: Tuple[bool, ...]
    regular: Tuple[bool, ...]
    eventual_index: Tuple[int, ...]
    j_ideals: Tuple[bytes, ...]  # packed S¹aS¹ of each J-class's least member a

    def to_dict(self) -> dict:
        d = {rel: [list(c) for c in self.classes[rel]] for rel in RELATIONS}
        d["idempotents"] = [i for i, e in enumerate(self.idempotent) if e]
        d["regular"] = [i for i, r in enumerate(self.regular) if r]
        d["eventual_index"] = list(self.eventual_index)
        return d


def _labels(keys, m) -> np.ndarray:
    """The least index whose hashable key equals each of the m keys' own, in
    an array made before the keys, so that freeing them lets the heap shrink."""
    first = {}
    return np.fromiter((first.setdefault(k, i) for i, k in enumerate(keys)), np.intp, m)


def _classes(labels) -> Tuple[Tuple[int, ...], ...]:
    """The classes of a least-member labelling, each ascending, ordered by
    least member: the one canonical form of a partition."""
    members = {}
    for i, first in enumerate(labels.tolist()):
        members.setdefault(first, []).append(i)
    return tuple(map(tuple, members.values()))


def _xyx(op, x, xy) -> np.ndarray:
    """A[i, j] = (x y x == x) for x = x[i], given xy[i, j] = x y."""
    return op[xy, x[:, None]] == x[:, None]


def regular_elements(sg: FiniteSemigroup) -> np.ndarray:
    """Mask of the regular elements: x with x y x = x for some y, for x over
    the representatives of its table's action, a row block at a time; every
    element takes its representative's verdict."""
    op, m = sg.op, len(sg)
    out = np.zeros(m, dtype=bool)
    for x in maps.row_blocks(op.action.reps, m):
        out[x] = _xyx(op, x, op[x[:, None], np.arange(m)]).any(axis=1)
    return out[op.action.labels]


def eventual_regularity(sg: FiniteSemigroup, regular: np.ndarray) -> Tuple[int, ...]:
    """Least r >= 1 such that the r-th power is regular, per element, given
    the `regular_elements` mask of `sg`.  The powers of the representatives
    of its table's action advance at once, x^(r+1) = x^r x, while not regular."""
    op, m = sg.op, len(sg)
    reps = op.action.reps
    index = np.ones(m, dtype=np.int64)
    live = power = reps[~regular[reps]]  # ascending; power is x^index[live]
    while live.size:
        if index[live[0]] == m:  # pigeonhole: the power sequence has cycled
            raise AssertionError(f"element {int(live[0])} has no regular power")
        power = op[power, live]
        index[live] += 1
        keep = ~regular[power]
        live, power = live[keep], power[keep]
    return tuple(index[op.action.labels].tolist())


# Each ideal block reads at least _BLOCK_CELLS / _FILL_WIDTH = 64 rows or columns.
_FILL_WIDTH = 1024


def _spread(packed, action, m):
    """Fill each non-representative x = G[g] r's packed ideal row from r's, read
    at G[g]^-1, as P carries aS¹ onto (P a)S¹; the x of one g have distinct r."""
    for g in range(1, len(action.group)):
        x = np.flatnonzero(action.g == g)
        bits = np.unpackbits(packed[action.labels[x]], axis=1, count=m)
        packed[x] = np.packbits(bits.take(action.group[action.inverse[g]], axis=1), axis=1)


def ideals(sg: FiniteSemigroup) -> Tuple[np.ndarray, ...]:
    """Principal right, left and two-sided ideals aS¹, S¹a, S¹aS¹ of every
    element of the reduct `sg`, as bit-packed membership rows (row a is
    `np.packbits` of a length-m mask), then the R and L labels.  The
    representatives' rows are filled and spread (`_spread`).  S¹aS¹ is the
    union of xS¹ over x in S¹a: one OR per L-class meeting the
    representatives, of one right ideal per R-class that meets S¹a."""
    op, m = sg.op, len(sg)
    action, reps, every = op.action, op.action.reps, np.arange(m)
    right, left, two = (np.empty((m, (m + 7) // 8), dtype=np.uint8) for _ in range(3))
    for a in maps.row_blocks(reps, min(m, _FILL_WIDTH)):  # the a whose ideals fill this block
        local = np.arange(len(a))
        # aS¹ is row a of op, S¹a column a
        for packed, i, members in ((right, local[:, None], op[a[:, None], every]),
                                   (left, local, op[every[:, None], a])):
            block = np.zeros((len(a), m), dtype=bool)
            block[i, members] = True
            block[local, a] = True  # the adjoined identity
            packed[a] = np.packbits(block, axis=1)
    for rows in (right, left):
        _spread(rows, action, m)
    r_first, l_first = (_labels((row.tobytes() for row in rows), m) for rows in (right, left))
    for a in set(l_first[reps].tolist()):  # the first member of each L-class meeting `reps`
        meets = np.zeros(m, dtype=bool)  # the first member of each R-class meeting S¹a
        meets[r_first[np.unpackbits(left[a], count=m).view(bool)]] = True
        two[a] = np.bitwise_or.reduce(right[meets], axis=0)
    two[reps] = two[l_first[reps]]
    _spread(two, action, m)
    return right, left, two, r_first, l_first


def green_brute(sg: FiniteSemigroup) -> GreenStructure:
    """All five relations from one `ideals(sg)`, with D = J asserted.  Of
    its arrays only the J-classes' two-sided rows are kept (`j_ideals`), for
    the egg-box J-order."""
    m = len(sg)
    _, _, two, r, l = ideals(sg)
    labels = {"R": r, "L": l, "D": maps.least_labels((r, l), m),
              "J": _labels((row.tobytes() for row in two), m),
              "H": _labels(zip(r.tolist(), l.tolist()), m)}
    if not np.array_equal(labels["D"], labels["J"]):
        raise AssertionError("D and J partitions differ on a finite semigroup")

    ar = np.arange(m)
    reg = regular_elements(sg)
    return GreenStructure(
        label=sg.label,
        classes={rel: _classes(lab) for rel, lab in labels.items()},
        # classes are numbered in order of least member, the labels' fixed points
        class_of={rel: tuple(np.searchsorted(ar[lab == ar], lab).tolist())
                  for rel, lab in labels.items()},
        idempotent=tuple((sg.op[ar, ar] == ar).tolist()),  # x x == x
        regular=tuple(reg.tolist()),
        eventual_index=eventual_regularity(sg, reg),
        j_ideals=tuple(two[a].tobytes() for a in np.flatnonzero(labels["J"] == ar)),
    )


# --- analytic classifiers on canonical forms ----------------------------------

def additive_keys(c) -> Dict[str, tuple]:
    """R, L and D keys of a canonical form in the additive reduct.

    Two elements are related exactly when their keys are equal.  Support
    equality is necessary for every relation.  On top of that, R compares
    first projections of the images, L compares second projections except
    on n-support elements where L is trivial, and D relaxes L's conditions
    to support only (with the row permutation retained on n-support
    elements, where D collapses to R).
    """
    if isinstance(c, Zero):
        base = ("zero",)
        return {"R": base, "L": base, "D": base}
    if isinstance(c, Constant):
        return {"R": ("c", c.alpha[0]), "L": ("c", c.alpha[1]), "D": ("c",)}
    if isinstance(c, Singleton):
        return {"R": ("s", c.src, c.dst[0]),
                "L": ("s", c.src, c.dst[1]),
                "D": ("s", c.src)}
    return {"R": ("n", c.k, c.sigma), "L": ("n", c), "D": ("n", c.k, c.sigma)}


def multiplicative_keys(c) -> Dict[str, tuple]:
    """R, L and D keys of a canonical form in the multiplicative reduct.

    Constants (with the zero map) are mutually R- and D-related; outside
    them R is support equality and D is support-size equality.  L is image
    equality for every shape: {alpha} for constants, {theta} for zero,
    {theta, dst} for singletons, {theta} u column q for n-support.
    """
    if isinstance(c, (Zero, Constant)):
        img = c.alpha if isinstance(c, Constant) else None
        return {"R": ("c",), "L": ("c", img), "D": ("c",)}
    if isinstance(c, Singleton):
        return {"R": ("s", c.src), "L": ("s", c.dst), "D": ("s",)}
    return {"R": ("n", c.k), "L": ("n", c.q), "D": ("n",)}


# The keys each relation compares: J equals D on a finite semigroup, and H
# is the intersection of R and L.
_KEYS_OF_RELATION = {"R": ("R",), "L": ("L",), "D": ("D",), "J": ("D",), "H": ("R", "L")}


def analytic_structure(sg: FiniteSemigroup) -> Dict[str, Tuple[Tuple[int, ...], ...]]:
    """All five partitions from the analytic keys, for cross-checking
    against green_brute: two elements share a class exactly when they
    agree on every key `_KEYS_OF_RELATION` names for the relation.
    """
    keys_of = {"additive": additive_keys,
               "multiplicative": multiplicative_keys}.get(sg.label)
    if keys_of is None:
        raise ValueError(f"unknown reduct label {sg.label!r}")
    keys = [keys_of(c) for c in maps.all_canonical(sg.n)]
    return {rel: _classes(_labels((tuple(k[r] for r in _KEYS_OF_RELATION[rel]) for k in keys),
                              len(keys)))
            for rel in RELATIONS}


# --- subsets and structural properties ----------------------------------------

@dataclass
class SubsetReport:
    name: str
    label: str
    size: int
    closed: bool
    regular: bool
    idempotents_commute: bool
    inverse: bool
    orthodox: bool
    iso_target: Optional[str] = None
    iso_holds: Optional[bool] = None


def subset_indices(sg: FiniteSemigroup, name: str) -> Tuple[int, ...]:
    """Member indices of a named subset, selected by support size.

    K (the additively regular elements) is computed from the table rather
    than by support size, which keeps it correct in the degenerate n=1
    case where the lone n-support element happens to be regular.
    """
    n = sg.n
    if name == "all":
        return tuple(range(len(sg)))
    if name == "K":
        if sg.label != "additive":
            raise ValueError("subset K is defined on the additive reduct")
        return tuple(np.flatnonzero(regular_elements(sg)).tolist())
    sizes = maps.support_sizes(maps.canonical_tables(n))
    if name == "N":
        if sg.label != "multiplicative":
            raise ValueError("subset N is defined on the multiplicative reduct")
        keep = sizes <= n
    elif name == "constants":
        keep = (sizes == 0) | (sizes == n * n + 1)
    elif name == "singleton-ideal":
        keep = sizes <= 1
    else:
        raise ValueError(f"unknown subset {name!r}; expected one of {SUBSET_NAMES}")
    return tuple(np.flatnonzero(keep).tolist())


def zero_direct_union_table(copies: int, m: int) -> np.ndarray:
    """Cayley table of a 0-direct union of `copies` disjoint B_m's.

    Element 0 is the shared zero; copy c occupies indices
    1 + c*m^2 .. (c+1)*m^2, in B_m code order.  Products across copies
    are zero.
    """
    badd = brandt.add_table(m)
    size = 1 + copies * m * m
    t = np.zeros((size, size), dtype=np.int32)
    block = badd[1:, 1:]
    for c in range(copies):
        base = 1 + c * m * m
        t[base:base + m * m, base:base + m * m] = np.where(block == 0, 0, base + block - 1)
    return t


def _iso_certificate(sg: FiniteSemigroup, name, idx):
    """The claimed target, and whether the subset's table, its members
    numbered in rank order, equals the target's table cell for cell.

    Canonical rank order numbers the members as the target's element codes.
    A constant xi_alpha ranks as the code of alpha, the zero map as 0.  A
    singleton src -> dst (at n=1, the 1-support column map) ranks as
    n^2 + 1 + (src-1)n^2 + (dst-1), with src and dst as pair codes, so its
    local index (src-1)n^2 + dst is its code in B_{n^2} and the code of dst
    in copy src of the 0-direct union.  Only these subsets get a table of
    their own, in local indices: 37 and 1,297 elements at n = 6.
    """
    n = sg.n
    if name == "constants" and sg.label == "additive":
        target, table = f"B_{n}", brandt.add_table(n)
    elif name == "singleton-ideal" and sg.label == "additive":
        target, table = (f"0-direct union of {n * n} copies of B_{n}",
                         zero_direct_union_table(n * n, n))
    elif name == "singleton-ideal" and sg.label == "multiplicative":
        target, table = f"B_{n * n}", brandt.add_table(n * n)
    else:
        return None, None
    local = np.searchsorted(idx, sg.op[np.ix_(idx, idx)])  # idx is ascending
    return target, bool(np.array_equal(local, table))


def structural_checks(sg: FiniteSemigroup, subset: str) -> SubsetReport:
    """`subset_report` on the members `subset_indices` selects."""
    return subset_report(sg, subset, subset_indices(sg, subset))


def subset_report(sg: FiniteSemigroup, subset: str, idx) -> SubsetReport:
    """Closure, regularity, inverse/orthodox verdicts, and the isomorphism
    certificate (when one is claimed) for the named subset of one reduct,
    whose member indices, ascending, are `idx`.  Closedness, regularity and
    "exactly one inverse" are read off the row x y and column y x, y in the
    subset, of each representative x of its table's action, of whose orbits
    the subset must be a union (a ValueError otherwise)."""
    op, idx = sg.op, np.asarray(idx, dtype=np.intp)
    m = len(idx)
    labels = op.action.labels
    inside = np.zeros(len(sg), dtype=bool)
    inside[idx] = True
    if not np.array_equal(inside[labels], inside):
        raise ValueError(f"subset {subset!r} is not a union of orbits")
    regular = inverse = True
    for x in maps.row_blocks(idx[labels[idx] == idx], m):
        xy = op[np.ix_(x, idx)]
        if m < len(sg) and not inside.take(xy).all():  # the whole reduct is closed
            return SubsetReport(subset, sg.label, m, False, False, False, False, False)
        a = _xyx(op, x, xy)
        b = _xyx(op, idx, op[np.ix_(idx, x)]).T  # y x y == y
        regular = regular and bool(a.any(axis=1).all())
        inverse = inverse and bool((np.count_nonzero(a & b, axis=1) == 1).all())
    idem = idx[op[idx, idx] == idx]
    ef = op[np.ix_(idem, idem)]  # products of idempotent pairs
    commute = bool(np.array_equal(ef, ef.T))
    orthodox = regular and bool(np.all(op[ef, ef] == ef))
    iso_target, iso_holds = _iso_certificate(sg, subset, idx)
    return SubsetReport(subset, sg.label, m, True, regular,
                        commute, regular and inverse, orthodox, iso_target, iso_holds)
