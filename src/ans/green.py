"""Green's relations and structural properties of the closure reducts.

Two independent routes are provided.  `green_brute` works on any Cayley
table, from the principal ideals with an identity adjoined (`ideals`, the
one place they are computed), and builds the J-order among J-classes only
for the egg-box, which asks for it.  The analytic route decides relatedness
from each element's shape and fields alone, as a reduct's index i is
canonical index i (`maps.fields`): `_RULES` states the paper's support and
projection rules once, as the fields each R, L and D key compares per
shape, and `analytic_structure` groups the canonical family by them and
states the idempotents, regular elements and eventual indices as masks.
Both routes give one record (`_structure`); their agreement is checked in
the battery and the tests.

Every partition is one labelling, each element's least class-mate:
`_least_mates` gives R, L and J from the ideal rows, one gather per class,
`_least` gives H and the analytic ones from an integer key per element,
and `maps.least_labels` joins R and L into D.  A record holds the labels;
the class tuples (`_classes`) are built for output, one relation at a time,
when it is first read.

Regularity is defined once, as x y x == x (`_xyx`).  Every cell is read
through the reduct's `closure.Table`.  The per-element scans (`ideals`,
`regular_elements`, `eventual_regularity`, and `subset_report`'s
closedness, regularity and inverse counts) visit the representatives r of
the table's action only (one per S_n orbit on a closure, all over the
trivial group); x = G[g_x] r takes r's verdict, or r's class moved by
G[g_x].  Only the isomorphism certificates build a local table.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from ._numpy import np
from . import brandt, maps
from .closure import TABLE_DTYPE, FiniteSemigroup

RELATIONS = ("R", "L", "D", "J", "H")
_COMPARED = ("label", "idempotent", "regular", "eventual_index")  # compared, unlike the J-order

SUBSET_NAMES = ("all", "K", "N", "constants", "singleton-ideal")


# --- brute force from the Cayley table ---------------------------------------

@dataclass(eq=False)
class GreenStructure:
    """Partitions of one reduct under R, L, D, J, H, as each element's least
    class-mate (stored as the tables store an element), plus element flags."""
    label: str
    labels: Dict[str, np.ndarray]
    idempotent: Tuple[bool, ...]
    regular: Tuple[bool, ...]
    eventual_index: Tuple[int, ...]
    j_order: Optional[np.ndarray]  # [a, b]: J-class a at or below b; for the egg-box only

    def __eq__(self, other):  # least-member labels: equal arrays, equal partitions
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _COMPARED) and all(
            np.array_equal(self.labels[rel], other.labels[rel]) for rel in RELATIONS)

    @cached_property
    def classes(self) -> Dict[str, Tuple[Tuple[int, ...], ...]]:
        """Each relation's class tuples, built from its labels when first read."""
        return _Classes(self.labels)

    def sizes(self, rel) -> list:
        """The sizes of the `rel`-classes, ordered by least member."""
        return [k for k in np.bincount(self.labels[rel]).tolist() if k]

    def to_dict(self) -> dict:
        d = {rel: [list(c) for c in self.classes[rel]] for rel in RELATIONS}
        d["idempotents"] = [i for i, e in enumerate(self.idempotent) if e]
        d["regular"] = [i for i, r in enumerate(self.regular) if r]
        d["eventual_index"] = list(self.eventual_index)
        return d


class _Classes(dict):
    """Class tuples by relation, each built by `_classes` on its first read."""

    def __init__(self, labels):
        super().__init__()
        self._labels = labels

    def __missing__(self, rel):
        self[rel] = _classes(self._labels[rel])
        return self[rel]


def _least(keys) -> np.ndarray:
    """Each element's least index whose integer key equals its own."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse]


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
    op, reps = sg.op, sg.op.action.reps
    out = np.zeros(len(sg), dtype=bool)
    for i in maps.row_blocks(np.arange(len(reps)), len(sg)):
        out[reps[i]] = _xyx(op, reps[i], op.rows[i]).any(axis=1)
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


def _held(rows, op, b, y) -> np.ndarray:
    """[i, j]: whether b[i]'s ideal holds y[j], a row block at a time, rows[k]
    being reps[k]'s under op's action: it holds y when r_b's holds G[g_b]^-1 y."""
    out, back = np.empty((len(b), len(y)), dtype=bool), op.action.inverse[op.action.g[b]]
    for i in maps.row_blocks(np.arange(len(b)), len(y)):
        out[i] = rows[op.rep_row[b[i, None]], op.action.group[back[i, None], y]]
    return out


def _least_mates(rows, op) -> Tuple[np.ndarray, np.ndarray]:
    """Each element's least class-mate under mutual membership in the ideals
    `rows`, and the classes read: reps[i]'s is the b in rows[i] whose ideal
    holds reps[i], x's is G[g_x] applied to r_x's.  Ascending, the first x not
    yet labelled is least in its class, which one gather labels (a lone x, itself)."""
    mates = rows & _held(rows, op, np.arange(rows.shape[1]), op.action.reps).T
    alone = (np.count_nonzero(mates, axis=1) == 1)[op.rep_row]
    out = np.where(alone, np.arange(len(alone)), -1)
    for x in (~alone).nonzero()[0].tolist():
        if out[x] < 0:
            out.put(op.action.group[op.action.g[x]].take(mates[op.rep_row[x]].nonzero()[0]), x)
    return out, mates


def ideals(sg: FiniteSemigroup) -> Tuple[np.ndarray, ...]:
    """Principal right, left and two-sided ideals aS¹, S¹a, S¹aS¹ of each
    representative a = reps[i] of the table's action, as boolean rows [i, b],
    then every element's R and L labels.  aS¹ is a's stored row and S¹a its
    column, each with a; S¹aS¹ is the union of xS¹ = G[g_x](r_x S¹) over the
    least member x of each R-class meeting S¹a, one scatter per r_x."""
    op, every = sg.op, np.arange(len(sg))
    reps, local = op.action.reps, np.arange(len(op.action.reps))
    right, left, two, meets = (np.zeros((len(reps), len(sg)), dtype=bool) for _ in range(4))
    for i in maps.row_blocks(local, len(sg)):
        right[i[:, None], op.rows[i]] = True
        left[i, op[every[:, None], reps[i]]] = True
    right[local, reps] = left[local, reps] = True  # the adjoined identity
    r_first, l_first = (_least_mates(rows, op)[0] for rows in (right, left))
    for i, row in enumerate(left):  # [i, x]: x is least in an R-class meeting S¹reps[i]
        meets[i, r_first[row]] = True
    a, x = np.nonzero(meets)
    for i, members in enumerate(map(np.flatnonzero, right)):
        for p in maps.row_blocks(np.flatnonzero(op.rep_row[x] == i), len(members)):
            two[a[p, None], op.action.group[op.action.g[x[p], None], members]] = True
    return right, left, two, r_first, l_first


def _structure(label, r, l, d, j, *flags, j_order=None) -> GreenStructure:
    """The record of R, L, D and J least-member labels and the idempotent,
    regular and eventual-index flags: H is R and L together."""
    labels = {"R": r, "L": l, "D": d, "J": j, "H": _least(r * len(r) + l)}
    return GreenStructure(label, {rel: lab.astype(TABLE_DTYPE) for rel, lab in labels.items()},
                          *(tuple(np.asarray(f).tolist()) for f in flags), j_order=j_order)


def green_brute(sg: FiniteSemigroup, *, j_order=False) -> GreenStructure:
    """All five relations from one `ideals(sg)`: R, L and J by `_least_mates`,
    and D = J asserted as equal labels, each representative's J-class being
    the set it labels alike.  No ideal row is kept; with `j_order` (the
    egg-box's covers, which no other caller reads) the record holds the
    J-order among J-classes, read off the two-sided rows."""
    m, op = len(sg), sg.op
    two, r, l = ideals(sg)[2:]  # the one-sided rows are not kept
    (j, mates), reps, ar = _least_mates(two, op), op.action.reps, np.arange(m)
    d = maps.least_labels((r, l), m)
    if not (np.array_equal(j, d) and np.array_equal(mates, j[reps, None] == j)):
        raise AssertionError("D and J partitions differ on a finite semigroup")
    least = ar[d == ar]  # each J-class's least member
    reg = regular_elements(sg)
    return _structure(sg.label, r, l, d, j, op[ar, ar] == ar, reg,  # idempotent: x x == x
                      eventual_regularity(sg, reg),
                      j_order=_held(two, op, least, least).T if j_order else None)


# --- analytic classifiers on the fields of `maps.fields` -----------------------

# The paper's rules, stated once.  Per reduct: the class of each shape (zero,
# constant, singleton, column map; the multiplicative rules count the zero
# map a constant), then for R, L and D the fields of `maps.fields` that the
# key compares, per shape.  Two elements are related exactly when their
# shapes share a class and they agree on those fields.  Additively, R
# compares first projections of the images, L second ones (the whole element
# on a column map), and D the support (with sigma on a column map).
# Multiplicatively, R is support equality, D support-size equality, and L
# image equality: {alpha}, {theta}, {theta, dst}, or theta and column q.
_RULES = {
    "additive": ((0, 1, 2, 3), {"R": ("", "a", "ab", "ac"), "L": ("", "b", "ac", "abc"),
                                "D": ("", "", "a", "ac")}),
    "multiplicative": ((1, 1, 2, 3), {"R": ("", "", "a", "a"), "L": ("", "ab", "bc", "b"),
                                      "D": ("", "", "", "")}),
}


def analytic_structure(sg: FiniteSemigroup) -> GreenStructure:
    """The record the paper states, to cross-check green_brute: R, L and D
    from `_RULES`, J being D, the idempotents and regular elements as masks
    on the fields, and eventual index 2 exactly off the regular ones; no J-order."""
    if sg.label not in _RULES:
        raise ValueError(f"unknown reduct label {sg.label!r}")
    classes, rules = _RULES[sg.label]
    shape, a, b, c = maps.fields(sg.n).T
    labels = []
    for rel in "RLD":
        compared = np.array([[name in f for name in "abc"] for f in rules[rel]])[shape]
        key = np.array(classes, dtype=np.int64)[shape]
        for on, col in zip(compared.T, (a, b, c)):  # every field is less than the element count
            key = key * len(shape) + np.where(on, col, 0)
        labels.append(_least(key))
    if sg.label == "additive":  # every image theta or a diagonal pair
        idempotent = (True, a == b, b == c, sg.n == 1)
    else:  # the zero map, every constant, src = dst, and q = k with sigma = id
        idempotent = (True, True, a == (b - 1) * sg.n + c, (b == a) & (c == 0))
    # every element is regular but the additive column maps, from n = 2 on
    reg = (shape != 3) | (sg.n == 1 or sg.label == "multiplicative")
    return _structure(sg.label, *labels, labels[2], np.choose(shape, idempotent), reg, 2 - reg)


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
    blocks = maps.row_blocks(np.arange(len(idx)), len(idx))  # idx is ascending
    return target, len(idx) == len(table) and all(
        np.array_equal(np.searchsorted(idx, sg.op[idx[b, None], idx]), table[b]) for b in blocks)


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
