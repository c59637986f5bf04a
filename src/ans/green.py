"""Green's relations and structural properties of the closure reducts.

Two independent routes are provided.  `green_brute` works on any Cayley
table, straight from the principal-ideal definitions with an identity
adjoined; `ideals` is the one place those ideals are computed, and the
egg-box J-order reads them from there too.  The analytic route decides
relatedness from the canonical form alone: `additive_keys` and
`multiplicative_keys` state the support and projection rules once, as
per-element R/L/D keys, and two elements are related exactly when their
keys agree.  The rules have two views on top of those keys: the pairwise
`green_analytic_*` classifiers compare two elements' keys, and
`analytic_structure` groups a whole reduct by them.
Agreement of the two routes is checked in tests, not assumed here.

Regularity is stated once, as A[x, y] = (x y x == x) on a Cayley table,
scanned in row blocks (`_xyx_rows`): `regular_elements` takes each row's
any, `structural_checks` keeps A bit-packed for the inverse verdict, and
`eventual_regularity` advances every element's power at once.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import brandt, maps
from .closure import TABLE_DTYPE, FiniteSemigroup
from .maps import Constant, NSupport, Singleton, Zero

RELATIONS = ("R", "L", "D", "J", "H")

SUBSET_NAMES = ("all", "K", "N", "constants", "singleton-ideal")


# --- brute force from the Cayley table ---------------------------------------

@dataclass
class GreenStructure:
    """Partitions of one reduct under R, L, D, J, H plus element flags."""
    label: str
    size: int
    classes: Dict[str, Tuple[Tuple[int, ...], ...]]
    class_of: Dict[str, Tuple[int, ...]]
    idempotent: Tuple[bool, ...]
    regular: Tuple[bool, ...]
    eventual_index: Tuple[int, ...]

    def counts(self) -> Dict[str, int]:
        return {rel: len(self.classes[rel]) for rel in RELATIONS}

    def related(self, rel, i, j) -> bool:
        return self.class_of[rel][i] == self.class_of[rel][j]

    def to_dict(self) -> dict:
        d = {rel: [list(c) for c in self.classes[rel]] for rel in RELATIONS}
        d["idempotents"] = [i for i, e in enumerate(self.idempotent) if e]
        d["regular"] = [i for i, r in enumerate(self.regular) if r]
        d["eventual_index"] = list(self.eventual_index)
        return d


def _group(keys) -> Tuple[Tuple[int, ...], ...]:
    classes = {}
    for i, k in enumerate(keys):
        classes.setdefault(k, []).append(i)
    return tuple(tuple(c) for c in sorted(classes.values(), key=lambda c: c[0]))


def _class_of(classes, m) -> Tuple[int, ...]:
    out = [0] * m
    for ci, members in enumerate(classes):
        for i in members:
            out[i] = ci
    return tuple(out)


def partition_key(classes):
    """A partition as an order-free value, for comparing two of them."""
    return frozenset(frozenset(c) for c in classes)


def idempotents(op: np.ndarray) -> np.ndarray:
    """Mask of the idempotents x = x x of the Cayley table `op`."""
    return op.diagonal() == np.arange(op.shape[0])


def _xyx_rows(op: np.ndarray):
    """(xs, A[xs]) for consecutive row blocks xs, where A[x, y] = (x y x == x)
    on the Cayley table `op`; A is never held whole."""
    for xs in maps.row_blocks(np.arange(op.shape[0]), op.shape[0]):
        x = xs[:, None]
        yield xs, op[op[xs], x] == x


def regular_elements(op: np.ndarray) -> np.ndarray:
    """Mask of the regular elements: x with x y x = x for some y."""
    out = np.zeros(op.shape[0], dtype=bool)
    for xs, a in _xyx_rows(op):
        out[xs] = a.any(axis=1)
    return out


def eventual_regularity(op: np.ndarray, regular: np.ndarray) -> Tuple[int, ...]:
    """Least r >= 1 such that the r-th power is regular, per element, given
    the `regular_elements` mask of `op`.  Every element's power advances
    at once, x^(r+1) = x^r x, while it is not regular."""
    m = op.shape[0]
    index = np.ones(m, dtype=np.int64)
    live = power = np.flatnonzero(~regular)  # ascending; power is x^index[live]
    while live.size:
        if index[live[0]] == m:  # pigeonhole: the power sequence has cycled
            raise AssertionError(f"element {int(live[0])} has no regular power")
        power = op[power, live]
        index[live] += 1
        keep = ~regular[power]
        live, power = live[keep], power[keep]
    return tuple(index.tolist())


def ideals(op: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Principal right, left and two-sided ideals aS¹, S¹a, S¹aS¹ of every
    element of the Cayley table `op`, as bit-packed membership rows.

    Row a of each array is `np.packbits` of a length-m mask; unpack it with
    `np.unpackbits(rows, axis=1, count=m).astype(bool)`.  The two-sided
    ideal is the union of xS¹ over x in S¹a.
    """
    m = op.shape[0]
    ar = np.arange(m)
    right = np.zeros((m, m), dtype=bool)
    right[ar[:, None], op] = True
    right[ar, ar] = True
    right = np.packbits(right, axis=1)
    left = np.zeros((m, m), dtype=bool)
    left[ar[:, None], op.T] = True
    left[ar, ar] = True
    two = np.stack([np.bitwise_or.reduce(right[row], axis=0) for row in left])
    return right, np.packbits(left, axis=1), two


def green_brute(sg: FiniteSemigroup, ideal_rows=None) -> GreenStructure:
    """All five relations from principal ideals, with D = J asserted.

    `ideal_rows` is `ideals(sg.op)` when the caller has computed it already.
    """
    m = len(sg)
    if ideal_rows is None:
        ideal_rows = ideals(sg.op)
    r_keys, l_keys, j_keys = ([row.tobytes() for row in rows] for rows in ideal_rows)

    classes = {
        "R": _group(r_keys),
        "L": _group(l_keys),
        "J": _group(j_keys),
        "H": _group(list(zip(r_keys, l_keys))),
    }

    # D as the join of R and L via union-find
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rel in ("R", "L"):
        for members in classes[rel]:
            root = find(members[0])
            for i in members[1:]:
                parent[find(i)] = root
    classes["D"] = _group([find(i) for i in range(m)])

    if partition_key(classes["D"]) != partition_key(classes["J"]):
        raise AssertionError("D and J partitions differ on a finite semigroup")

    reg = regular_elements(sg.op)
    return GreenStructure(
        label=sg.label,
        size=m,
        classes=classes,
        class_of={rel: _class_of(classes[rel], m) for rel in RELATIONS},
        idempotent=tuple(idempotents(sg.op).tolist()),
        regular=tuple(reg.tolist()),
        eventual_index=eventual_regularity(sg.op, reg),
    )


@dataclass
class CountsRecord:
    label: str
    classes: Dict[str, int]
    class_sizes: Dict[str, Tuple[int, ...]]
    idempotents: int
    regular: int


def class_counts(gs: GreenStructure) -> CountsRecord:
    return CountsRecord(
        label=gs.label,
        classes=gs.counts(),
        class_sizes={rel: tuple(sorted(len(c) for c in gs.classes[rel]))
                     for rel in RELATIONS},
        idempotents=sum(gs.idempotent),
        regular=sum(gs.regular),
    )


# --- analytic classifiers on canonical forms ----------------------------------

def _common_n(f, g, n: Optional[int]):
    for c in (f, g):
        if isinstance(c, NSupport):
            m = len(c.sigma)
            if n is None:
                n = m
            elif n != m:
                raise ValueError(f"elements from different ambient n: {n} vs {m}")
    if n is not None:
        maps.check_canonical(f, n)
        maps.check_canonical(g, n)
    return n


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


def _keys_related(keys, f, g, rel: str, n: Optional[int]) -> bool:
    _common_n(f, g, n)
    rels = _KEYS_OF_RELATION.get(rel)
    if rels is None:
        raise ValueError(f"unknown relation {rel!r}")
    kf, kg = keys(f), keys(g)
    return all(kf[r] == kg[r] for r in rels)


def green_analytic_additive(f, g, rel: str, n: Optional[int] = None) -> bool:
    """Relatedness in the additive reduct, decided by canonical shape
    (the rules are stated in `additive_keys`)."""
    return _keys_related(additive_keys, f, g, rel, n)


def green_analytic_multiplicative(f, g, rel: str, n: Optional[int] = None) -> bool:
    """Relatedness in the multiplicative reduct, decided by canonical shape
    (the rules are stated in `multiplicative_keys`)."""
    return _keys_related(multiplicative_keys, f, g, rel, n)


def analytic_structure(sg: FiniteSemigroup) -> Dict[str, Tuple[Tuple[int, ...], ...]]:
    """Partitions from the analytic keys, for cross-checking.

    Grouping on the same keys the pairwise classifiers compare covers
    every pair against green_brute without the quadratic loop.
    """
    keys_of = {"additive": additive_keys,
               "multiplicative": multiplicative_keys}.get(sg.label)
    if keys_of is None:
        raise ValueError(f"unknown reduct label {sg.label!r}")
    keys = [keys_of(c) for c in maps.forms(sg.elements, sg.n)]
    out = {rel: _group([k[rel] for k in keys]) for rel in ("R", "L", "D")}
    out["J"] = out["D"]
    out["H"] = _group([(k["R"], k["L"]) for k in keys])
    return out


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
        return tuple(np.flatnonzero(regular_elements(sg.op)).tolist())
    sizes = maps.support_sizes(sg.elements)
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


def _restrict(sg: FiniteSemigroup, idx):
    """Restricted table in local indices, in TABLE_DTYPE, and whether the
    subset is closed (the table is only meaningful when it is)."""
    if len(idx) == len(sg):
        return sg.op, True
    idx = np.asarray(idx, dtype=np.intp)
    sub = sg.op[np.ix_(idx, idx)]
    inside = np.zeros(len(sg), dtype=bool)
    inside[idx] = True
    if not inside[sub].all():
        return sub, False
    local = np.zeros(len(sg), dtype=TABLE_DTYPE)
    local[idx] = np.arange(len(idx))
    return local[sub], True


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


def check_iso(table_a: np.ndarray, table_b: np.ndarray, bij) -> bool:
    """Does the bijection carry table_a onto table_b?"""
    bij = np.asarray(bij, dtype=np.int64)
    m = table_a.shape[0]
    if table_b.shape != (m, m) or sorted(bij.tolist()) != list(range(m)):
        return False
    return bool(np.array_equal(table_b[bij[:, None], bij[None, :]], bij[table_a]))


def _iso_certificate(sg: FiniteSemigroup, name, idx, sub):
    """Explicit bijection onto the claimed target, verified cell by cell.

    The bijections are rank arithmetic.  A constant xi_alpha ranks as the
    code of alpha, the zero map as 0.  A singleton src -> dst (at n=1, the
    1-support column map) ranks as n^2 + 1 + (src-1)n^2 + (dst-1), with src
    and dst as pair codes, so its rank minus n^2 is its index in the
    0-direct union and its pair code in B_{n^2}.
    """
    n = sg.n
    ranks = maps.member_ranks([sg.elements[i] for i in idx], n)
    singleton_bij = np.where(ranks == 0, 0, ranks - n * n)
    if name == "constants" and sg.label == "additive":
        return f"B_{n}", check_iso(sub, brandt.add_table(n), ranks)
    if name == "singleton-ideal" and sg.label == "additive":
        return (f"0-direct union of {n * n} copies of B_{n}",
                check_iso(sub, zero_direct_union_table(n * n, n), singleton_bij))
    if name == "singleton-ideal" and sg.label == "multiplicative":
        return f"B_{n * n}", check_iso(sub, brandt.add_table(n * n), singleton_bij)
    return None, None


def _one_inverse_each(packed: np.ndarray, m: int) -> bool:
    """Has every x exactly one inverse y, A[x, y] and A[y, x], given A as
    bit-packed rows?  Checked a row block xs at a time, against the
    columns A[:, xs] unpacked from the bytes that hold them."""
    for xs in maps.row_blocks(np.arange(m), m):
        lo = xs[0] - xs[0] % 8  # the bytes holding A[:, xs] start at bit lo
        cols = np.unpackbits(packed[:, lo // 8:xs[-1] // 8 + 1], axis=1)[:, xs - lo]
        both = np.unpackbits(packed[xs], axis=1, count=m) & cols.T
        if (np.count_nonzero(both, axis=1) != 1).any():
            return False
    return True


def structural_checks(sg: FiniteSemigroup, subset: str) -> SubsetReport:
    """Closure, regularity, inverse/orthodox verdicts, and the isomorphism
    certificate (when one is claimed) for a named subset of one reduct.
    Its A[x, y] = (x y x == x) is kept bit-packed, m^2/8 bytes, like `ideals`."""
    idx = subset_indices(sg, subset)
    sub, closed = _restrict(sg, idx)
    if not closed:
        return SubsetReport(subset, sg.label, len(idx), False,
                            False, False, False, False)
    m = len(idx)
    packed = np.empty((m, (m + 7) // 8), dtype=np.uint8)
    for xs, a in _xyx_rows(sub):
        packed[xs] = np.packbits(a, axis=1)
    regular = bool(packed.any(axis=1).all())
    inverse = regular and _one_inverse_each(packed, m)
    idem = np.flatnonzero(idempotents(sub))
    ef = sub[np.ix_(idem, idem)]  # products of idempotent pairs
    commute = bool(np.array_equal(ef, ef.T))
    orthodox = regular and bool(np.all(sub[ef, ef] == ef))
    iso_target, iso_holds = _iso_certificate(sg, subset, idx, sub)
    return SubsetReport(subset, sg.label, len(idx), True, regular,
                        commute, inverse, orthodox, iso_target, iso_holds)
