"""Independent reference implementations the tests compare `ans` against.

Each one decides a fact a second way, by plain loops or case analysis on
the definitions, and no code in `ans` calls it.  The canonical forms
(`Zero`, `Constant`, `Singleton`, `NSupport`), listed case by case in
canonical order (`all_canonical`), rendered (`render`), spelled
(`canonical_str`) and given their fields (`fields_of`), are the reference
for the arithmetic of `maps.fields`, `maps.canonical_tables` and
`maps.tokens`; `classify`, which decides a table's form case by case, for
`maps.rank`; `brute_force_endomorphisms` for `generators.enumerate_end`,
`add` for `brandt.add_table`, `pointwise_add`, which sums two tables cell
by cell with `add`, for the sums that `maps.products` ranks;
`additive_keys`, `multiplicative_keys` and `related`, the rules as
per-element keys compared pair by pair, for the field rules of
`green.analytic_structure`; `least_mates`, each element's own minimum over
its moved class, for `green._least_mates`; `union_find_labels` for
`maps.least_labels`, and `fill_tables`, which ranks every cell through the
public `maps.products` (itself checked against `pointwise_add`), for the tables
that `closure.additive_closure` ranks for the orbit representatives and
`closure.Table` reads for every other element.  `dense` restates a
closure's tables as whole arrays over the trivial group.  `elements`
renders the element tables that a closure's or reduct's indices stand
for.  `check_iso`, which tests an explicit bijection cell by cell, is the
reference for the isomorphism certificates of `green.subset_report`.
"""
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Tuple

import numpy as np

from ans import brandt, closure, generators, maps
from ans.brandt import THETA, pair, unpair
from ans.maps import NotAffineElement


# --- B_n ----------------------------------------------------------------------

def add(a, b, n):
    """The Brandt operation on codes: (i,j)+(k,l) = (i,l) iff j = k."""
    if a == THETA or b == THETA:
        unpair(a, n), unpair(b, n)  # range check only
        return THETA
    i, j = unpair(a, n)
    k, l = unpair(b, n)
    return pair(i, l, n) if j == k else THETA


def idempotents(n):
    """The set {x : x + x = x}, i.e. theta and the diagonal pairs."""
    return {THETA} | {pair(k, k, n) for k in range(1, n + 1)}


def perm_inverse(p):
    inv = [0] * len(p)
    for i, ip in enumerate(p):
        inv[ip - 1] = i + 1
    return tuple(inv)


# --- maps and canonical forms ---------------------------------------------------

def support(f):
    """Arguments with nonzero image."""
    return frozenset(x for x, v in enumerate(f) if v != THETA)


def pointwise_add(f, g):
    """x(f+g) = xf + xg in B_n."""
    if len(f) != len(g):
        raise ValueError(f"table size mismatch: {len(f)} vs {len(g)}")
    n = maps.map_n(f)
    return tuple(add(a, b, n) for a, b in zip(f, g))


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Constant:
    alpha: Tuple[int, int]


@dataclass(frozen=True)
class Singleton:
    src: Tuple[int, int]
    dst: Tuple[int, int]


@dataclass(frozen=True)
class NSupport:
    k: int
    q: int
    sigma: Tuple[int, ...]


@lru_cache(maxsize=None)
def all_canonical(n) -> tuple:
    """Every closure element of B_n as a canonical form, canonical order."""
    out = [Zero()]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.append(Constant((i, j)))
    if n >= 2:
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                for p in range(1, n + 1):
                    for q in range(1, n + 1):
                        out.append(Singleton((k, l), (p, q)))
    for k in range(1, n + 1):
        for q in range(1, n + 1):
            for sigma in brandt.enumerate_sn(n):
                out.append(NSupport(k, q, sigma))
    return tuple(out)


def render(c, n) -> tuple:
    """Build the table of a canonical form."""
    if isinstance(c, Zero):
        return maps.zero_map(n)
    if isinstance(c, Constant):
        return maps.constant_map(pair(*c.alpha, n), n)
    t = [THETA] * brandt.size(n)
    if isinstance(c, Singleton):
        t[pair(*c.src, n)] = pair(*c.dst, n)
        return tuple(t)
    for i in range(1, n + 1):
        t[pair(i, c.k, n)] = pair(c.sigma[i - 1], c.q, n)
    return tuple(t)


def canonical_str(c) -> str:
    if isinstance(c, Zero):
        return "xi_theta"
    if isinstance(c, Constant):
        return f"xi({c.alpha[0]},{c.alpha[1]})"
    if isinstance(c, Singleton):
        return f"<({c.src[0]},{c.src[1]})->({c.dst[0]},{c.dst[1]})>"
    if isinstance(c, NSupport):
        return f"({c.k},{c.q};{brandt.perm_str(c.sigma)})"
    raise TypeError(f"not a canonical element: {c!r}")


def fields_of(c, n) -> tuple:
    """(shape, a, b, c) of a canonical form, as `maps.fields` numbers them."""
    if isinstance(c, Zero):
        return (0, 0, 0, 0)
    if isinstance(c, Constant):
        return (1,) + c.alpha + (0,)
    if isinstance(c, Singleton):
        return (2, pair(*c.src, n)) + c.dst
    return (3, c.k, c.q, brandt.enumerate_sn(n).index(c.sigma))


def elements(s):
    """Element tables of a closure or reduct `s`: index i stands for the
    i-th canonical form, `all_canonical(s.n)[i]`, rendered."""
    return tuple(render(c, s.n) for c in all_canonical(s.n)[:len(s)])


def fill_tables(n):
    """Both Cayley tables over the canonical family, every cell ranked by
    `maps.products`, raising on a product outside the four shapes, named by
    its first cell (row-major), a sum before a composite."""
    E = maps.canonical_tables(n)
    add_t, mul_t = (np.concatenate([r for _, r in maps.products(E, E, op, n)]) for op in "+o")
    bad = np.argwhere((add_t < 0) | (mul_t < 0))  # row-major
    if bad.size:
        i, j = bad[0]
        kind = "additively" if add_t[i, j] < 0 else "multiplicatively"
        raise AssertionError(f"closure not {kind} closed at ({i},{j})")
    return add_t.astype(closure.TABLE_DTYPE), mul_t.astype(closure.TABLE_DTYPE)


def dense(ns):
    """Both tables of `ns` as whole m x m arrays, copied, in a near-semiring
    over the trivial group, whose scans visit every element."""
    return closure.NearSemiring(ns.n, *(ns.reduct(label).op.dense()
                                        for label in ("additive", "multiplicative")),
                                maps.trivial_action(len(ns)))


def proj2(code, n):
    p = unpair(code, n)
    if p is None:
        raise ValueError("theta has no projections")
    return p[1]


def canonical_key(c):
    """Sort key: Zero, then Constants, then Singletons, then NSupport."""
    if isinstance(c, Zero):
        return (0,)
    if isinstance(c, Constant):
        return (1,) + c.alpha
    if isinstance(c, Singleton):
        return (2,) + c.src + c.dst
    if isinstance(c, NSupport):
        return (3, c.k, c.q) + c.sigma
    raise TypeError(f"not a canonical element: {c!r}")


def classify(f):
    """Canonical form of a closure-member table, decided case by case.

    Raises NotAffineElement for any table outside the four shapes; such
    tables are provably not in the additive closure of the affine maps.
    """
    n = maps.map_n(f)
    supp = sorted(support(f))
    k = len(supp)
    if k == 0:
        return Zero()
    vals = set(f)
    if len(vals) == 1:
        v = f[0]
        if v != THETA and k == n * n + 1:
            return Constant(unpair(v, n))
    if THETA in support(f) or k == n * n + 1:
        # full support that is not constant, or theta in a partial support
        raise NotAffineElement(f"support of size {k} does not match any closure shape")
    if k == n:
        cols = {unpair(x, n)[1] for x in supp}
        qs = {proj2(f[x], n) for x in supp}
        if len(cols) == 1 and len(qs) == 1:
            kcol, q = cols.pop(), qs.pop()
            sigma = tuple(maps.proj1(f[pair(i, kcol, n)], n) for i in range(1, n + 1))
            if sorted(sigma) == list(range(1, n + 1)):
                return NSupport(kcol, q, sigma)
        if k != 1:
            raise NotAffineElement("n-support table is not a column map")
    if k == 1:
        src = supp[0]
        return Singleton(unpair(src, n), unpair(f[src], n))
    raise NotAffineElement(f"support of size {k} does not match any closure shape")


# --- generators -------------------------------------------------------------------

def is_endomorphism(f) -> bool:
    """(a + b)f = af + bf for all a, b in B_n."""
    n = maps.map_n(f)
    t = brandt.add_table(n)
    return all(f[t[a, b]] == t[f[a], f[b]]
               for a in range(len(f)) for b in range(len(f)))


def brute_force_endomorphisms(n):
    """All members of M(B_n) with the homomorphism property, by full scan.

    The scan is N^N tables (N = n^2+1); refuse anything past n=2 where it
    stops being desk-scale.
    """
    if n > 2:
        raise ValueError(f"exhaustive endomorphism scan infeasible for n={n}")
    m = brandt.size(n)
    return [f for f in product(range(m), repeat=m) if is_endomorphism(f)]


def triple_to_map(k, q, sigma, n):
    """The column map with support column k: phi_sigma + xi_(k sigma, q)."""
    brandt.check_perm(sigma)
    const = maps.constant_map(pair(sigma[k - 1], q, n), n)
    return pointwise_add(generators.phi_sigma(sigma, n), const)


# --- Green's relations from the analytic keys -----------------------------------

def additive_keys(c) -> dict:
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


def multiplicative_keys(c) -> dict:
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


# On a finite semigroup J = D, and H = R ∩ L (Clifford & Preston I, §2.1);
# stated here apart from `green`, so the pairwise tests stay an oracle for it.
_COMPARED_KEYS = {"R": ("R",), "L": ("L",), "D": ("D",), "J": ("D",), "H": ("R", "L")}


def related(keys, a, b, rel) -> bool:
    """Are canonical forms a and b rel-related, by `keys` (`additive_keys`
    or `multiplicative_keys`)?"""
    ka, kb = keys(a), keys(b)
    return all(ka[k] == kb[k] for k in _COMPARED_KEYS[rel])


# --- partitions -----------------------------------------------------------------

def least_mates(rows, op):
    """Each element's least class-mate under mutual membership in the ideals
    whose rows[i] is reps[i]'s under `op`'s action, element by element:
    reps[i]'s class is every b in rows[i] whose ideal holds reps[i] (b's
    ideal holds y when r_b's holds G[g_b]^-1 y), and x's least class-mate is
    the least of G[g_x] applied to r_x's class."""
    act = op.action
    group, labels, g = np.asarray(act.group, dtype=np.intp), act.labels.tolist(), act.g.tolist()
    row_of = {r: i for i, r in enumerate(act.reps.tolist())}
    classes = [[b for b in np.flatnonzero(row).tolist()
                if rows[row_of[labels[b]], group[act.inverse[g[b]], a]]]
               for a, row in zip(act.reps.tolist(), rows)]
    return np.array([group[g[x], classes[row_of[labels[x]]]].min() for x in range(len(labels))])


def union_find_labels(maps_, m):
    """Each index's least class-mate under the equivalence on range(m) that
    i ~ f[i] generates, for every f in `maps_`, by union-find: every union
    hangs the larger root under the smaller, so each root is its class's
    least member."""
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for f in maps_:
        for i, j in enumerate(f):
            a, b = find(i), find(int(j))
            parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(m)]


# --- isomorphisms ---------------------------------------------------------------

def check_iso(table_a, table_b, bij) -> bool:
    """Does the bijection carry table_a onto table_b?"""
    bij = np.asarray(bij, dtype=np.int64)
    m = table_a.shape[0]
    if table_b.shape != (m, m) or sorted(bij.tolist()) != list(range(m)):
        return False
    return bool(np.array_equal(table_b[bij[:, None], bij[None, :]], bij[table_a]))
