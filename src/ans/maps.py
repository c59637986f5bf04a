"""Function tables on B_n and the canonical-form algebra.

An FMap is a tuple of length n^2+1 sending element codes to element codes;
position x holds the image of x, so evaluation is indexing and the argument
stands on the left: x(f o g) = (xf)g and x(f + g) = xf + xg.

The additive closure of the affine maps contains exactly four table shapes,
captured by the canonical forms:

    Zero                   the zero constant map xi_theta
    Constant(alpha)        xi_alpha for a nonzero pair alpha (full support)
    Singleton(src, dst)    src -> dst, everything else -> theta
    NSupport(k, q, sigma)  support is column k and (i,k) -> (i sigma, q)

Canonical text tokens (used in JSON exports and egg-box cells):
"xi_theta", "xi(i,j)", "<(k,l)->(p,q)>", "(k,q;[sigma])".

At n=1 the unique 1-support closure element fits both the Singleton and the
NSupport shape; it is NSupport(1, 1, id), so Singleton never occurs at n=1.

Every runtime shape question goes through one element index: `rank` (and
its checked form `member_ranks`) gives a table's position in canonical
order by arithmetic, `forms` reads canonical forms off those positions, and
`products` ranks every pointwise sum or composite of two row sets.
`index_permutations` gives conjugation by S_n on those positions.
`classify` decides the shape a second, independent way, case by case; it
is kept as the reference that `rank` is tested against.
"""

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from . import brandt
from .brandt import THETA


class NotAffineElement(ValueError):
    """Raised on a table outside the four closure shapes."""


def map_n(f):
    """Recover n from the table length n^2 + 1."""
    n = math.isqrt(len(f) - 1)
    if n < 1 or n * n + 1 != len(f):
        raise ValueError(f"table length {len(f)} is not n^2+1 for any n >= 1")
    return n


def _same_n(f, g):
    if len(f) != len(g):
        raise ValueError(f"table size mismatch: {len(f)} vs {len(g)}")
    return map_n(f)


def constant_map(alpha, n):
    """xi_alpha: every argument goes to alpha."""
    brandt.unpair(alpha, n)
    return (alpha,) * brandt.size(n)


def zero_map(n):
    return constant_map(THETA, n)


def evaluate(f, alpha):
    """Table lookup; the argument is written on the left."""
    n = map_n(f)
    brandt.unpair(alpha, n)
    return f[alpha]


def pointwise_add(f, g):
    """x(f+g) = xf + xg in B_n."""
    n = _same_n(f, g)
    t = brandt.add_table(n)
    return tuple(int(v) for v in t[list(f), list(g)])


def compose(f, g):
    """x(f o g) = (xf)g: apply f first, then g."""
    _same_n(f, g)
    return tuple(g[v] for v in f)


def support(f):
    """Arguments with nonzero image."""
    return frozenset(x for x, v in enumerate(f) if v != THETA)


def support_sizes(rows) -> np.ndarray:
    """Support size of each table row (an N x (n^2+1) array or list of tables)."""
    return np.count_nonzero(np.asarray(rows) != THETA, axis=1)


def proj1(code, n):
    """First coordinate of a nonzero element code."""
    p = brandt.unpair(code, n)
    if p is None:
        raise ValueError("theta has no projections")
    return p[0]


def proj2(code, n):
    p = brandt.unpair(code, n)
    if p is None:
        raise ValueError("theta has no projections")
    return p[1]


def image_invariant(f) -> Optional[int]:
    """The common second coordinate q of all nonzero images, if one exists.

    Returns None when the image is {theta} or when no single q works.
    """
    n = map_n(f)
    qs = {proj2(v, n) for v in f if v != THETA}
    if len(qs) == 1:
        return qs.pop()
    return None


# --- canonical forms --------------------------------------------------------

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


CanonicalElem = Union[Zero, Constant, Singleton, NSupport]


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


def check_canonical(c, n):
    """Validate a canonical form against an ambient n."""
    if isinstance(c, Zero):
        return c
    if isinstance(c, Constant):
        brandt.pair(*c.alpha, n)
        return c
    if isinstance(c, Singleton):
        if n == 1:
            raise ValueError("Singleton shape does not occur at n=1")
        brandt.pair(*c.src, n)
        brandt.pair(*c.dst, n)
        return c
    if isinstance(c, NSupport):
        if len(c.sigma) != n:
            raise ValueError(f"permutation length {len(c.sigma)} != n={n}")
        brandt.check_perm(c.sigma)
        if not (1 <= c.k <= n and 1 <= c.q <= n):
            raise ValueError(f"(k,q)=({c.k},{c.q}) out of range for n={n}")
        return c
    raise TypeError(f"not a canonical element: {c!r}")


def classify(f) -> CanonicalElem:
    """Canonical form of a closure-member table, decided case by case.

    Raises NotAffineElement for any table outside the four shapes; such
    tables are provably not in the additive closure of the affine maps.
    This is the reference for `rank` and `forms`, which the runtime uses.
    """
    n = map_n(f)
    supp = sorted(support(f))
    k = len(supp)
    if k == 0:
        return Zero()
    vals = set(f)
    if len(vals) == 1:
        v = f[0]
        if v != THETA and k == n * n + 1:
            return Constant(brandt.unpair(v, n))
    if THETA in support(f) or k == n * n + 1:
        # full support that is not constant, or theta in a partial support
        raise NotAffineElement(f"support of size {k} does not match any closure shape")
    if k == n:
        cols = {brandt.unpair(x, n)[1] for x in supp}
        qs = {proj2(f[x], n) for x in supp}
        if len(cols) == 1 and len(qs) == 1:
            kcol, q = cols.pop(), qs.pop()
            sigma = tuple(proj1(f[brandt.pair(i, kcol, n)], n) for i in range(1, n + 1))
            if sorted(sigma) == list(range(1, n + 1)):
                return NSupport(kcol, q, sigma)
        if k != 1:
            raise NotAffineElement("n-support table is not a column map")
    if k == 1:
        src = supp[0]
        return Singleton(brandt.unpair(src, n), brandt.unpair(f[src], n))
    raise NotAffineElement(f"support of size {k} does not match any closure shape")


def render(c: CanonicalElem, n) -> tuple:
    """Build the table of a canonical form."""
    check_canonical(c, n)
    if isinstance(c, Zero):
        return zero_map(n)
    if isinstance(c, Constant):
        return constant_map(brandt.pair(*c.alpha, n), n)
    if isinstance(c, Singleton):
        t = [THETA] * brandt.size(n)
        t[brandt.pair(*c.src, n)] = brandt.pair(*c.dst, n)
        return tuple(t)
    t = [THETA] * brandt.size(n)
    for i in range(1, n + 1):
        t[brandt.pair(i, c.k, n)] = brandt.pair(c.sigma[i - 1], c.q, n)
    return tuple(t)


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


# --- the rank: canonical index by arithmetic -----------------------------------

# Cells built at a time by every row-block scan (`row_blocks`); bigger
# blocks raise peak memory without making the scans faster.
_BLOCK_CELLS = 1 << 16


def row_blocks(rows, width):
    """Consecutive slices of `rows` (an array or a range), each of about
    _BLOCK_CELLS cells when every row spans `width` cells."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    return (rows[lo:lo + step] for lo in range(0, len(rows), step))


@lru_cache(maxsize=None)
def canonical_tables(n) -> np.ndarray:
    """Tables of all_canonical(n), one row each, as a read-only uint8 array."""
    t = np.array([render(c, n) for c in all_canonical(n)], dtype=np.uint8)
    t.setflags(write=False)
    return t


@lru_cache(maxsize=None)
def _perm_ranks(n) -> np.ndarray:
    """Lexicographic rank of each permutation, indexed by its 0-based
    images read as a base-n number; non-permutations get 0."""
    lut = np.zeros(n ** n, dtype=np.int64)
    for r, sigma in enumerate(brandt.enumerate_sn(n)):
        lut[sum((s - 1) * n ** (n - 1 - i) for i, s in enumerate(sigma))] = r
    lut.setflags(write=False)
    return lut


def rank(rows, n) -> np.ndarray:
    """Canonical index of each table row (an N x (n^2+1) integer array).

    The index is arithmetic on the shape counts: 0 for the zero map, the
    pair code for a constant, 1 + n^2 + (src-1)n^2 + (dst-1) for a
    singleton, and offset + ((k-1)n + (q-1))n! + rank(sigma) for a column
    map (which is also how the n=1 one-support element ranks).  Membership
    is checked by re-rendering: a row that is not canonical_tables(n)[index]
    is outside the four shapes and gets -1.
    """
    E = canonical_tables(n)
    rows = np.asarray(rows)
    w = n * n + 1
    if rows.ndim != 2 or rows.shape[1] != w:
        raise ValueError(f"expected rows of length {w}, got shape {rows.shape}")
    base = np.arange(len(rows)) * w                # flat offset of each row
    nz = rows != THETA
    support = nz.sum(axis=1, dtype=np.uint8)
    first = nz.argmax(axis=1)                      # least support point
    image = np.take(rows, base + first).astype(np.int64)
    single = 1 + n * n + (first - 1) * n * n + (image - 1)
    k0, q0 = (first - 1) % n, (image - 1) % n      # column and q, 0-based
    proj1 = np.maximum((np.arange(w) - 1) // n, 0)
    sigma = np.zeros(len(rows), dtype=np.int64)    # sigma - 1 read in base n
    for i in range(n):                             # the point (i+1, k)
        sigma = sigma * n + proj1[np.clip(np.take(rows, base + k0 + 1 + n * i), 0, n * n)]
    offset = 1 + n * n + (n ** 4 if n >= 2 else 0)
    col = offset + (k0 * n + q0) * math.factorial(n) + _perm_ranks(n)[sigma]
    r = np.where(support == n, col, np.where(support == 1, single, rows[:, 0]))
    r = np.clip(r, 0, len(E) - 1)
    return np.where((np.take(E, r, axis=0) == rows).all(axis=1), r, -1)


def member_ranks(rows, n) -> np.ndarray:
    """Ranks of table rows that must be closure elements; a row outside the
    four shapes raises NotAffineElement naming it."""
    rows = np.asarray(rows)
    r = rank(rows, n)
    bad = np.flatnonzero(r < 0)
    if bad.size:
        witness = tuple(int(v) for v in rows[bad[0]])
        raise NotAffineElement(f"table {witness} is outside the four closure shapes")
    return r


@lru_cache(maxsize=None)
def index_permutations(n) -> tuple:
    """Conjugation by Aut(B_n) ≅ S_n as permutations of canonical indices.

    For each generator pi of `brandt.sn_generators(n)`, entry r is the rank
    of phi^-1 f phi, where f is the r-th canonical table and phi = phi_pi
    sends (i,j) to (i pi, j pi).  Conjugation preserves + and o, so these
    are near-semiring automorphisms: t[P[f], P[g]] = P[t[f, g]] in both
    Cayley tables.  Read-only uint16 arrays, each checked to be a bijection.
    """
    E = canonical_tables(n)
    out = []
    for pi in brandt.sn_generators(n):
        p = np.array(pi) - 1                               # pi on 0-based points
        phi = np.zeros(E.shape[1], dtype=E.dtype)          # theta stays theta
        phi[1:] = (p[:, None] * n + p + 1).ravel()         # (i,j) -> (i pi, j pi)
        P = member_ranks(phi[E[:, np.argsort(phi)]], n).astype(np.uint16)
        if not np.array_equal(np.sort(P), np.arange(len(E))):
            raise AssertionError(f"conjugation by phi{brandt.perm_str(pi)} "
                                 "does not permute the canonical family")
        P.setflags(write=False)
        out.append(P)
    return tuple(out)


def forms(rows, n) -> list:
    """Canonical form of each closure-member table row, read off its rank."""
    family = all_canonical(n)
    return [family[r] for r in member_ranks(rows, n).tolist()]


def products(F, G, op, n):
    """Ranks of F[i] + G[j] (op "+") or F[i] o G[j] (op "o"), every i and j.

    Yields `(lo, ranks)` for consecutive blocks of F's rows, where
    ranks[i, j] is the `rank` of the product of F[lo + i] and G[j] (-1
    outside the four shapes).  Blocks come from `row_blocks`, so memory
    stays flat however many rows F has.
    """
    E = canonical_tables(n)
    F, G = np.asarray(F), np.asarray(G)
    w = E.shape[1]
    if op == "+":    # x(f+g) = xf + xg, at flat index xf * w + xg of the B_n table
        flat, left, right = brandt.add_table(n).astype(E.dtype).ravel(), F.astype(np.intp) * w, G
    elif op == "o":  # x(f o g) = (xf)g, at flat index g * w + xf of G
        flat, left, right = G.ravel(), F, np.arange(len(G))[:, None] * w
    else:
        raise ValueError(f"unknown product {op!r}; expected '+' or 'o'")
    for block in row_blocks(range(len(F)), len(G) * w):
        cells = flat.take(left[block.start:block.stop, None, :] + right)
        yield block.start, rank(cells.reshape(-1, w), n).reshape(cells.shape[:2])


# --- text forms --------------------------------------------------------------

_CONST_RE = re.compile(r"^xi\((\d+),(\d+)\)$")
_SINGLE_RE = re.compile(r"^<\((\d+),(\d+)\)->\((\d+),(\d+)\)>$")
_NSUPP_RE = re.compile(r"^\((\d+),(\d+);(\[[\d,]*\])\)$")


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


def parse_canonical(s, n) -> CanonicalElem:
    s = s.strip()
    if s == "xi_theta":
        return Zero()
    m = _CONST_RE.match(s)
    if m:
        return check_canonical(Constant((int(m.group(1)), int(m.group(2)))), n)
    m = _SINGLE_RE.match(s)
    if m:
        k, l, p, q = (int(g) for g in m.groups())
        return check_canonical(Singleton((k, l), (p, q)), n)
    m = _NSUPP_RE.match(s)
    if m:
        sigma = brandt.parse_perm(m.group(3))
        return check_canonical(NSupport(int(m.group(1)), int(m.group(2)), sigma), n)
    raise ValueError(f"not a canonical element token: {s!r}")


def map_str(f) -> str:
    """Canonical token of a closure-member table."""
    return canonical_str(forms([f], map_n(f))[0])
