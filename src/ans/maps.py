"""Function tables on B_n and the canonical element index.

An FMap is a tuple of length n^2+1 sending element codes to element codes;
position x holds the image of x, so evaluation is indexing and the argument
stands on the left: x(f o g) = (xf)g and x(f + g) = xf + xg.

The additive closure of the affine maps contains exactly four table shapes.
`fields` gives each element's shape code and three integer fields a, b, c:

    0  zero         the zero constant map xi_theta
    1  constant     xi_(a,b) for a nonzero pair (a,b) (full support)
    2  singleton    a -> (b,c), a a pair code, everything else -> theta
    3  column map   (a,b;sigma), sigma the c-th permutation in lexicographic
                    order: support is column a and (i,a) -> (i sigma, b)

Canonical text tokens (used in JSON exports and egg-box cells):
"xi_theta", "xi(i,j)", "<(k,l)->(p,q)>", "(k,q;[sigma])".  One table per
n spells every element (`tokens`).

At n=1 the unique 1-support closure element fits both the singleton and
the column-map shape; it is the column map (1,1;[1]), so no singleton
occurs at n=1.

Every shape question goes through one element index, the position in
canonical order, which also indexes every Cayley table.  `rank` (checked:
`member_ranks`) is the one encoder of a table as its index, and `fields`
the one decoder, both by arithmetic; `canonical_tables` and `tokens` are
read off `fields`.  `product_tables` builds every pointwise sum or
composite of two row sets, and `products` ranks them.  `index_permutations`
gives conjugation by S_n on positions, `orbit_labels` its orbits, and
`sn_action` the group with a transversal, by which `closure.Table` reads
every cell.  The tests check `rank` and `fields` against a case-by-case
classifier of their own.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from ._numpy import np
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


def constant_map(alpha, n):
    """xi_alpha: every argument goes to alpha."""
    brandt.unpair(alpha, n)
    return (alpha,) * brandt.size(n)


def zero_map(n):
    return constant_map(THETA, n)


def compose(f, g):
    """x(f o g) = (xf)g: apply f first, then g."""
    if len(f) != len(g):
        raise ValueError(f"table size mismatch: {len(f)} vs {len(g)}")
    map_n(f)
    return tuple(g[v] for v in f)


def support_sizes(rows) -> np.ndarray:
    """Support size of each table row (an N x (n^2+1) array or list of tables)."""
    return np.count_nonzero(np.asarray(rows) != THETA, axis=1)


def proj1(code, n):
    """First coordinate of a nonzero element code."""
    p = brandt.unpair(code, n)
    if p is None:
        raise ValueError("theta has no projections")
    return p[0]


# --- the rank: canonical index by arithmetic -----------------------------------

# Cells built at a time by every row-block scan (`row_blocks`): 256 KiB for
# each intp temporary, the widest array a `closure.Table` read makes.  Twice
# this raised `ans verify --n 1..4`'s peak RSS by 0.8 MB without making the
# scans faster.
_BLOCK_CELLS = 1 << 15


def row_blocks(rows, width):
    """Consecutive slices of `rows` (an array or a range), each of about
    _BLOCK_CELLS cells when every row spans `width` cells."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    return (rows[lo:lo + step] for lo in range(0, len(rows), step))


def least_labels(maps_, m) -> np.ndarray:
    """Each index's least class-mate under the equivalence on range(m) that
    i ~ f[i] generates, for every index array f in `maps_`.  Rounds of push
    (label[f[i]] takes label[i] if less) and pull (label[i] takes
    label[f[i]] if less) run until one changes nothing."""
    label = np.arange(m)
    while True:
        before = label.copy()
        for f in maps_:
            np.minimum.at(label, f, label)
            label = np.minimum(label, label[f])
        if np.array_equal(label, before):
            return label


@lru_cache(maxsize=None)
def fields(n) -> np.ndarray:
    """The inverse of `rank`, by arithmetic on the index layout: row x is
    (shape, a, b, c) of canonical index x, as a read-only int32 array (see
    the module docstring).  Each shape's block counts its fields as digits
    of radix (n, n, 1) for a constant, (n^2, n, n) for a singleton and
    (n, n, n!) for a column map, c the least significant."""
    nn, f = n * n, math.factorial(n)
    starts = np.cumsum([0, 1, nn, nn * nn if n >= 2 else 0])  # each shape's first index
    x = np.arange(starts[-1] + nn * f)
    shape = np.searchsorted(starts, x, side="right") - 1
    radix = np.array([(1, 1, 1), (n, n, 1), (nn, n, n), (n, n, f)])[shape]
    out = np.empty((len(x), 4), dtype=np.int32)
    out[:, 0], t = shape, x - starts[shape]
    for col in (3, 2, 1):
        t, out[:, col] = np.divmod(t, radix[:, col - 1])
    out[:, 1:] += np.array([(0, 0, 0), (1, 1, 0), (1, 1, 1), (1, 1, 0)])[shape]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def canonical_tables(n) -> np.ndarray:
    """The table of each canonical index, one row each, scattered from
    `fields`, as a read-only uint8 array."""
    shape, a, b, c = fields(n).T
    const, single, col = (np.flatnonzero(shape == s) for s in (1, 2, 3))
    t = np.zeros((len(shape), n * n + 1), dtype=np.uint8)
    t[const] = ((a[const] - 1) * n + b[const])[:, None]  # every point -> (a,b)
    t[single, a[single]] = (b[single] - 1) * n + c[single]  # a -> (b,c)
    sigma = np.array(brandt.enumerate_sn(n))[c[col]]  # (i,a) -> (i sigma, b)
    t[col[:, None], np.arange(n) * n + a[col, None]] = (sigma - 1) * n + b[col, None]
    t.setflags(write=False)
    return t


@lru_cache(maxsize=None)
def _perm_ranks(n) -> np.ndarray:
    """Lexicographic rank of each permutation, indexed by its 0-based
    images read as a base-n number; non-permutations get 0."""
    lut = np.zeros(n ** n, dtype=np.int32)
    for r, sigma in enumerate(brandt.enumerate_sn(n)):
        lut[sum((s - 1) * n ** (n - 1 - i) for i, s in enumerate(sigma))] = r
    lut.setflags(write=False)
    return lut


def rank(rows, n) -> np.ndarray:
    """Canonical index of each table row (an N x (n^2+1) integer array), by
    int32 arithmetic on the shape counts: 0 for the zero map, the pair code
    for a constant, 1 + n^2 + (src-1)n^2 + (dst-1) for a singleton, and
    offset + ((k-1)n + (q-1))n! + rank(sigma) for a column map (also the
    n=1 one-support element).  Membership is checked by re-rendering: a row
    that is not canonical_tables(n)[index] is outside the shapes: -1."""
    E = canonical_tables(n)
    rows = np.asarray(rows)
    w = n * n + 1
    if rows.ndim != 2 or rows.shape[1] != w:
        raise ValueError(f"expected rows of length {w}, got shape {rows.shape}")
    nz = rows != THETA
    support = nz.sum(axis=1, dtype=np.uint8)
    at = nz.argmax(axis=1) + np.arange(0, rows.size, w)  # the least support point, (1, k) ...
    del nz                                               # ... on a column map, as a flat offset
    first, image = (at % w).astype(np.int32), rows.take(at).astype(np.int32)
    proj1 = np.maximum((np.arange(w, dtype=np.int32) - 1) // n, 0)
    sigma = np.zeros(len(rows), dtype=np.int32)          # sigma - 1 read in base n
    for i in range(n):                                   # the point (i+1, k), n i codes on
        sigma = sigma * n + proj1.take(rows.take(at + n * i, mode="clip"), mode="clip")
    col = (((first - 1) % n * n + (image - 1) % n) * math.factorial(n)
           + _perm_ranks(n).take(sigma, mode="clip") + 1 + n * n + (n ** 4 if n >= 2 else 0))
    r = np.where(support == n, col, np.where(support == 1, first * n * n + image, rows[:, 0]))
    return np.where((E.take(r.clip(0, len(E) - 1), axis=0) == rows).all(axis=1), r, -1)


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


def inverse(P) -> np.ndarray:
    """The inverse of a permutation array P of range(len(P)), by scatter."""
    out = np.empty(len(P), dtype=np.intp)
    out[P] = np.arange(len(P))
    return out


@lru_cache(maxsize=None)
def index_permutations(n) -> tuple:
    """Conjugation by Aut(B_n) ≅ S_n as permutations of canonical indices:
    for each generator pi of `brandt.sn_generators(n)`, entry r is the rank
    of phi^-1 f phi, f the r-th canonical table and phi = phi_pi, which
    sends (i,j) to (i pi, j pi) (`brandt.automorphism`).  These are
    near-semiring automorphisms: t[P[f], P[g]] = P[t[f, g]] in both tables.
    Read-only uint16 bijections, for an n whose 1 + n^2 + n^4 + n^2 n!
    elements fit uint16."""
    size = 1 + n * n + n ** 4 + n * n * math.factorial(n)
    if size > 1 << 16:  # the cast would wrap larger ranks onto smaller ones
        raise ValueError(f"n={n} gives {size:,} elements, beyond the 65,536 indices of "
                         "uint16 ranks")
    E = canonical_tables(n)
    out = []
    for pi in brandt.sn_generators(n):
        phi = brandt.automorphism(pi, n)
        P = member_ranks(phi[E[:, inverse(phi)]], n).astype(np.uint16)
        if not np.all(np.bincount(P, minlength=len(E)) == 1):
            raise AssertionError(f"conjugation by phi{brandt.perm_str(pi)} "
                                 "does not permute the canonical family")
        P.setflags(write=False)
        out.append(P)
    return tuple(out)


@lru_cache(maxsize=None)
def orbit_labels(n) -> np.ndarray:
    """Each canonical index's least orbit-mate under conjugation by S_n
    (`index_permutations`), as a read-only array."""
    label = least_labels(index_permutations(n), len(canonical_tables(n)))
    label.setflags(write=False)
    return label


@dataclass(frozen=True, eq=False)
class Action:
    """A group of permutations of range(m), row 0 the identity and row
    inverse[h] row h's inverse, with a transversal: x is group[g[x]] applied
    to labels[x], its least orbit-mate; reps are the labels' fixed points."""
    group: np.ndarray
    inverse: np.ndarray
    reps: np.ndarray
    labels: np.ndarray
    g: np.ndarray


def trivial_action(m) -> Action:
    """The group {id} on range(m): every index is its own representative."""
    every = np.arange(m)
    return Action(every[None].astype(np.uint16), np.zeros(1, int), every, every, np.zeros(m, int))


@lru_cache(maxsize=None)
def sn_action(n) -> Action:
    """S_n on canonical indices: the n! compositions of `index_permutations`,
    read-only uint16 rows found breadth first (keyed by the zero and constant
    maps' images, then compared whole), and as x's transversal element the
    first row carrying its `orbit_labels` label to x; refused unless so."""
    gens, labels, order = index_permutations(n), orbit_labels(n), math.factorial(n)
    key = lambda row: row[:n * n + 1].astype(np.uint16).tobytes()
    group, size = np.empty((order, len(labels)), dtype=np.uint16), 1
    group[0] = every = np.arange(len(labels))
    found = {key(every): 0}
    for h in range(order):  # rows are appended as they are read
        for new in (P[group[h]] for P in gens if h < size):
            k = found.setdefault(key(new), size)
            if k == size < order:
                group[k], size = new, size + 1
            elif k == size or not np.array_equal(group[k], new):  # past n!, or not S_n's rows
                size = -1  # refused below
    reps, g = np.flatnonzero(labels == every), np.full(len(labels), -1)
    for h in range(size - 1, -1, -1):  # descending: the first row wins
        g[group[h, reps]] = h
    if size != order or not np.array_equal(group[g, labels], every):
        raise AssertionError(f"the index permutations do not generate S_{n} with the orbits "
                             "of `orbit_labels`")
    group.setflags(write=False)  # a finite set closed under the generators holds inverses
    return Action(group, np.array([found[key(inverse(row))] for row in group]), reps, labels, g)


def product_tables(F, G, op, n):
    """Tables of F[i] + G[j] (op "+") or F[i] o G[j] (op "o"), every i and j.

    Yields `(lo, cells)` for consecutive `row_blocks` of F's rows, where
    cells[i, j] is the table of the product of F[lo + i] and G[j].  Each
    row of F is built alone, as G's columns or from uint8 lookups of G's
    cells, so no index grows with the block or outgrows a row of G.
    """
    E = canonical_tables(n)
    F, G = (np.asarray(a, dtype=E.dtype) for a in (F, G))
    w = E.shape[1]
    if op == "+":    # x(f+g) = xf + xg, by `brandt.add_lookups`
        right, left, base, tail = (t.astype(E.dtype) for t in brandt.add_lookups(n))
        g_left, g_tail = left[G], tail[G]

        def gather(f, out):
            np.add(g_tail, base[f], out=out)
            np.multiply(out, g_left == right[f], out=out)
    elif op == "o":  # x(f o g) = (xf)g: column xf of G
        def gather(f, out):  # codes index in range: "clip" writes `out` unbuffered
            G.take(f, axis=1, out=out, mode="clip")
    else:
        raise ValueError(f"unknown product {op!r}; expected '+' or 'o'")
    for block in row_blocks(range(len(F)), len(G) * w):
        cells = np.empty((len(block), len(G), w), dtype=E.dtype)
        for f, out in zip(F[block.start:block.stop], cells):
            gather(f, out)
        yield block.start, cells


def products(F, G, op, n):
    """Ranks of F[i] + G[j] (op "+") or F[i] o G[j] (op "o"), every i and j:
    `(lo, ranks)` per block of `product_tables`, ranks[i, j] the `rank` of
    cells[i, j] (-1 outside the four shapes)."""
    for lo, cells in product_tables(F, G, op, n):
        yield lo, rank(cells.reshape(-1, cells.shape[2]), n).reshape(cells.shape[:2])


# --- text forms --------------------------------------------------------------

@lru_cache(maxsize=None)
def _token_table(n) -> tuple:
    """The token of each canonical index, formatted from `fields`."""
    sigma = [brandt.perm_str(p) for p in brandt.enumerate_sn(n)]

    def token(shape, a, b, c):
        if shape == 0:
            return "xi_theta"
        if shape == 1:
            return f"xi({a},{b})"
        if shape == 2:
            return f"<({(a - 1) // n + 1},{(a - 1) % n + 1})->({b},{c})>"
        return f"({a},{b};{sigma[c]})"
    return tuple(token(*row) for row in fields(n).tolist())


def tokens(ranks, n) -> list:
    """Canonical token of each canonical index."""
    table = _token_table(n)
    return [table[r] for r in ranks]


def map_str(f) -> str:
    """Canonical token of a closure-member table."""
    return tokens(member_ranks([f], map_n(f)), map_n(f))[0]
