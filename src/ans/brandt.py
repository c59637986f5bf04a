"""The Brandt semigroup B_n plus a small symmetric-group toolkit.

B_n is ([n] x [n]) u {theta} with

    (i,j) + (k,l) = (i,l)  if j = k,   theta otherwise,

and theta a two-sided zero.  Elements are packed into integer codes so that
Cayley tables are plain integer arrays: code 0 is theta and (i,j) becomes
(i-1)*n + j.  The code order (theta first, then pairs lexicographically) is
the canonical element order used everywhere downstream.

Permutations on [n] are tuples in one-line notation with 1-based images:
sigma = (2, 1) sends 1 -> 2 and 2 -> 1.  They serialize as JSON arrays.
"""

from functools import lru_cache
from itertools import permutations

from ._numpy import np

THETA = 0


def _check_n(n):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def size(n):
    """Number of elements of B_n (n^2 pairs plus theta)."""
    _check_n(n)
    return n * n + 1


def pair(i, j, n):
    """Integer code of the pair (i, j); indices are 1-based."""
    _check_n(n)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"pair ({i},{j}) out of range for n={n}")
    return (i - 1) * n + j


def unpair(code, n):
    """Pair (i, j) for a nonzero code, or None for theta."""
    if code == THETA:
        return None
    if not (1 <= code <= n * n):
        raise ValueError(f"element code {code} out of range for n={n}")
    return ((code - 1) // n + 1, (code - 1) % n + 1)


def elements(n):
    """All element codes of B_n in canonical order (theta first)."""
    return list(range(size(n)))


@lru_cache(maxsize=None)
def add_lookups(n):
    """The operation of B_n as four read-only lookups on codes, `right`,
    `left`, `base` and `tail`: a + b is base[a] + tail[b] where right[a] ==
    left[b], else theta.  For a = (i,j) and b = (k,l), right[a] = j - 1 and
    left[b] = k - 1, and base[a] + tail[b] is the code of (i,l); theta's
    keys, n and n + 1, match no key."""
    code = np.arange(size(n))
    i, j = np.divmod(code - 1, n)  # 0-based pairs of codes 1..n^2
    pair = code > 0
    out = tuple(np.where(pair, x, y).astype(np.int32)
                for x, y in ((j, n), (i, n + 1), (i * n, 0), (j + 1, 0)))
    for t in out:
        t.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def add_table(n):
    """Cayley table of B_n as a read-only (n^2+1) x (n^2+1) array."""
    right, left, base, tail = add_lookups(n)
    t = np.where(right[:, None] == left, base[:, None] + tail, THETA)
    t.setflags(write=False)
    return t


# --- permutations -----------------------------------------------------------

def identity_perm(n):
    _check_n(n)
    return tuple(range(1, n + 1))


def check_perm(p):
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation in one-line notation: {p!r}")
    return tuple(p)


def enumerate_sn(n):
    """All n! permutations of [n], lexicographic by one-line notation."""
    _check_n(n)
    return list(permutations(range(1, n + 1)))


def sn_generators(n):
    """A generating set of S_n: the transposition (1 2) and the n-cycle
    (1 2 ... n), which coincide at n = 2; S_1 needs none."""
    _check_n(n)
    if n == 1:
        return ()
    transposition = (2, 1) + tuple(range(3, n + 1))
    cycle = tuple(range(2, n + 1)) + (1,)
    return (transposition,) if n == 2 else (transposition, cycle)


def automorphism(sigma, n):
    """phi_sigma as a code array: (i,j) -> (i sigma, j sigma), theta -> theta."""
    p = np.array(check_perm(sigma)) - 1  # sigma on 0-based points
    if len(p) != n:
        raise ValueError(f"permutation length {len(p)} != n={n}")
    phi = np.zeros(size(n), dtype=np.int32)
    phi[1:] = (p[:, None] * n + p + 1).ravel()
    return phi


def perm_compose(p, q):
    """Left-action composition: i(pq) = (ip)q."""
    if len(p) != len(q):
        raise ValueError(f"permutation size mismatch: {len(p)} vs {len(q)}")
    return tuple(q[p[i] - 1] for i in range(len(p)))


def perm_str(p):
    """One-line notation as a JSON integer array, e.g. [2,1]."""
    return "[" + ",".join(str(i) for i in p) + "]"
