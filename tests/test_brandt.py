import json
import re

import numpy as np
import pytest

from ans import brandt
import oracles


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_addition_associative_exhaustive(n):
    t = brandt.add_table(n)
    m = brandt.size(n)
    for a in range(m):
        assert np.array_equal(t[t[a], :], t[a][t]), f"associativity fails at a={a}"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_is_absorbing(n):
    t = brandt.add_table(n)
    assert (t[brandt.THETA, :] == brandt.THETA).all()
    assert (t[:, brandt.THETA] == brandt.THETA).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_automorphism_moves_each_pair_by_sigma(n):
    for sigma in brandt.enumerate_sn(n):
        phi = brandt.automorphism(sigma, n)
        assert phi[brandt.THETA] == brandt.THETA and len(phi) == brandt.size(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert phi[brandt.pair(i, j, n)] == brandt.pair(sigma[i - 1], sigma[j - 1], n)


def test_automorphism_refuses_a_permutation_of_another_length():
    with pytest.raises(ValueError, match=re.escape("permutation length 2 != n=3")):
        brandt.automorphism((2, 1), 3)
    with pytest.raises(ValueError, match="not a permutation"):
        brandt.automorphism((1, 1), 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_add_matches_definition(n):
    for a in brandt.elements(n):
        for b in brandt.elements(n):
            pa, pb = brandt.unpair(a, n), brandt.unpair(b, n)
            if pa is None or pb is None:
                expected = brandt.THETA
            elif pa[1] == pb[0]:
                expected = brandt.pair(pa[0], pb[1], n)
            else:
                expected = brandt.THETA
            assert oracles.add(a, b, n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_add_table_matches_add_cell_by_cell(n):
    t = brandt.add_table(n)
    assert t.dtype == np.int32 and t.shape == (brandt.size(n),) * 2
    for a in brandt.elements(n):
        for b in brandt.elements(n):
            assert t[a, b] == oracles.add(a, b, n), f"cell ({a},{b})"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_idempotents_match_fixed_point_scan(n):
    t = brandt.add_table(n)
    scan = {x for x in brandt.elements(n) if t[x, x] == x}
    assert set(oracles.idempotents(n)) == scan
    assert len(scan) == n + 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_unpair_round_trip(n):
    seen = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            code = brandt.pair(i, j, n)
            assert 1 <= code <= n * n
            assert brandt.unpair(code, n) == (i, j)
            seen.add(code)
    assert len(seen) == n * n
    assert brandt.unpair(brandt.THETA, n) is None


def test_pair_rejects_out_of_range():
    with pytest.raises(ValueError):
        brandt.pair(0, 1, 2)
    with pytest.raises(ValueError):
        brandt.pair(1, 3, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_sn(n):
    import math
    perms = brandt.enumerate_sn(n)
    assert len(perms) == math.factorial(n)
    assert len(set(perms)) == len(perms)
    for p in perms:
        assert sorted(p) == list(range(1, n + 1))
    assert perms == sorted(perms)  # lexicographic, stable across runs


@pytest.mark.parametrize("n", [3, 4])
def test_perm_compose_associative_and_inverse(n):
    perms = brandt.enumerate_sn(n)
    ident = brandt.identity_perm(n)
    for p in perms:
        q = oracles.perm_inverse(p)
        assert brandt.perm_compose(p, q) == ident
        assert brandt.perm_compose(q, p) == ident
    for p in perms[:6]:
        for q in perms[:6]:
            for r in perms[:6]:
                assert (brandt.perm_compose(brandt.perm_compose(p, q), r)
                        == brandt.perm_compose(p, brandt.perm_compose(q, r)))


def test_perm_compose_is_left_action():
    # i(pq) = (ip)q with images read from the one-line form
    p, q = (2, 3, 1), (1, 3, 2)
    pq = brandt.perm_compose(p, q)
    for i in range(1, 4):
        assert pq[i - 1] == q[p[i - 1] - 1]


def test_perm_str_round_trip():
    for p in brandt.enumerate_sn(3):
        assert tuple(json.loads(brandt.perm_str(p))) == p


def test_check_perm_rejects_bad_input():
    with pytest.raises(ValueError):
        brandt.check_perm((1, 1))
    with pytest.raises(ValueError):
        brandt.check_perm((0, 1))


def test_add_table_is_read_only():
    t = brandt.add_table(2)
    with pytest.raises(ValueError):
        t[0, 0] = 1
