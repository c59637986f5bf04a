import math

import pytest

from ans import formulas


def test_counts_n2_table():
    ct = formulas.counts(2)
    assert ct.end_count == 5
    assert ct.aut_count == 2
    assert ct.aff_count == 13
    assert ct.a_plus_total == 29
    assert ct.breakup == {"full": 4, "n_support": 8, "singleton": 16, "zero": 1}
    assert ct.additive == {"r": 15, "l": 19, "d": 10, "idempotents": 11, "regular": 21}
    assert ct.multiplicative == {"r": 7, "l": 11, "d": 3, "h": 25, "idempotents": 11}


def test_counts_n3_table():
    ct = formulas.counts(3)
    assert ct.end_count == 10
    assert ct.aut_count == 6
    assert ct.aff_count == 64
    assert ct.a_plus_total == 145
    assert ct.additive["r"] == 49
    assert ct.additive["l"] == 85
    assert ct.additive["d"] == 29
    assert ct.multiplicative == {"r": 13, "l": 22, "d": 3, "h": 100, "idempotents": 22}


def test_counts_n4_table():
    ct = formulas.counts(4)
    assert ct.end_count == 29
    assert ct.aff_count == 401
    assert ct.a_plus_total == 657


def test_counts_n1_degenerate():
    ct = formulas.counts(1)
    assert ct.a_plus_total == 3
    assert ct.breakup == {"full": 1, "n_support": 1, "singleton": 0, "zero": 1}
    assert ct.additive == {"r": 3, "l": 3, "d": 3, "idempotents": 3, "regular": 3}
    assert ct.multiplicative == {"r": 2, "l": 3, "d": 2, "h": 3, "idempotents": 3}


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_forms(n):
    ct = formulas.counts(n)
    fact = math.factorial(n)
    assert ct.end_count == fact + n + 1
    assert ct.aut_count == fact
    assert ct.aff_count == (fact + 1) * n * n + 1
    if n >= 2:
        assert ct.a_plus_total == (fact + 1) * n * n + n ** 4 + 1
        assert ct.additive["r"] == fact * n + n ** 3 + n + 1
        assert ct.additive["l"] == fact * n * n + n ** 3 + n + 1
        assert ct.additive["d"] == fact * n + n * n + 2
        assert ct.additive["idempotents"] == n ** 3 + n + 1
        assert ct.additive["regular"] == n ** 4 + n * n + 1
        assert ct.multiplicative["r"] == n * n + n + 1
        assert ct.multiplicative["l"] == 2 * n * n + n + 1
        assert ct.multiplicative["d"] == 3
        assert ct.multiplicative["h"] == n ** 4 + 2 * n * n + 1
        assert ct.multiplicative["idempotents"] == 2 * n * n + n + 1


@pytest.mark.parametrize("n", range(1, 8))
def test_breakup_sums_to_total(n):
    ct = formulas.counts(n)
    assert sum(ct.breakup.values()) == ct.a_plus_total


def test_counts_rejects_bad_n():
    with pytest.raises(ValueError):
        formulas.counts(0)
    with pytest.raises(ValueError):
        formulas.counts(-3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_support_histogram_expected(n):
    hist = formulas.support_histogram_expected(n)
    assert sum(hist.values()) == formulas.counts(n).a_plus_total
    if n >= 2:
        assert hist == {0: 1, 1: n ** 4,
                        n: math.factorial(n) * n * n,
                        n * n + 1: n * n}
    else:
        assert hist == {0: 1, 1: 1, 2: 1}


def test_eventual_regularity_max():
    assert formulas.eventual_regularity_max(1) == 1
    assert formulas.eventual_regularity_max(2) == 2
    assert formulas.eventual_regularity_max(5) == 2


def test_counts_to_dict_roundtrippable_keys():
    d = formulas.counts(2).to_dict()
    assert d["n"] == 2
    assert set(d) == {"n", "end_count", "aut_count", "aff_count",
                      "a_plus_total", "breakup", "additive", "multiplicative"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_counts_match_the_orbit_labels_per_shape(n):
    from ans import maps  # loads numpy, which the other tests here need not
    import oracles
    labels = maps.orbit_labels(n)
    shape = {"Zero": "zero", "Constant": "full", "Singleton": "singleton", "NSupport": "n_support"}
    measured = dict.fromkeys(formulas.orbit_counts(n), 0)
    for r in set(labels.tolist()):
        measured[shape[type(oracles.all_canonical(n)[r]).__name__]] += 1
    assert measured == formulas.orbit_counts(n)
    assert list(measured) == ["zero", "full", "singleton", "n_support"]  # rank order


def test_orbit_counts_from_n1_to_n6():
    totals = [sum(formulas.orbit_counts(n).values()) for n in range(1, 7)]
    assert totals == [3, 15, 27, 39, 58, 89]
    assert formulas.orbit_counts(6) == {"zero": 1, "full": 2, "singleton": 15, "n_support": 71}
    assert formulas.orbit_counts(1) == {"zero": 1, "full": 1, "singleton": 0, "n_support": 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_column_map_orbits_are_burnside_over_every_permutation(n):
    # the cycle-type sum against Burnside's mean taken over S_n itself: pi
    # fixes (k, q; sigma) when it fixes k and q and commutes with sigma
    from itertools import permutations
    perms = list(permutations(range(n)))
    fixed = sum(sum(p[i] == i for i in range(n)) ** 2
                * sum(all(p[s[i]] == s[p[i]] for i in range(n)) for s in perms)
                for p in perms)
    assert fixed == formulas.orbit_counts(n)["n_support"] * math.factorial(n)
