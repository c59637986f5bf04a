import json

import numpy as np
import pytest

from ans import closure, formulas, generators, maps


@pytest.mark.parametrize("n,expected", [(1, 3), (2, 29), (3, 145), (4, 657)])
def test_closure_size(closure_of, n, expected):
    ns = closure_of(n)
    assert len(ns) == expected
    assert len(ns) == formulas.counts(n).a_plus_total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_support_histogram(closure_of, n):
    ns = closure_of(n)
    assert closure.support_histogram(ns) == formulas.support_histogram_expected(n)
    assert closure.intermediate_support_check(ns)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_contains_generators(closure_of, n):
    ns = closure_of(n)
    elems = set(ns.elements)
    for f in generators.enumerate_aff(n):
        assert f in elems


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_elements_are_exactly_the_canonical_family(closure_of, n):
    ns = closure_of(n)
    expected = tuple(maps.render(c, n) for c in maps.all_canonical(n))
    assert ns.elements == expected


@pytest.mark.parametrize("n", [2, 3])
def test_sum_shape_rules(closure_of, n):
    ns = closure_of(n)
    by_shape = {}
    for f in ns.elements:
        by_shape.setdefault(type(maps.classify(f)).__name__, []).append(f)
    nsupp = by_shape["NSupport"]
    consts = by_shape["Constant"]
    for f in nsupp:
        for g in nsupp:
            assert len(maps.support(maps.pointwise_add(g, f))) in (0, 1)
        for h in consts:
            assert len(maps.support(maps.pointwise_add(h, f))) == 1
            assert len(maps.support(maps.pointwise_add(f, h))) in (0, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_near_semiring_axioms(closure_of, n):
    report = closure.verify_near_semiring(closure_of(n))
    assert report.passed, str(report)
    assert len(report.checks) == 3


def test_axiom_check_reports_witness(closure_of):
    ns = closure_of(2)
    bad = closure.NearSemiring(2, ns.elements,
                               ns.add_table.copy(), ns.mul_table.copy())
    bad.add_table[3, 4] = (bad.add_table[3, 4] + 1) % len(ns)
    report = closure.verify_near_semiring(bad)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and failing[0].counterexample is not None


def test_tables_match_pointwise_definitions(closure_of):
    ns = closure_of(2)
    idx = {f: i for i, f in enumerate(ns.elements)}
    for i, f in enumerate(ns.elements):
        for j, g in enumerate(ns.elements):
            assert ns.add_table[i, j] == idx[maps.pointwise_add(f, g)]
            assert ns.mul_table[i, j] == idx[maps.compose(f, g)]


def test_n_cap_enforced():
    gens = generators.enumerate_aff(2)
    with pytest.raises(ValueError, match="exceeds cap"):
        closure.additive_closure(gens, n_cap=1)
    assert closure.DEFAULT_N_CAP == 6


def test_json_round_trip(closure_of):
    ns = closure_of(2)
    d = closure.to_dict(ns)
    text = json.dumps(d)
    back = closure.from_dict(json.loads(text))
    assert back.elements == ns.elements
    assert np.array_equal(back.add_table, ns.add_table)
    assert np.array_equal(back.mul_table, ns.mul_table)


def test_from_dict_rejects_bad_payloads(closure_of):
    ns = closure_of(2)
    good = closure.to_dict(ns)

    wrong_version = dict(good, format_version=99)
    with pytest.raises(ValueError, match="format version"):
        closure.from_dict(wrong_version)

    wrong_count = dict(good, count=7)
    with pytest.raises(ValueError, match="count"):
        closure.from_dict(wrong_count)

    shuffled = dict(good, elements=list(reversed(good["elements"])))
    with pytest.raises(ValueError, match="canonical order"):
        closure.from_dict(shuffled)

    out_of_range = dict(good, add_table=[[10 ** 6] * len(ns)] * len(ns))
    with pytest.raises(ValueError, match="out-of-range"):
        closure.from_dict(out_of_range)

    bad_token = dict(good, elements=["wat"] + good["elements"][1:])
    with pytest.raises(ValueError):
        closure.from_dict(bad_token)


def test_finite_semigroup_validation(closure_of):
    ns = closure_of(1)
    with pytest.raises(ValueError):
        closure.FiniteSemigroup(1, "additive", ns.elements, np.zeros((2, 5), np.int32))
    with pytest.raises(ValueError):
        closure.FiniteSemigroup(1, "additive", ns.elements,
                                np.full((3, 3), 9, np.int32))
    with pytest.raises(ValueError):
        ns.reduct("bogus")


def test_empty_generator_set_rejected():
    class Empty:
        n = 2

        def __len__(self):
            return 0

    with pytest.raises(ValueError, match="empty"):
        closure.additive_closure(Empty())
