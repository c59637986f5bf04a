import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ans import brandt, cli, closure, formulas, generators, maps
import oracles

GOLDEN = Path(__file__).parent / "golden"


def _census(kind, n):
    """The closed-form size of a generator kind, from `formulas.counts`."""
    ct = formulas.counts(n)
    return {"end": ct.end_count, "aut": ct.aut_count, "aff": ct.aff_count,
            "const": brandt.size(n)}[kind]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", generators.KINDS)
def test_enumerated_sizes_match_expected(n, kind):
    gs = generators.enumerate_kind(kind, n)
    assert len(gs) == _census(kind, n)
    assert gs.n == n and gs.kind == kind


@pytest.mark.parametrize("n", [1, 2])
def test_end_matches_exhaustive_table_scan(n):
    brute = set(oracles.brute_force_endomorphisms(n))
    assert set(map(tuple, generators.enumerate_end(n).members.tolist())) == brute
    assert len(brute) == formulas.counts(n).end_count


def test_brute_force_scan_refuses_large_n():
    with pytest.raises(ValueError):
        oracles.brute_force_endomorphisms(3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_end_member_is_endomorphism(n):
    for f in generators.enumerate_end(n):
        assert oracles.is_endomorphism(f)


@pytest.mark.parametrize("n", [2, 3])
def test_aff_members_are_not_all_endomorphisms(n):
    assert any(not oracles.is_endomorphism(f)
               for f in generators.enumerate_aff(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_aut_is_symmetric_group(n):
    assert generators.aut_iso_sn(n)


def test_aut_iso_sn_catches_two_swapped_images(monkeypatch):
    # still injective onto the bijective endomorphisms; only composition breaks
    real = generators.phi_sigma
    swap = {(1, 3, 2): (3, 2, 1), (3, 2, 1): (1, 3, 2)}
    monkeypatch.setattr(generators, "phi_sigma", lambda s, n: real(swap.get(s, s), n))
    assert not generators.aut_iso_sn(3)


@pytest.mark.parametrize("n", [2, 3])
def test_phi_sigma_respects_composition(n):
    for s in brandt.enumerate_sn(n):
        for t in brandt.enumerate_sn(n):
            lhs = oracles.compose(generators.phi_sigma(s, n), generators.phi_sigma(t, n))
            rhs = generators.phi_sigma(brandt.perm_compose(s, t), n)
            assert lhs == tuple(rhs.tolist())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_aff_shapes_and_order(n):
    gs = generators.enumerate_aff(n)
    keys = [oracles.canonical_key(oracles.classify(f)) for f in gs]
    assert keys == sorted(keys)
    shapes = {type(oracles.classify(f)) for f in gs}
    assert shapes <= {oracles.Zero, oracles.Constant, oracles.NSupport}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_aff_matches_per_pair_construction(n):
    sums = {oracles.pointwise_add(g, c)
            for g in generators.enumerate_end(n) for c in generators.enumerate_constants(n)}
    expected = sorted(sums, key=lambda f: oracles.canonical_key(oracles.classify(f)))
    assert list(map(tuple, generators.enumerate_aff(n).members.tolist())) == expected


def test_enumerate_aff_refuses_n_over_cap():
    with pytest.raises(ValueError, match="exceeds cap"):
        generators.enumerate_aff(7)


@pytest.mark.parametrize("n", [2, 3])
def test_triple_round_trip(n):
    for k in range(1, n + 1):
        for q in range(1, n + 1):
            for sigma in brandt.enumerate_sn(n):
                f = oracles.triple_to_map(k, q, sigma, n)
                assert oracles.classify(f) == oracles.NSupport(k, q, sigma)
                [r] = maps.member_ranks([f], n)
                assert oracles.all_canonical(n)[r] == oracles.NSupport(k, q, sigma)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", generators.KINDS)
def test_member_str_round_trip(n, kind):
    gs = generators.enumerate_kind(kind, n)
    for f, token in zip(gs, generators.generators_dict(gs)["members"]):
        if token.startswith("phi"):
            back = generators.phi_sigma(tuple(json.loads(token[3:])), n)
        else:
            table = maps.tokens(range(len(oracles.all_canonical(n))), n)
            back = maps.canonical_tables(n)[table.index(token)]
        assert back.tolist() == f.tolist()


def test_generators_dict_refuses_a_row_neither_shaped_nor_an_automorphism():
    # full support and not constant, and its diagonal images read sigma = id
    odd = generators.GeneratorSet(2, "aut", np.array([[0, 2, 1, 4, 3]], dtype=np.uint8))
    with pytest.raises(maps.NotAffineElement, match=re.escape(
            "table (0, 2, 1, 4, 3) is neither a closure element nor an automorphism")):
        generators.generators_dict(odd)


def test_generator_set_rejects_unknown_kind_and_repeats():
    good = generators.enumerate_aut(2)
    with pytest.raises(ValueError, match="not distinct"):
        generators.GeneratorSet(2, "aut", np.concatenate([good.members, good.members[:1]]))
    with pytest.raises(ValueError, match="unknown generator kind"):
        generators.GeneratorSet(2, "nonsense", good.members)


@pytest.mark.parametrize("kind", generators.KINDS)
def test_cli_generators_match_goldens(capsys, kind):
    assert cli.main(["generators", "--kind", kind, "--n", "3"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"generators_n3_{kind}.json").read_text()


def test_generator_sets_hold_read_only_uint8_rows():
    for kind in generators.KINDS:
        gs = generators.enumerate_kind(kind, 3)
        assert gs.members.dtype == np.uint8 and gs.members.shape == (len(gs), 10)
        assert not gs.members.flags.writeable


def test_aff_and_its_mask_hold_no_copy_wider_than_its_codes():
    # rows of codes cost 26 bytes a member at n = 5; tuples of them and an
    # int64 copy for ranking cost about 22 times that
    closure._generator_mask(generators.enumerate_aff(5))  # fills the caches both read
    tracemalloc.start()
    try:
        gens = generators.enumerate_aff(5)
        closure._generator_mask(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(gens) * brandt.size(5)  # 8 x 78,676 bytes of uint8 codes


def test_generators_dict_schema():
    d = generators.generators_dict(generators.enumerate_end(2))
    assert set(d) == {"n", "kind", "count", "members"}
    assert d["count"] == len(d["members"]) == 5
    assert d["members"][0] == "xi_theta"
    assert "phi[1,2]" in d["members"]


def test_enumerate_kind_rejects_unknown():
    with pytest.raises(ValueError):
        generators.enumerate_kind("frobnicate", 2)


# The two invariants of `enumerate_aff` raise AssertionError themselves, so
# `python -O` keeps them; the CLI reports one as exit 1, without a traceback.

def test_enumerate_aff_refuses_a_sum_outside_the_shapes(monkeypatch, capsys):
    products = maps.products

    def one_outside(F, G, op, n):  # rank -1 would otherwise mark the last element
        for lo, ranks in products(F, G, op, n):
            ranks = ranks.copy()
            ranks[0, 0] = -1
            yield lo, ranks

    monkeypatch.setattr(maps, "products", one_outside)
    with pytest.raises(AssertionError, match="End \\+ Const sum is outside the four"):
        generators.enumerate_aff(2)
    assert cli.main(["generators", "--kind", "aff", "--n", "2"]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: an End + Const sum is outside the four closure shapes\n"


def test_enumerate_aff_refuses_a_singleton_member(monkeypatch):
    maps.canonical_tables(2)  # built from the true fields before the shape column is faked
    every_singleton = maps.fields(2).copy()
    every_singleton[:, 0] = 2
    monkeypatch.setattr(maps, "fields", lambda n: every_singleton)
    with pytest.raises(AssertionError, match="an affine map is a singleton"):
        generators.enumerate_aff(2)
