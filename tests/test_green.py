import dataclasses
import itertools
import tracemalloc
from functools import partial

import numpy as np
import pytest

from ans import brandt, closure, eggbox, formulas, green, maps, verify
import oracles

REL = green.RELATIONS


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_additive_census_matches_formulas(green_of, n):
    gs = green_of(n, "additive")
    ct = formulas.counts(n)
    assert len(gs.classes["R"]) == ct.additive["r"]
    assert len(gs.classes["L"]) == ct.additive["l"]
    assert len(gs.classes["D"]) == ct.additive["d"]
    assert sum(gs.idempotent) == ct.additive["idempotents"]
    assert sum(gs.regular) == ct.additive["regular"]
    # H is trivial, so the H count is the element count
    assert len(gs.classes["H"]) == ct.a_plus_total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiplicative_census_matches_formulas(green_of, n):
    gs = green_of(n, "multiplicative")
    ct = formulas.counts(n)
    assert len(gs.classes["R"]) == ct.multiplicative["r"]
    assert len(gs.classes["L"]) == ct.multiplicative["l"]
    assert len(gs.classes["D"]) == ct.multiplicative["d"]
    assert len(gs.classes["H"]) == ct.multiplicative["h"]
    assert sum(gs.idempotent) == ct.multiplicative["idempotents"]
    assert all(gs.regular)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("label", ["additive", "multiplicative"])
def test_partitions_are_partitions_and_refine(green_of, n, label):
    gs = green_of(n, label)
    for rel in REL:
        members = sorted(i for c in gs.classes[rel] for i in c)
        assert members == list(range(len(gs.idempotent)))
        # canonical: each class ascending, classes by least member, which labels them
        assert all(list(c) == sorted(c) for c in gs.classes[rel])
        assert [c[0] for c in gs.classes[rel]] == sorted(c[0] for c in gs.classes[rel])
        assert all(gs.labels[rel][i] == c[0] for c in gs.classes[rel] for i in c)
    for fine, coarse in (("H", "R"), ("H", "L"), ("R", "D"), ("L", "D")):
        for c in gs.classes[fine]:
            targets = {gs.labels[coarse][i] for i in c}
            assert len(targets) == 1
    assert gs.classes["D"] == gs.classes["J"]


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2])
def test_analytic_agrees_with_brute_pairwise(closure_of, green_of, n, label):
    ns = closure_of(n)
    gs = green_of(n, label)
    forms = [oracles.classify(f) for f in oracles.elements(ns)]
    keys = oracles.additive_keys if label == "additive" else oracles.multiplicative_keys
    for rel in REL:
        for i, a in enumerate(forms):
            for j, b in enumerate(forms):
                assert (oracles.related(keys, a, b, rel)
                        == (gs.labels[rel][i] == gs.labels[rel][j])), (rel, a, b)


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_analytic_partitions_agree_with_brute(closure_of, green_of, n, label):
    sg = closure_of(n).reduct(label)
    gs = green_of(n, label)
    analytic = green.analytic_structure(sg)
    for rel in REL:
        # both sides are canonical class tuples, so == compares the partitions
        assert analytic.classes[rel] == gs.classes[rel], rel
        assert np.array_equal(analytic.labels[rel], gs.labels[rel]), rel


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_analytic_idempotents_agree_with_brute(closure_of, green_of, n, label):
    analytic = green.analytic_structure(closure_of(n).reduct(label))
    assert analytic.idempotent == green_of(n, label).idempotent


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_analytic_record_equals_brute_force_record(closure_of, green_of, n, label):
    # every partition, class number and flag; the J-order is not compared
    analytic = green.analytic_structure(closure_of(n).reduct(label))
    assert isinstance(analytic, green.GreenStructure) and analytic.j_order is None
    assert analytic == green_of(n, label)


def test_analytic_regular_and_eventual_masks_follow_the_column_maps(closure_of):
    # additively, only the column maps (shape 3) are not regular, from n = 2 on
    for n in (1, 2, 3):
        shape = maps.fields(n)[:, 0]
        add = green.analytic_structure(closure_of(n).reduct("additive"))
        mul = green.analytic_structure(closure_of(n).reduct("multiplicative"))
        assert add.regular == tuple((shape != 3) | (n == 1))
        assert add.eventual_index == tuple(1 + ((shape == 3) & (n > 1)))
        assert all(mul.regular) and set(mul.eventual_index) == {1}


def _battery_with_analytic(monkeypatch, closure_of, n, label, **flags):
    """The battery at n with `label`'s analytic record changed by `flags`:
    each a (name, indices) pair whose flags are flipped (the index 2 <-> 1)."""
    real = green.analytic_structure

    def wrong(sg):
        out = real(sg)
        for name, at in flags.items() if sg.label == label else ():
            old = getattr(out, name)
            new = [(3 - v if name == "eventual_index" else not v) if i in at else v
                   for i, v in enumerate(old)]
            out = dataclasses.replace(out, **{name: tuple(new)})
        return out

    monkeypatch.setattr(green, "analytic_structure", wrong)
    results = verify.run_battery(n, closure_of(n))
    assert len(results) == 22
    return [(r.name, r.details) for r in results if not r.passed]


def test_a_wrong_idempotent_mask_fails_the_analytic_line_with_its_witness(closure_of,
                                                                         monkeypatch):
    # (1,2;[1,2]) and (2,2;[2,1]) flagged idempotent under o: the line names the first
    failed = _battery_with_analytic(monkeypatch, closure_of, 2, "multiplicative",
                                    idempotent=(23, 28))
    assert failed == [("analytic classifiers match brute force (multiplicative)",
                       "idempotents differ first at 23 (1,2;[1,2])")]


def test_a_wrong_regular_flag_fails_the_analytic_and_criterion_lines_naming_it(closure_of,
                                                                              monkeypatch):
    # the column map (1,1;[1,2]) flagged regular under +
    failed = _battery_with_analytic(monkeypatch, closure_of, 2, "additive", regular=(21,))
    witness = "regular elements differ first at 21 (1,1;[1,2])"
    assert failed == [
        ("analytic classifiers match brute force (additive)", witness),
        ("additive regularity criterion: regular iff support size != n", witness)]


def test_a_wrong_eventual_index_fails_the_analytic_and_eventual_lines_naming_it(closure_of,
                                                                               monkeypatch):
    failed = _battery_with_analytic(monkeypatch, closure_of, 2, "additive",
                                    eventual_index=(22, 25))
    witness = "eventual indices differ first at 22 (1,1;[2,1])"
    assert failed == [
        ("analytic classifiers match brute force (additive)", witness),
        ("eventual regularity: index <= 2, index 2 exactly on n-support", witness)]


def test_an_eventual_index_over_the_closed_form_bound_fails_with_its_witness(closure_of,
                                                                            monkeypatch):
    monkeypatch.setattr(formulas, "eventual_regularity_max", lambda n: 1)
    results = verify.run_battery(2, closure_of(2))
    failed = [(r.name, r.details) for r in results if not r.passed]
    assert failed == [("eventual regularity: index <= 2, index 2 exactly on n-support",
                       "index 2 exceeds 1")]


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("rel", REL)
def test_a_planted_partition_fails_the_analytic_line_naming_its_relation(closure_of, green_of,
                                                                        monkeypatch, rel, label):
    # the first element labelled apart from the one before it joins that one's class
    real = green.analytic_structure

    def planted(sg):
        out = real(sg)
        if sg.label == label:
            merged = out.labels[rel].copy()
            x = np.flatnonzero(merged[1:] != merged[:-1])[0] + 1
            merged[x] = merged[x - 1]
            out = dataclasses.replace(out, labels={**out.labels, rel: merged})
        return out

    sg = closure_of(2).reduct(label)
    assert real(sg) == green_of(2, label) != planted(sg)
    monkeypatch.setattr(green, "analytic_structure", planted)
    failed = [(r.name, r.details) for r in verify.run_battery(2, closure_of(2)) if not r.passed]
    assert failed == [(f"analytic classifiers match brute force ({label})",
                       f"relation {rel} partitions differ")]


def test_the_battery_builds_no_class_tuple(closure_of, monkeypatch):
    # counts and comparisons read the label arrays; the tuples are for output only
    def refuse(labels):
        raise AssertionError("a class tuple was built")

    monkeypatch.setattr(green, "_classes", refuse)
    for n in (1, 2, 3, 4):
        assert all(r.passed for r in verify.run_battery(n, closure_of(n))), n


def test_an_eggbox_builds_the_class_tuples_of_d_and_h_only(closure_of, monkeypatch):
    # the boxes read D and H; a relation's tuples are built on its first read,
    # once, and match its labels
    built, records, real, real_brute = [], [], green._classes, eggbox.green_brute
    monkeypatch.setattr(green, "_classes", lambda labels: built.append(labels) or real(labels))
    monkeypatch.setattr(eggbox, "green_brute",
                        lambda sg, **kw: records.append(real_brute(sg, **kw)) or records[-1])
    eggbox.build_eggbox(closure_of(4), "additive")
    (gs,) = records

    def read():
        return [next(rel for rel in REL if labels is gs.labels[rel]) for labels in built]

    assert read() == ["H", "D"]
    for rel in REL:
        assert gs.classes[rel] == real(gs.labels[rel]) == gs.classes[rel]
    assert read() == ["H", "D", "R", "L", "J"]


def test_the_four_green_records_at_n5_hold_under_1_mb(closure_of):
    # brute and analytic, per reduct: label arrays and flags (no J-order, which
    # only the egg-box builds); with class tuples built at once they held 5.9 MB
    ns = closure_of(5)
    reducts = [ns.reduct(label) for label in ("additive", "multiplicative")]
    routes = (green.green_brute, green.analytic_structure)
    for sg in reducts:  # fill the per-n caches the records do not hold
        for route in routes:
            route(sg)
    tracemalloc.start()
    try:
        records = [route(sg) for sg in reducts for route in routes]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(records) == 4 and held < 1_000_000, held


def test_analytic_examples_from_characterizations():
    const = oracles.Constant
    ns2 = oracles.NSupport
    sing = oracles.Singleton
    ga = partial(oracles.related, oracles.additive_keys)
    gm = partial(oracles.related, oracles.multiplicative_keys)
    ident, swap = (1, 2), (2, 1)
    assert ga(const((1, 1)), const((1, 2)), "R")
    assert not ga(const((1, 1)), const((2, 2)), "R")
    assert not ga(ns2(1, 1, ident), ns2(1, 1, swap), "L")
    assert ga(ns2(1, 1, ident), ns2(1, 1, ident), "L")
    assert ga(ns2(1, 1, ident), ns2(1, 2, ident), "D")
    for c in (oracles.Zero(), const((2, 1)), sing((1, 2), (2, 1)), ns2(2, 1, swap)):
        assert ga(c, c, "D") and gm(c, c, "D")
    assert gm(const((1, 1)), oracles.Zero(), "R")
    assert gm(ns2(1, 1, ident), ns2(2, 2, swap), "D")
    assert gm(sing((1, 1), (1, 2)), sing((2, 2), (1, 2)), "L")
    assert not gm(sing((1, 1), (1, 2)), sing((2, 2), (1, 2)), "R")
    assert not gm(oracles.Zero(), const((1, 1)), "L")


def test_one_element_semigroup():
    sg = closure.FiniteSemigroup(1, "additive", np.zeros((1, 1), np.int32))
    gs = green.green_brute(sg)
    for rel in REL:
        assert gs.classes[rel] == ((0,),)
    assert gs.idempotent == (True,)
    assert gs.regular == (True,)
    assert gs.eventual_index == (1,)


@pytest.mark.parametrize("n", [2, 3])
def test_multiplicative_idempotent_membership(closure_of, green_of, n):
    ns = closure_of(n)
    gs = green_of(n, "multiplicative")
    measured = {maps.map_str(f)
                for f, e in zip(oracles.elements(ns), gs.idempotent) if e}
    expected = {"xi_theta"}
    expected |= {f"xi({i},{j})" for i in range(1, n + 1) for j in range(1, n + 1)}
    expected |= {f"<({i},{j})->({i},{j})>"
                 for i in range(1, n + 1) for j in range(1, n + 1)}
    ident = brandt.perm_str(brandt.identity_perm(n))
    expected |= {f"({k},{k};{ident})" for k in range(1, n + 1)}
    assert measured == expected


@pytest.mark.parametrize("n", [2, 3])
def test_additive_idempotent_membership(closure_of, green_of, n):
    ns = closure_of(n)
    gs = green_of(n, "additive")
    measured = {maps.map_str(f)
                for f, e in zip(oracles.elements(ns), gs.idempotent) if e}
    expected = {"xi_theta"}
    expected |= {f"xi({k},{k})" for k in range(1, n + 1)}
    expected |= {f"<({i},{j})->({p},{p})>"
                 for i in range(1, n + 1) for j in range(1, n + 1)
                 for p in range(1, n + 1)}
    assert measured == expected


@pytest.mark.parametrize("n", [2, 3])
def test_eventual_regularity_profile(closure_of, green_of, n):
    ns = closure_of(n)
    gs = green_of(n, "additive")
    for i, f in enumerate(oracles.elements(ns)):
        c = oracles.classify(f)
        expected = 2 if isinstance(c, oracles.NSupport) else 1
        assert gs.eventual_index[i] == expected
    assert max(gs.eventual_index) == formulas.eventual_regularity_max(n)


def test_eventual_regularity_examples(closure_of, green_of):
    ns = closure_of(2)
    gs = green_of(2, "additive")
    pos = {maps.map_str(f): i for i, f in enumerate(oracles.elements(ns))}
    assert gs.eventual_index[pos["xi(1,1)"]] == 1
    assert gs.eventual_index[pos["(2,1;[1,2])"]] == 2
    mul_gs = green_of(2, "multiplicative")
    assert set(mul_gs.eventual_index) == {1}


def test_eventual_regularity_refuses_an_element_with_no_regular_power():
    # x y = x + 1 (mod 3): x y x = x + 2, so no element is regular, and the
    # powers of 0 cycle 0, 1, 2 without reaching one
    sg = closure.FiniteSemigroup(1, "additive", np.array([[(x + 1) % 3] * 3 for x in range(3)]))
    regular = green.regular_elements(sg)
    assert not regular.any()
    with pytest.raises(AssertionError, match="^element 0 has no regular power$"):
        green.eventual_regularity(sg, regular)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_additive_regularity_support_criterion(closure_of, green_of, n):
    ns = closure_of(n)
    gs = green_of(n, "additive")
    for i, f in enumerate(oracles.elements(ns)):
        if n >= 2:
            assert gs.regular[i] == (len(oracles.support(f)) != n)
        else:
            assert gs.regular[i]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structural_reports(closure_of, n):
    ns = closure_of(n)
    add_sg = ns.reduct("additive")
    mul_sg = ns.reduct("multiplicative")

    k_rep = green.structural_checks(add_sg, "K")
    assert k_rep.closed and k_rep.regular and k_rep.inverse
    assert k_rep.size == formulas.counts(n).additive["regular"]

    n_rep = green.structural_checks(mul_sg, "N")
    assert n_rep.closed and n_rep.regular and n_rep.inverse
    assert n_rep.size == len(ns) - n * n

    all_add = green.structural_checks(add_sg, "all")
    assert all_add.closed
    assert all_add.regular == (n == 1)
    # additive idempotent sums coincide in both orders at every n
    assert all_add.idempotents_commute
    assert all_add.inverse == (n == 1)

    all_mul = green.structural_checks(mul_sg, "all")
    assert all_mul.closed and all_mul.regular and all_mul.orthodox
    assert not all_mul.inverse  # idempotents do not commute

    const_add = green.structural_checks(add_sg, "constants")
    assert const_add.iso_target == f"B_{n}" and const_add.iso_holds

    sing_add = green.structural_checks(add_sg, "singleton-ideal")
    assert sing_add.iso_target == f"0-direct union of {n * n} copies of B_{n}"
    assert sing_add.iso_holds

    sing_mul = green.structural_checks(mul_sg, "singleton-ideal")
    assert sing_mul.iso_target == f"B_{n * n}" and sing_mul.iso_holds

    for rep in (k_rep, n_rep, all_add, all_mul, const_add, sing_add, sing_mul):
        if rep.inverse:
            assert rep.regular and rep.idempotents_commute


def test_subset_selection_errors(closure_of):
    ns = closure_of(2)
    with pytest.raises(ValueError, match="unknown subset"):
        green.structural_checks(ns.reduct("additive"), "wat")
    with pytest.raises(ValueError, match="additive"):
        green.subset_indices(ns.reduct("multiplicative"), "K")
    with pytest.raises(ValueError, match="multiplicative"):
        green.subset_indices(ns.reduct("additive"), "N")


def test_zero_direct_union_table_shape_and_zero():
    t = green.zero_direct_union_table(4, 2)
    assert t.shape == (17, 17)
    assert (t[0] == 0).all() and (t[:, 0] == 0).all()
    # cross-copy products vanish
    assert (t[1:5, 5:9] == 0).all()
    # each diagonal block is the nonzero part of the B_2 table
    block = brandt.add_table(2)[1:, 1:]
    expected = np.where(block == 0, 0, block + 4)
    assert np.array_equal(t[5:9, 5:9], expected)


def test_check_iso_detects_mismatch():
    t = brandt.add_table(2)
    assert oracles.check_iso(np.asarray(t), np.asarray(t), list(range(5)))
    twisted = np.asarray(t).copy()
    twisted[1, 2] = 0
    assert not oracles.check_iso(np.asarray(t), twisted, list(range(5)))
    assert not oracles.check_iso(np.asarray(t), np.asarray(t), [0, 1, 2, 3, 3])


# (reduct, subset) of every isomorphism certificate
_CERTIFIED = [("additive", "constants"), ("additive", "singleton-ideal"),
              ("multiplicative", "singleton-ideal")]


@pytest.mark.parametrize("label, name", _CERTIFIED)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_order_is_the_certified_bijection(closure_of, n, label, name):
    # the certificate compares tables as they stand, because the bijection
    # the canonical forms give is the identity on the rank-ordered members
    sg = closure_of(n).reduct(label)
    idx = green.subset_indices(sg, name)
    _, _, bij = _oracle_bijection(sg, name, idx)
    assert np.array_equal(bij, np.arange(len(idx)))


@pytest.mark.parametrize("label, name", _CERTIFIED)
@pytest.mark.parametrize("n", [2, 3])
def test_certificate_refuses_one_wrong_product_inside_the_subset(closure_of, n, label, name):
    table = closure_of(n).reduct(label).op.dense()  # over the trivial group: one cell wrong
    sg = closure.FiniteSemigroup(n, label, table)
    assert green.structural_checks(sg, name).iso_holds
    idx = np.array(green.subset_indices(sg, name))
    a, b = idx[len(idx) // 2], idx[-1]
    at = np.searchsorted(idx, table[a, b])
    table[a, b] = idx[(at + 1) % len(idx)]  # another member, so the subset stays closed
    rep = green.structural_checks(sg, name)
    assert rep.closed and rep.iso_holds is False


@pytest.mark.parametrize("n", [2, 3])
def test_class_counts_record(green_of, n):
    gs = green_of(n, "multiplicative")
    assert len(gs.classes["D"]) == 3
    if n == 2:
        assert tuple(sorted(len(c) for c in gs.classes["D"])) == (5, 8, 16)
    assert sum(gs.idempotent) == formulas.counts(n).multiplicative["idempotents"]
    assert sum(gs.regular) == formulas.counts(n).a_plus_total


def test_green_structure_json_export(green_of):
    gs = green_of(2, "multiplicative")
    d = gs.to_dict()
    assert set(d) == set(REL) | {"idempotents", "regular", "eventual_index"}
    assert sorted(i for c in d["D"] for i in c) == list(range(29))
    assert len(d["idempotents"]) == 11
    assert len(d["regular"]) == 29


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ideals_match_set_definitions(closure_of, n, label):
    _assert_ideals_match_set_definitions(closure_of(n).reduct(label))


def test_ideals_where_left_ideals_meet_several_r_classes():
    # the full transformation monoid T_3 (maps of {0, 1, 2}, f then g), whose
    # R-classes are the 5 kernels: S¹a is every map with image inside a's,
    # so it meets 5 R-classes for a of rank 3, 4 for rank 2 (3 kernels of
    # rank 2, 1 of rank 1) and 1 for rank 1
    maps_ = list(itertools.product(range(3), repeat=3))
    index = {f: i for i, f in enumerate(maps_)}
    op = np.array([[index[tuple(g[x] for x in f)] for g in maps_] for f in maps_],
                  dtype=np.uint16)
    sg = closure.FiniteSemigroup(1, "multiplicative", op)  # the trivial group: every row filled
    _, left, _, r_first, _ = green.ideals(sg)
    meets = [len(set(r_first[row].tolist())) for row in left]
    assert sorted(set(meets)) == [1, 4, 5]
    _assert_ideals_match_set_definitions(sg)


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
def test_ideals_with_blocks_off_byte_boundaries(closure_of, monkeypatch, label):
    op = closure_of(2).reduct(label).op.dense()
    sg = closure.FiniteSemigroup(2, label, op)  # the trivial group: every row filled
    whole = green.ideals(sg)
    monkeypatch.setattr(maps, "_BLOCK_CELLS", 100)  # 3 rows of the 29-element table
    starts = [int(b[0]) for b in maps.row_blocks(np.arange(len(op)), len(op))]
    assert len(op) % 8 and any(s % 8 for s in starts)
    assert all(np.array_equal(a, b) for a, b in zip(green.ideals(sg), whole))
    _assert_ideals_match_set_definitions(sg)


def test_ideals_read_at_least_a_floor_of_columns_per_block(closure_of, monkeypatch):
    # with blocks of fewer cells than a row has, a block still reads one
    # whole row (here of the 145 columns), over the S_n orbit representatives
    # and over the trivial group alike, and never more than one row or the
    # 10 cells asked for
    for label in ("additive", "multiplicative"):
        quotient = closure_of(3).reduct(label)
        for sg in (quotient, closure.FiniteSemigroup(3, label, quotient.op.dense())):
            whole = green.ideals(sg)
            monkeypatch.setattr(maps, "_BLOCK_CELLS", 10)
            spans = []
            blocks = maps.row_blocks

            def recorded(rows, width):
                out = list(blocks(rows, width))
                spans.extend((len(b), width) for b in out)
                return iter(out)

            monkeypatch.setattr(maps, "row_blocks", recorded)
            assert all(np.array_equal(a, b) for a, b in zip(green.ideals(sg), whole))
            monkeypatch.undo()
            assert (1, 145) in spans and all(k * w <= max(w, 10) for k, w in spans)
        _assert_ideals_match_set_definitions(quotient)


def test_green_brute_at_n5_stays_below_three_packed_ideal_arrays(closure_of):
    # bit-packed right, left and two-sided ideal rows of every element would
    # take 3 m ceil(m / 8) = 5,005,521 bytes at n = 5 (m = 3,651); the ideals
    # of the 58 orbit representatives and the labels stay below that
    ns = closure_of(5)
    m = len(ns)
    for label in ("additive", "multiplicative"):
        sg = ns.reduct(label)
        tracemalloc.start()
        try:
            green.green_brute(sg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * m * ((m + 7) // 8) == 5_005_521, label


def test_green_brute_refuses_d_classes_merged_away_from_the_representatives(
        closure_of, green_of, monkeypatch):
    # the additive D-classes of <(2,1)->(1,1)> and <(2,2)->(1,1)> hold no
    # orbit representative at n = 2: merged, they still agree with J at the
    # representatives, but J's labels, read off the two-sided rows, keep the
    # two classes apart
    sg = closure_of(2).reduct("additive")
    tokens = maps.tokens(range(len(sg)), 2)
    x, y = tokens.index("<(2,1)->(1,1)>"), tokens.index("<(2,2)->(1,1)>")
    merged = [c for c in green_of(2, "additive").classes["D"] if x in c or y in c]
    assert len(merged) == 2 and not set(sg.op.action.reps.tolist()) & set(sum(merged, ()))
    real = maps.least_labels

    def merging(maps_, m):
        label = real(maps_, m)
        return np.where(np.isin(label, label[[x, y]]), label[[x, y]].min(), label)

    monkeypatch.setattr(maps, "least_labels", merging)
    with pytest.raises(AssertionError, match="^D and J partitions differ on a finite semigroup$"):
        green.green_brute(sg)


_LEAST_MATES_CASES = [(n, label, trivial) for n in (1, 2, 3, 4)
                      for label in ("additive", "multiplicative") for trivial in (False, True)]


@pytest.mark.parametrize("n, label, trivial",
                         _LEAST_MATES_CASES + [(5, "multiplicative", False)])
def test_least_mates_match_each_elements_own_minimum(closure_of, n, label, trivial):
    # one gather per class labels as the least of G[g_x] applied to r_x's
    # class does, element by element, on every ideal row of `green.ideals`,
    # under S_n and over the trivial group
    ns = oracles.dense(closure_of(n)) if trivial else closure_of(n)
    sg = ns.reduct(label)
    for rows in green.ideals(sg)[:3]:
        assert np.array_equal(green._least_mates(rows, sg.op)[0], oracles.least_mates(rows, sg.op))


class _GuardedGroup(np.ndarray):
    """Group rows that refuse to be iterated and count the gathers from them."""
    gathers = 0

    def __iter__(self):
        raise AssertionError("the group's rows were iterated")

    def __getitem__(self, key):
        type(self).gathers += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
def test_green_brute_never_loops_over_the_group_and_gathers_once_per_class(
        closure_of, green_of, monkeypatch, label):
    ns = closure_of(4)
    action = dataclasses.replace(ns.action, group=ns.action.group.view(_GuardedGroup))
    sg = closure.FiniteSemigroup(4, label, closure.Table(ns.reduct(label).op.rows, action))
    assert green.green_brute(sg) == green_of(4, label)
    held = green._held
    for rows in green.ideals(sg)[:3]:
        # `_held` is precomputed, so only the labelling's gathers are counted
        done = held(rows, sg.op, np.arange(len(sg)), action.reps)
        monkeypatch.setattr(green, "_held", lambda *args: done)
        _GuardedGroup.gathers = 0
        labels = green._least_mates(rows, sg.op)[0]
        sizes = np.unique(labels, return_counts=True)[1]
        assert 0 < _GuardedGroup.gathers <= np.count_nonzero(sizes > 1)


def _assert_ideals_match_set_definitions(sg):
    # the representatives' ideal rows, and each element's R and L labels:
    # its least class-mate under equal right, or left, ideals
    m = len(sg)
    t = sg.op.dense().tolist()
    reps = sg.op.action.reps.tolist()
    right, left, two, r_first, l_first = green.ideals(sg)
    assert all(rows.shape == (len(reps), m) and rows.dtype == bool for rows in (right, left, two))
    want = []
    for a in range(m):
        a_s = {t[a][s] for s in range(m)}
        s_a = {t[s][a] for s in range(m)}
        s_a_s = {t[x][y] for x in s_a for y in range(m)}
        want.append(({a} | a_s, {a} | s_a, {a} | a_s | s_a | s_a_s))
    for i, a in enumerate(reps):
        for got, expected in zip((right, left, two), want[a]):
            assert set(np.flatnonzero(got[i]).tolist()) == expected
    for k, labels in enumerate((r_first, l_first)):
        least = {}
        assert labels.tolist() == [least.setdefault(frozenset(w[k]), a) for a, w in enumerate(want)]


# --- the block scans against plain per-element loops ---------------------------
# These three loops are the earlier implementation, kept verbatim as the
# reference for `regular_elements`, the inverse verdict and
# `eventual_regularity`.

def _ref_regular_elements(sg):
    """Elements x with x y x = x for some y, by exhaustive search."""
    t = sg.op.dense()
    out = []
    for i in range(len(sg)):
        if np.any(t[t[i], i] == i):
            out.append(i)
    return frozenset(out)


def _ref_inverse_counts(t):
    """Number of inverses of each element: y with xyx = x and yxy = y."""
    m = t.shape[0]
    ar = np.arange(m)
    out = []
    for i in range(m):
        xyx_ok = t[t[i, :], i] == i
        yxy_ok = t[t[:, i], ar] == ar
        out.append(int(np.count_nonzero(xyx_ok & yxy_ok)))
    return out


def _ref_eventual_regularity(sg, reg):
    """Least r >= 1 such that the r-th power is regular, per element, given
    the `regular_elements` of `sg`."""
    t = sg.op.dense()
    m = len(sg)
    out = []
    for i in range(m):
        p, r = i, 1
        while p not in reg:
            p, r = int(t[p, i]), r + 1
            if r > m:  # pigeonhole: the power sequence has cycled
                raise AssertionError(f"element {i} has no regular power")
        out.append(r)
    return tuple(out)


def _agrees_with_reference(sg, name):
    """The report of one closed subset against the restricted-table oracle,
    and its regular mask, inverse verdict and eventual indices against the
    reference loops; False when the reference raises the pigeonhole error
    (and the scan raised the same one)."""
    rep = green.structural_checks(sg, name)
    assert rep.closed
    idx = np.array(green.subset_indices(sg, name))
    assert repr(rep) == repr(_oracle_report(sg, name, idx))
    sub = np.searchsorted(idx, sg.op[np.ix_(idx, idx)])  # local indices
    ref = closure.FiniteSemigroup(sg.n, sg.label, sub)
    reg = _ref_regular_elements(ref)
    mask = green.regular_elements(ref)
    assert mask.dtype == bool and set(np.flatnonzero(mask).tolist()) == reg
    assert rep.regular == (len(reg) == len(idx))
    assert rep.inverse == all(c == 1 for c in _ref_inverse_counts(sub))
    try:
        want = _ref_eventual_regularity(ref, reg)
    except AssertionError as e:
        with pytest.raises(AssertionError) as got:
            green.eventual_regularity(ref, mask)
        assert str(got.value) == str(e)
        return False
    assert green.eventual_regularity(ref, mask) == want
    return True


def _subsets(label):
    other = {"additive": "N", "multiplicative": "K"}[label]
    return [name for name in green.SUBSET_NAMES if name != other]


# --- the subset checks against the earlier restricted-table implementation ----
# `_restrict` and `_oracle_iso` are the earlier code, kept as the oracle: they
# copy the subset's products into a table of its own, in local indices,
# which `subset_report` no longer does, and test an explicit bijection onto
# each certified target, which `subset_report` no longer builds.

def _restrict(sg, idx):
    """Restricted table in local indices, in TABLE_DTYPE, and whether the
    subset is closed (the table is only meaningful when it is)."""
    if len(idx) == len(sg):
        return sg.op.dense(), True
    idx = np.asarray(idx, dtype=np.intp)
    sub = sg.op[np.ix_(idx, idx)]
    inside = np.zeros(len(sg), dtype=bool)
    inside[idx] = True
    if not inside[sub].all():
        return sub, False
    local = np.zeros(len(sg), dtype=closure.TABLE_DTYPE)
    local[idx] = np.arange(len(idx))
    return local[sub], True


def _oracle_bijection(sg, name, idx):
    """(target, its table, the bijection onto it) of a certified subset, the
    bijection derived from the members' canonical forms; else Nones."""
    n = sg.n
    elems = oracles.elements(sg)
    ranks = maps.member_ranks([elems[i] for i in idx], n)
    singleton_bij = np.where(ranks == 0, 0, ranks - n * n)
    if name == "constants" and sg.label == "additive":
        return f"B_{n}", brandt.add_table(n), ranks
    if name == "singleton-ideal" and sg.label == "additive":
        return (f"0-direct union of {n * n} copies of B_{n}",
                green.zero_direct_union_table(n * n, n), singleton_bij)
    if name == "singleton-ideal" and sg.label == "multiplicative":
        return f"B_{n * n}", brandt.add_table(n * n), singleton_bij
    return None, None, None


def _oracle_iso(sg, name, idx, sub):
    target, table, bij = _oracle_bijection(sg, name, idx)
    return target, None if target is None else oracles.check_iso(sub, table, bij)


def _oracle_report(sg, name, idx):
    """Every `SubsetReport` field from the restricted table, by plain loops."""
    sub, closed = _restrict(sg, idx)
    m = len(idx)
    if not closed:
        return green.SubsetReport(name, sg.label, m, False, False, False, False, False)
    regular = all(np.any(sub[sub[x], x] == x) for x in range(m))
    idem = [x for x in range(m) if sub[x, x] == x]
    efs = [sub[e, f] for e in idem for f in idem]
    commute = all(sub[e, f] == sub[f, e] for e in idem for f in idem)
    orthodox = regular and all(sub[ef, ef] == ef for ef in efs)
    inverse = regular and all(c == 1 for c in _ref_inverse_counts(sub))
    return green.SubsetReport(name, sg.label, m, True, regular, commute, inverse,
                              orthodox, *_oracle_iso(sg, name, idx, sub))


def _generated(op, gens):
    """Indices of the subsemigroup of `op` that the indices `gens` generate."""
    members = set(gens.tolist())
    while True:
        grown = members | {int(op[x, y]) for x in members for y in members}
        if grown == members:
            return np.array(sorted(members))
        members = grown


# 65536 cells: every table here in one block, as at the default budget;
# 100 cells: blocks of a few rows, most starting off a byte boundary
@pytest.mark.parametrize("cells", [65536, 100])
@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_subset_report_matches_restricted_oracle(closure_of, monkeypatch, n, label, cells):
    monkeypatch.setattr(maps, "_BLOCK_CELLS", cells)
    sg = closure_of(n).reduct(label)
    for name in _subsets(label):
        idx = green.subset_indices(sg, name)
        # repr, which the verify report prints, also pins every field's type
        assert repr(green.subset_report(sg, name, idx)) == repr(_oracle_report(sg, name, idx))


@pytest.mark.parametrize("cells", [65536, 100])
@pytest.mark.parametrize("label", ["additive", "multiplicative"])
def test_subset_report_matches_oracle_on_random_member_sets(closure_of, monkeypatch,
                                                            label, cells):
    monkeypatch.setattr(maps, "_BLOCK_CELLS", cells)
    # the trivial group: a random member set is seldom a union of S_n orbits
    sg = closure.FiniteSemigroup(2, label, closure_of(2).reduct(label).op.dense())
    rng = np.random.default_rng(11)
    verdicts = []
    for trial in range(200):
        idx = np.flatnonzero(rng.random(len(sg)) < rng.random())
        if trial % 2:
            idx = _generated(sg.op, idx)
        if idx.size:
            rep = green.subset_report(sg, "sample", idx)
            assert repr(rep) == repr(_oracle_report(sg, "sample", idx)), idx
            verdicts.append((rep.closed, rep.regular, rep.inverse, rep.orthodox))
    closed = [v for v in verdicts if v[0]]
    assert 0 < len(closed) < len(verdicts)
    assert {v[1:] for v in closed} > {(True, True, True)}  # not every closed set is inverse


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_regularity_scan_matches_reference_loops(closure_of, n, label):
    sg = closure_of(n).reduct(label)
    for name in _subsets(label):
        assert _agrees_with_reference(sg, name), name
    gs = green.green_brute(sg)
    assert gs.regular == tuple(i in _ref_regular_elements(sg) for i in range(len(sg)))


def test_regularity_scan_matches_reference_on_random_tables():
    # mostly not associative, so many power sequences cycle without a
    # regular power and both sides must raise the same pigeonhole error
    rng = np.random.default_rng(9)
    cycled = 0
    for _ in range(3000):
        m = int(rng.integers(1, 7))
        t = rng.integers(0, m, size=(m, m))
        sg = closure.FiniteSemigroup(2, "additive", t)
        cycled += not _agrees_with_reference(sg, "all")
    assert 0 < cycled < 3000


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
def test_regularity_scan_with_blocks_off_byte_boundaries(closure_of, monkeypatch, label):
    monkeypatch.setattr(maps, "_BLOCK_CELLS", 100)  # 3 rows of the 29-element table
    # the trivial group: every row scanned
    sg = closure.FiniteSemigroup(2, label, closure_of(2).reduct(label).op.dense())
    starts = [int(b[0]) for b in maps.row_blocks(np.arange(len(sg)), len(sg))]
    assert len(sg) % 8 and any(s % 8 for s in starts)
    for name in _subsets(label):
        assert _agrees_with_reference(sg, name), name


def test_battery_scans_additive_regularity_once(closure_of, monkeypatch):
    ns = closure_of(4)
    scanned = []
    scan = green.regular_elements

    def counted(sg):
        scanned.append(sg.op)
        return scan(sg)

    monkeypatch.setattr(green, "regular_elements", counted)
    results = verify.run_battery(4, ns)
    assert results and all(r.passed for r in results), [r.line() for r in results]
    assert sum(op.rows is ns.add_table for op in scanned) == 1
