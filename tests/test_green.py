import numpy as np
import pytest

from ans import brandt, closure, formulas, green, maps

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
        assert members == list(range(gs.size))
    for fine, coarse in (("H", "R"), ("H", "L"), ("R", "D"), ("L", "D")):
        for c in gs.classes[fine]:
            targets = {gs.class_of[coarse][i] for i in c}
            assert len(targets) == 1
    assert green.partition_key(gs.classes["D"]) == green.partition_key(gs.classes["J"])


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2])
def test_analytic_agrees_with_brute_pairwise(closure_of, green_of, n, label):
    ns = closure_of(n)
    gs = green_of(n, label)
    forms = [maps.classify(f) for f in ns.elements]
    fn = (green.green_analytic_additive if label == "additive"
          else green.green_analytic_multiplicative)
    for rel in REL:
        for i, a in enumerate(forms):
            for j, b in enumerate(forms):
                assert fn(a, b, rel) == gs.related(rel, i, j), (rel, a, b)


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_analytic_partitions_agree_with_brute(closure_of, green_of, n, label):
    sg = closure_of(n).reduct(label)
    gs = green_of(n, label)
    analytic = green.analytic_structure(sg)
    for rel in REL:
        assert (green.partition_key(analytic[rel])
                == green.partition_key(gs.classes[rel])), rel


def test_analytic_examples_from_characterizations():
    const = maps.Constant
    ns2 = maps.NSupport
    sing = maps.Singleton
    ga, gm = green.green_analytic_additive, green.green_analytic_multiplicative
    ident, swap = (1, 2), (2, 1)
    assert ga(const((1, 1)), const((1, 2)), "R")
    assert not ga(const((1, 1)), const((2, 2)), "R")
    assert not ga(ns2(1, 1, ident), ns2(1, 1, swap), "L")
    assert ga(ns2(1, 1, ident), ns2(1, 1, ident), "L")
    assert ga(ns2(1, 1, ident), ns2(1, 2, ident), "D")
    for c in (maps.Zero(), const((2, 1)), sing((1, 2), (2, 1)), ns2(2, 1, swap)):
        assert ga(c, c, "D") and gm(c, c, "D")
    assert gm(const((1, 1)), maps.Zero(), "R")
    assert gm(ns2(1, 1, ident), ns2(2, 2, swap), "D")
    assert gm(sing((1, 1), (1, 2)), sing((2, 2), (1, 2)), "L")
    assert not gm(sing((1, 1), (1, 2)), sing((2, 2), (1, 2)), "R")
    assert not gm(maps.Zero(), const((1, 1)), "L")


def test_analytic_rejects_mixed_n():
    a = maps.NSupport(1, 1, (1, 2))
    b = maps.NSupport(1, 1, (1, 2, 3))
    with pytest.raises(ValueError, match="different ambient"):
        green.green_analytic_additive(a, b, "R")
    with pytest.raises(ValueError, match="different ambient"):
        green.green_analytic_multiplicative(a, b, "L")
    with pytest.raises(ValueError, match="unknown relation"):
        green.green_analytic_additive(a, a, "Q")


def test_one_element_semigroup():
    sg = closure.FiniteSemigroup(1, "additive", ((),), np.zeros((1, 1), np.int32))
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
    measured = {maps.map_str(ns.elements[i])
                for i, e in enumerate(gs.idempotent) if e}
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
    measured = {maps.map_str(ns.elements[i])
                for i, e in enumerate(gs.idempotent) if e}
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
    for i, f in enumerate(ns.elements):
        c = maps.classify(f)
        expected = 2 if isinstance(c, maps.NSupport) else 1
        assert gs.eventual_index[i] == expected
    assert max(gs.eventual_index) == formulas.eventual_regularity_max(n)


def test_eventual_regularity_examples(closure_of, green_of):
    ns = closure_of(2)
    gs = green_of(2, "additive")
    pos = {maps.map_str(f): i for i, f in enumerate(ns.elements)}
    assert gs.eventual_index[pos["xi(1,1)"]] == 1
    assert gs.eventual_index[pos["(2,1;[1,2])"]] == 2
    mul_gs = green_of(2, "multiplicative")
    assert set(mul_gs.eventual_index) == {1}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_additive_regularity_support_criterion(closure_of, green_of, n):
    ns = closure_of(n)
    gs = green_of(n, "additive")
    for i, f in enumerate(ns.elements):
        if n >= 2:
            assert gs.regular[i] == (len(maps.support(f)) != n)
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
    assert green.check_iso(np.asarray(t), np.asarray(t), list(range(5)))
    twisted = np.asarray(t).copy()
    twisted[1, 2] = 0
    assert not green.check_iso(np.asarray(t), twisted, list(range(5)))
    assert not green.check_iso(np.asarray(t), np.asarray(t), [0, 1, 2, 3, 3])


@pytest.mark.parametrize("n", [2, 3])
def test_class_counts_record(green_of, n):
    rec = green.class_counts(green_of(n, "multiplicative"))
    assert rec.classes["D"] == 3
    if n == 2:
        assert rec.class_sizes["D"] == (5, 8, 16)
    assert rec.idempotents == formulas.counts(n).multiplicative["idempotents"]
    assert rec.regular == formulas.counts(n).a_plus_total


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
    op = closure_of(n).reduct(label).op
    m = op.shape[0]
    t = op.tolist()
    rows = [np.unpackbits(r, axis=1, count=m).astype(bool) for r in green.ideals(op)]
    for a in range(m):
        a_s = {t[a][s] for s in range(m)}
        s_a = {t[s][a] for s in range(m)}
        s_a_s = {t[x][y] for x in s_a for y in range(m)}
        want = ({a} | a_s, {a} | s_a, {a} | a_s | s_a | s_a_s)
        for got, expected in zip(rows, want):
            assert set(np.flatnonzero(got[a]).tolist()) == expected


# --- the block scans against plain per-element loops ---------------------------
# These three loops are the earlier implementation, kept verbatim as the
# reference for `regular_elements`, the inverse verdict and
# `eventual_regularity`.

def _ref_regular_elements(sg):
    """Elements x with x y x = x for some y, by exhaustive search."""
    t = sg.op
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
    t = sg.op
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
    """Regular mask, inverse verdict and eventual indices of one closed
    subset against the reference loops; False when the reference raises
    the pigeonhole error (and the scan raised the same one)."""
    rep = green.structural_checks(sg, name)
    assert rep.closed
    idx = np.array(green.subset_indices(sg, name))
    sub = np.searchsorted(idx, sg.op[np.ix_(idx, idx)])  # local indices
    ref = closure.FiniteSemigroup(sg.n, sg.label, tuple(sg.elements[i] for i in idx), sub)
    reg = _ref_regular_elements(ref)
    mask = green.regular_elements(sub)
    assert mask.dtype == bool and set(np.flatnonzero(mask).tolist()) == reg
    assert rep.regular == (len(reg) == len(idx))
    assert rep.inverse == all(c == 1 for c in _ref_inverse_counts(sub))
    try:
        want = _ref_eventual_regularity(ref, reg)
    except AssertionError as e:
        with pytest.raises(AssertionError) as got:
            green.eventual_regularity(sub, mask)
        assert str(got.value) == str(e)
        return False
    assert green.eventual_regularity(sub, mask) == want
    return True


def _subsets(label):
    other = {"additive": "N", "multiplicative": "K"}[label]
    return [name for name in green.SUBSET_NAMES if name != other]


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
    elems = tuple(map(tuple, maps.canonical_tables(2).tolist()))
    cycled = 0
    for _ in range(3000):
        m = int(rng.integers(1, 7))
        t = rng.integers(0, m, size=(m, m))
        sg = closure.FiniteSemigroup(2, "additive", elems[:m], t)
        cycled += not _agrees_with_reference(sg, "all")
    assert 0 < cycled < 3000


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
def test_regularity_scan_with_blocks_off_byte_boundaries(closure_of, monkeypatch, label):
    monkeypatch.setattr(maps, "_BLOCK_CELLS", 100)  # 3 rows of the 29-element table
    sg = closure_of(2).reduct(label)
    starts = [int(b[0]) for b in maps.row_blocks(np.arange(len(sg)), len(sg))]
    assert len(sg) % 8 and any(s % 8 for s in starts)
    for name in _subsets(label):
        assert _agrees_with_reference(sg, name), name
