import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ans import brandt, formulas, generators, maps
import oracles


def fmaps(n, zero_preserving=False):
    m = n * n + 1
    values = st.integers(0, m - 1)
    base = st.tuples(*([values] * m))
    if not zero_preserving:
        return base
    return base.map(lambda f: (brandt.THETA,) + f[1:])


map_and_n = st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), fmaps(n)))
two_maps = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), fmaps(n), fmaps(n)))
three_maps = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), fmaps(n), fmaps(n), fmaps(n)))


@given(two_maps)
def test_support_lemma_random(t):
    n, f, g = t
    s = oracles.support(oracles.pointwise_add(f, g))
    assert s <= (oracles.support(f) & oracles.support(g))


def test_support_lemma_exhaustive_on_closure(closure_of):
    ns = closure_of(2)
    for f in oracles.elements(ns):
        for g in oracles.elements(ns):
            s = oracles.support(oracles.pointwise_add(f, g))
            assert s <= (oracles.support(f) & oracles.support(g))


@given(three_maps)
def test_left_distributivity_random(t):
    n, f, g, h = t
    lhs = oracles.compose(f, oracles.pointwise_add(g, h))
    rhs = oracles.pointwise_add(oracles.compose(f, g), oracles.compose(f, h))
    assert lhs == rhs


def test_right_distributivity_fails_somewhere(closure_of):
    # (g+h) o f = g o f + h o f is not a law of this algebra
    ns = closure_of(2)
    elems = oracles.elements(ns)
    found = any(
        oracles.compose(oracles.pointwise_add(g, h), f)
        != oracles.pointwise_add(oracles.compose(g, f), oracles.compose(h, f))
        for f in elems for g in elems[:8] for h in elems[:8])
    assert found


@given(map_and_n)
def test_aperiodicity_every_map(t):
    n, f = t
    two = oracles.pointwise_add(f, f)
    assert oracles.pointwise_add(two, f) == two


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), fmaps(n), fmaps(n, zero_preserving=True))))
def test_composition_support_random(t):
    n, f, g = t
    assert oracles.support(oracles.compose(f, g)) <= oracles.support(f)


def test_composition_support_exhaustive_nonconstant(closure_of):
    ns = closure_of(2)
    nonconstant = [g for g in oracles.elements(ns)
                   if not isinstance(oracles.classify(g), oracles.Constant)]
    for f in oracles.elements(ns):
        for g in nonconstant:
            assert oracles.support(oracles.compose(f, g)) <= oracles.support(f)


@given(two_maps)
def test_pointwise_add_matches_evaluate(t):
    n, f, g = t
    h = oracles.pointwise_add(f, g)
    for x in range(brandt.size(n)):
        assert h[x] == oracles.add(f[x], g[x], n)


@given(two_maps)
def test_compose_applies_left_argument_first(t):
    n, f, g = t
    h = oracles.compose(f, g)
    for x in range(brandt.size(n)):
        assert h[x] == g[f[x]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_render_bijection(n):
    forms = oracles.all_canonical(n)
    tables = [oracles.render(c, n) for c in forms]
    assert len(set(tables)) == len(tables)
    for c, f in zip(forms, tables):
        assert oracles.classify(f) == c
    ct = formulas.counts(n)
    assert len(forms) == ct.a_plus_total
    keys = [oracles.canonical_key(c) for c in forms]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_breakup_by_shape(n):
    from collections import Counter
    shapes = Counter(type(c).__name__ for c in oracles.all_canonical(n))
    ct = formulas.counts(n)
    assert shapes.get("Zero", 0) == ct.breakup["zero"]
    assert shapes.get("Constant", 0) == ct.breakup["full"]
    assert shapes.get("Singleton", 0) == ct.breakup["singleton"]
    assert shapes.get("NSupport", 0) == ct.breakup["n_support"]


def test_classify_rejects_non_closure_tables():
    n = 3
    m = n * n + 1
    two_support = [brandt.THETA] * m
    two_support[1] = 1
    two_support[2] = 2
    theta_moved = [brandt.THETA] * m
    theta_moved[0] = 1
    column_not_permutation = [brandt.THETA] * m
    for i in range(1, n + 1):
        column_not_permutation[brandt.pair(i, 1, n)] = brandt.pair(1, 1, n)
    tables = [two_support, theta_moved, column_not_permutation]
    for t in tables:
        with pytest.raises(maps.NotAffineElement):
            oracles.classify(tuple(t))
    assert maps.rank(np.array(tables), n).tolist() == [-1] * len(tables)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_of_canonical_family_is_its_position(n):
    rows = np.array([oracles.render(c, n) for c in oracles.all_canonical(n)])
    assert maps.rank(rows, n).tolist() == list(range(len(rows)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rank_inverts_the_canonical_tables(n):
    # `fields` decodes, `canonical_tables` scatters, and `rank` encodes back
    E = maps.canonical_tables(n)
    assert np.array_equal(maps.rank(E, n), np.arange(len(E)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fields_tables_and_tokens_match_the_case_by_case_forms(n):
    family, F, E = oracles.all_canonical(n), maps.fields(n), maps.canonical_tables(n)
    assert F.dtype == np.int32 and not F.flags.writeable and not E.flags.writeable
    assert F.tolist() == [list(oracles.fields_of(c, n)) for c in family]
    assert E.tolist() == [list(oracles.render(c, n)) for c in family]
    assert maps.tokens(range(len(family)), n) == [oracles.canonical_str(c) for c in family]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rank_agrees_with_classify_on_perturbed_tables(n):
    family = {oracles.canonical_key(c): i for i, c in enumerate(oracles.all_canonical(n))}
    rows = np.array([oracles.render(c, n) for c in oracles.all_canonical(n)])
    rng = np.random.default_rng(n)
    rows = rows[rng.integers(0, len(rows), size=1000 if n <= 3 else 300)]
    for _ in range(2):  # change up to two cells per table
        cells = rng.integers(0, n * n + 1, size=len(rows))
        rows[np.arange(len(rows)), cells] = rng.integers(0, n * n + 1, size=len(rows))
    classified, first_outside = [], None
    for f, r in zip(rows.tolist(), maps.rank(rows, n)):
        try:
            c = oracles.classify(tuple(f))
            expected = family[oracles.canonical_key(c)]
            classified.append(c)
        except maps.NotAffineElement:
            expected = -1
            first_outside = first_outside or tuple(f)
        assert r == expected, f
    assert [oracles.all_canonical(n)[r]
            for r in maps.member_ranks(rows[maps.rank(rows, n) >= 0], n)] == classified
    with pytest.raises(maps.NotAffineElement, match=re.escape(str(first_outside))):
        maps.member_ranks(rows, n)


def _expected_ranks(rows, n):
    """The oracle's index of each row of codes, or -1 for a row outside the
    four shapes."""
    family = {oracles.canonical_key(c): i for i, c in enumerate(oracles.all_canonical(n))}
    out = []
    for f in rows.tolist():
        try:
            out.append(family[oracles.canonical_key(oracles.classify(tuple(f)))])
        except maps.NotAffineElement:
            out.append(-1)
    return out


@pytest.mark.parametrize("n", [2, 3, 6])
def test_rank_finds_whole_rows_and_nothing_near_them(n):
    E, w = maps.canonical_tables(n), n * n + 1
    rng = np.random.default_rng(n)
    picked = rng.choice(len(E), size=min(40, len(E)), replace=False)
    cells = rng.integers(0, w, size=len(picked))
    near = []  # rows one cell away from a canonical row, in int64
    for r, c in zip(picked.tolist(), cells.tolist()):
        for delta in (256, -256, 512, -int(E[r, c]) - 1):  # wraps onto the row in uint8, or < 0
            row = E[r].astype(np.int64)
            row[c] += delta
            near.append(row)
    near = np.array(near)
    assert maps.rank(near, n).tolist() == [-1] * len(near)
    wide = E[picked].copy()  # uint8 codes past n^2, which no canonical row holds
    wide[np.arange(len(picked)), cells] = rng.integers(w, 256, size=len(picked))
    assert maps.rank(wide, n).tolist() == [-1] * len(picked)
    # a trailing code 32 is a space byte, which a byte-string comparison must not strip
    spaced = np.flatnonzero(E[:, -1] == 32)
    assert len(spaced) == (122 if n == 6 else 0)
    assert np.array_equal(maps.rank(E[spaced], n), spaced)
    # the trailing cell: theta (a NUL byte) changed to a code, and a code to theta
    tail = E[np.concatenate([np.flatnonzero(E[:, -1] == 0)[:20], np.flatnonzero(E[:, -1] != 0)[:20],
                             spaced])]
    tail[:, -1] = np.where(tail[:, -1] == 0, rng.integers(1, w, size=len(tail)), 0)
    assert maps.rank(tail, n).tolist() == _expected_ranks(tail, n)
    assert (maps.rank(tail, n) == -1).any()
    # the layout of the input does not matter, only its rows
    every = np.arange(len(E))
    assert np.array_equal(maps.rank(np.asfortranarray(E), n), every)
    assert np.array_equal(maps.rank(E[::-3], n), every[::-3])
    spread = np.zeros((len(E), 2 * w), dtype=np.int16)
    spread[:, ::2] = E
    assert np.array_equal(maps.rank(spread[:, ::2], n), every)


def test_rank_holds_no_copy_of_its_input():
    # one block of rows at a time: the peak stays below the codes' own bytes
    rows = generators.enumerate_aff(6).members
    maps.rank(rows, 6)  # fills the caches it reads
    tracemalloc.start()
    try:
        r = maps.rank(rows, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r >= 0).all() and rows.nbytes == 960_409
    assert peak < rows.nbytes


@pytest.mark.parametrize("op", ["+", "o"])
def test_products_rank_every_pair(op):
    n = 2
    family = np.array([oracles.render(c, n) for c in oracles.all_canonical(n)])
    rng = np.random.default_rng(7)
    # arbitrary tables as well as members, and enough rows for several blocks
    F = np.concatenate([family[rng.integers(0, len(family), 400)],
                        rng.integers(0, n * n + 1, size=(100, n * n + 1))])
    G = family
    per_pair = oracles.pointwise_add if op == "+" else oracles.compose
    blocks = list(maps.products(F, G, op, n))
    assert len(blocks) > 1 and [lo for lo, _ in blocks] == sorted({lo for lo, _ in blocks})
    ranks = np.concatenate([r for _, r in blocks])
    expected = maps.rank(np.array([per_pair(tuple(f), tuple(g))
                                   for f in F.tolist() for g in G.tolist()]), n)
    assert ranks.shape == (len(F), len(G))
    assert ranks.ravel().tolist() == expected.tolist()
    assert (ranks < 0).any()


def test_classify_n1_one_support_is_column_shape():
    f = (brandt.THETA, brandt.pair(1, 1, 1))
    c = oracles.classify(f)
    assert isinstance(c, oracles.NSupport)
    assert (c.k, c.q, c.sigma) == (1, 1, (1,))


def test_singleton_forbidden_at_n1():
    # the one 1-support element at n=1 is the column map (1,1;[1])
    assert "<(1,1)->(1,1)>" not in maps.tokens(range(len(oracles.all_canonical(1))), 1)
    assert oracles.map_str((brandt.THETA, 1)) == "(1,1;[1])"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_str_round_trip(n):
    family = oracles.all_canonical(n)
    table = maps.tokens(maps.member_ranks(maps.canonical_tables(n), n), n)
    assert table == [oracles.canonical_str(c) for c in family]
    assert len(set(table)) == len(table)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_image_invariant_on_closure_elements(n):
    # every nonzero image of a closure element shares one second coordinate
    for c in oracles.all_canonical(n):
        f = oracles.render(c, n)
        qs = {oracles.proj2(v, n) for v in f if v != brandt.THETA}
        ii = qs.pop() if len(qs) == 1 else None
        if isinstance(c, oracles.Zero):
            assert ii is None
        elif isinstance(c, oracles.Constant):
            assert ii == c.alpha[1]
        elif isinstance(c, oracles.Singleton):
            assert ii == c.dst[1]
        else:
            assert ii == c.q


def test_map_n_rejects_bad_length():
    with pytest.raises(ValueError):
        oracles.map_n((0, 0, 0))  # length 3 is not n^2+1 for any n


# --- least_labels against the union-find oracle ---------------------------------

def _index_maps(m):
    """Index arrays on range(m): permutations, least-member labellings of a
    partition (as `green` makes them), and arbitrary maps."""
    perms = st.permutations(range(m))
    partitions = st.lists(st.integers(0, m - 1), min_size=m, max_size=m).map(
        lambda block: [block.index(b) for b in block])  # each block's least member
    functions = st.lists(st.integers(0, m - 1), min_size=m, max_size=m)
    return st.one_of(perms, partitions, functions)


@given(st.integers(1, 40).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(_index_maps(m), max_size=4))))
def test_least_labels_match_union_find(t):
    m, maps_ = t
    got = maps.least_labels([np.array(f) for f in maps_], m)
    assert got.tolist() == oracles.union_find_labels(maps_, m)


def test_least_labels_of_no_maps_and_of_one_index():
    assert maps.least_labels((), 5).tolist() == [0, 1, 2, 3, 4]
    assert maps.least_labels((), 1).tolist() == [0]
    assert maps.least_labels((np.zeros(1, dtype=np.uint16),), 1).tolist() == [0]


def test_least_labels_join_a_staircase_over_many_rounds(monkeypatch):
    # R-like blocks {p0, p1}, {p2, p3}, ... and L-like blocks {p1, p2}, {p3, p4},
    # ... along a path p_j = 19 - j, so the least member 0 sits at the far
    # end and each pass carries it one block further: a join that a
    # rectangular D-class (every R-class meeting every L-class) never needs
    m = 20
    path = list(range(m - 1, -1, -1))
    r, l = list(range(m)), list(range(m))
    for j in range(0, m - 1, 2):
        r[path[j]] = path[j + 1]
    for j in range(1, m - 1, 2):
        l[path[j]] = path[j + 1]
    rounds = []
    equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: rounds.append(1) or equal(a, b))
    got = maps.least_labels((np.array(r), np.array(l)), m)
    assert got.tolist() == [0] * m == oracles.union_find_labels((r, l), m)
    assert len(rounds) > 2


# --- the S_n action on canonical indices ------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sn_action_is_the_group_the_index_permutations_generate(n):
    a = maps.sn_action(n)
    G, m = a.group, len(maps.canonical_tables(n))
    every = np.arange(m)
    assert G.shape == (math.factorial(n), m) and G.dtype == np.uint16 and not G.flags.writeable
    assert np.array_equal(G[0], every)
    rows = {row.tobytes() for row in G}
    assert len(rows) == len(G)
    for P in maps.index_permutations(n):  # closed under the generators
        assert all(P[row].tobytes() in rows for row in G)
    assert all(np.array_equal(G[h][G[a.inverse[h]]], every) for h in range(len(G)))
    assert np.array_equal(a.labels, maps.orbit_labels(n))
    assert np.array_equal(a.reps, np.flatnonzero(a.labels == every))
    assert np.array_equal(G[a.g, a.labels], every)  # x = G[g_x] r_x
    first = [min(h for h in range(len(G)) if G[h, a.labels[x]] == x) for x in range(m)]
    assert a.g.tolist() == first


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sn_action_is_conjugation_by_every_permutation(n):
    # each row is conjugation by one phi_pi, composed as tables, and every
    # pi of S_n gives one
    from ans import generators
    E = [tuple(f) for f in maps.canonical_tables(n).tolist()]
    rank = {f: i for i, f in enumerate(E)}
    want = set()
    for pi in brandt.enumerate_sn(n):
        phi = generators.phi_sigma(pi, n)
        phi_inv = generators.phi_sigma(oracles.perm_inverse(pi), n)
        want.add(tuple(rank[oracles.compose(oracles.compose(phi_inv, f), phi)] for f in E))
    assert {tuple(row) for row in maps.sn_action(n).group.tolist()} == want


def test_trivial_action_makes_every_index_its_own_representative():
    a = maps.trivial_action(5)
    assert a.group.tolist() == [[0, 1, 2, 3, 4]] and a.inverse.tolist() == [0]
    assert a.reps.tolist() == a.labels.tolist() == [0, 1, 2, 3, 4] and not a.g.any()


def test_an_n_beyond_uint16_ranks_is_refused_before_any_table(monkeypatch):
    # n = 7 has 249,411 elements, which uint16 ranks would wrap; the refusal
    # is arithmetic, so no canonical table is built (from `fields`) for it
    rendered = []
    monkeypatch.setattr(maps, "fields", lambda n: rendered.append(n))
    message = re.escape("n=7 gives 249,411 elements, beyond the 65,536 indices of uint16 ranks")
    for build in (maps.index_permutations, maps.orbit_labels, maps.sn_action):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(7)
    assert rendered == []
