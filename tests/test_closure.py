import json
import random
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from ans import closure, formulas, generators, green, maps, verify
import oracles


@pytest.mark.parametrize("n,expected", [(1, 3), (2, 29), (3, 145), (4, 657)])
def test_closure_size(closure_of, n, expected):
    ns = closure_of(n)
    assert len(ns) == expected
    assert len(ns) == formulas.counts(n).a_plus_total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_support_histogram(closure_of, n):
    ns = closure_of(n)
    assert closure.support_histogram(ns) == formulas.support_histogram_expected(n)
    assert set(closure.support_histogram(ns)) <= {0, 1, n, n * n + 1}


def test_support_breakup_check_fails_on_an_intermediate_size(closure_of, monkeypatch):
    ns = closure_of(2)
    i = next(i for i, f in enumerate(oracles.elements(ns)) if len(oracles.support(f)) == 2)
    real, calls = maps.support_sizes, []

    def support_sizes(rows):  # the first call, the histogram's, sees one more
        calls.append(rows)    # nonzero image: support size 3, between n and n^2+1
        return real(rows) + (len(calls) == 1) * (np.arange(len(rows)) == i)

    monkeypatch.setattr(maps, "support_sizes", support_sizes)
    results = {r.name: r for r in verify.run_battery(2, ns)}
    hist = {0: 1, 1: 16, 2: 7, 3: 1, 5: 4}
    check = results["support breakup matches closed form"]
    assert not check.passed
    assert check.details == (f"measured {hist!r}, "
                             f"expected {formulas.support_histogram_expected(2)!r}")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_contains_generators(closure_of, n):
    ns = closure_of(n)
    elems = set(oracles.elements(ns))
    for f in generators.enumerate_aff(n):
        assert tuple(f.tolist()) in elems


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_elements_are_exactly_the_canonical_family(closure_of, n):
    ns = closure_of(n)
    expected = tuple(oracles.render(c, n) for c in oracles.all_canonical(n))
    assert oracles.elements(ns) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_sum_shape_rules(closure_of, n):
    ns = closure_of(n)
    by_shape = {}
    for f in oracles.elements(ns):
        by_shape.setdefault(type(oracles.classify(f)).__name__, []).append(f)
    nsupp = by_shape["NSupport"]
    consts = by_shape["Constant"]
    for f in nsupp:
        for g in nsupp:
            assert len(oracles.support(oracles.pointwise_add(g, f))) in (0, 1)
        for h in consts:
            assert len(oracles.support(oracles.pointwise_add(h, f))) == 1
            assert len(oracles.support(oracles.pointwise_add(f, h))) in (0, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_near_semiring_axioms(closure_of, n):
    report = closure.verify_near_semiring(closure_of(n))
    assert report.passed, str(report)
    assert len(report.checks) == 3


def test_axiom_check_reports_witness(closure_of):
    ns = closure_of(2)  # the stored row of element 5, the fourth representative
    bad = closure.NearSemiring(2, ns.add_table.copy(), ns.mul_table.copy(), ns.action)
    bad.add_table[3, 4] = (bad.add_table[3, 4] + 1) % len(ns)
    report = closure.verify_near_semiring(bad)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and failing[0].counterexample is not None


# the first pair's first failures differ between row-major and column-major order
@pytest.mark.parametrize("add_cell,mul_cell", [((2, 25), (0, 15)), ((9, 4), (13, 20))])
def test_exhaustive_scan_matches_reference_loop(closure_of, add_cell, mul_cell):
    ns = closure_of(2)
    bad = oracles.dense(ns)  # the trivial group: x runs over every element
    bad.add_table[add_cell] = (bad.add_table[add_cell] + 1) % len(ns)
    bad.mul_table[mul_cell] = (bad.mul_table[mul_cell] + 1) % len(ns)
    report = closure.verify_near_semiring(bad)  # default bounds: exhaustive at n=2
    laws = _reference_laws(bad.add_table, bad.mul_table)
    m = len(ns)
    row_major = [(i, j, k) for i in range(m) for j in range(m) for k in range(m)]
    expected = [_reference_scan(law, row_major) for law in laws]
    assert [(c.passed, c.counterexample) for c in report.checks] == expected
    assert [c.checked for c in report.checks] == [m ** 3] * 3
    assert not any(ok for ok, _ in expected)


def test_every_law_is_scanned_exhaustively_at_n3(closure_of):
    report = closure.verify_near_semiring(closure_of(3))
    assert report.passed
    assert [c.checked for c in report.checks] == [145 ** 3] * 3


def _sample_every_law(monkeypatch, samples):
    """Sample `samples` triples of every law, from seed 3, at any size."""
    monkeypatch.setattr(closure, "_AXIOM_SAMPLES", samples)
    monkeypatch.setattr(closure, "_SEED", 3)
    monkeypatch.setattr(closure, "_EXHAUSTIVE_MAX", 0)


def _reference_laws(add_t, mul_t):
    """Both associativities and left distributivity on dense tables, as
    predicates on one triple, in the report's order."""
    return [lambda i, j, k: add_t[add_t[i, j], k] == add_t[i, add_t[j, k]],
            lambda i, j, k: mul_t[mul_t[i, j], k] == mul_t[i, mul_t[j, k]],
            lambda f, g, h: mul_t[f, add_t[g, h]] == add_t[mul_t[f, g], mul_t[f, h]]]


def _reference_scan(holds, triples):
    """The sampled scan as a plain loop: verdict and first failing triple."""
    for a, b, c in triples:
        if not holds(int(a), int(b), int(c)):
            return False, (int(a), int(b), int(c))
    return True, None


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
def test_sampled_scan_matches_reference_loop(closure_of, monkeypatch, table):
    ns = closure_of(2)
    bad = oracles.dense(ns)
    getattr(bad, table)[7, 11] = (getattr(bad, table)[7, 11] + 1) % len(ns)
    samples, m = 5_000, len(ns)
    _sample_every_law(monkeypatch, samples)
    report = closure.verify_near_semiring(bad)
    laws = _reference_laws(bad.add_table, bad.mul_table)
    triples = closure._draw(random.Random(3), 3 * samples, m).reshape(samples, 3)
    expected = [_reference_scan(law, triples) for law in laws]  # the laws share one stream
    assert [(c.passed, c.counterexample) for c in report.checks] == expected
    assert [c.checked for c in report.checks] == [samples] * 3
    assert not all(ok for ok, _ in expected)


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
def test_sampled_scan_on_the_sn_action_reports_the_drawn_triple(closure_of, monkeypatch,
                                                                 table):
    # each drawn triple is checked moved to its representative's stored row;
    # a fault in the row of a representative that only the identity fixes
    # leaves the table read through the action equivariant, so the moved
    # triple fails exactly when the drawn one does in the dense table
    ns = closure_of(3)
    G, reps = ns.action.group, ns.action.reps
    i = next(i for i, r in enumerate(reps) if np.count_nonzero(G[:, r] == r) == 1)
    bad = closure.NearSemiring(3, ns.add_table.copy(), ns.mul_table.copy(), ns.action)
    getattr(bad, table)[i, 5] = (getattr(bad, table)[i, 5] + 1) % len(ns)
    samples, m = 20_000, len(ns)
    _sample_every_law(monkeypatch, samples)
    report = closure.verify_near_semiring(bad)
    laws = _reference_laws(*(bad.reduct(label).op.dense()
                              for label in ("additive", "multiplicative")))
    triples = closure._draw(random.Random(3), 3 * samples, m).reshape(samples, 3)
    expected = [_reference_scan(law, triples) for law in laws]
    assert [(c.passed, c.counterexample) for c in report.checks] == expected
    assert [c.checked for c in report.checks] == [samples] * 3
    assert not expected[{"add_table": 0, "mul_table": 1}[table]][0] and not expected[2][0]
    assert any(t[0] not in reps for _, t in expected if t)  # a witness as drawn, not as moved


def test_sampled_scan_draws_one_stream_of_the_full_sample_at_n4(closure_of, monkeypatch):
    # three words per triple, shared by the three laws, each checking all of them
    words, draw = [], closure._draw
    monkeypatch.setattr(closure, "_draw", lambda rng, count, m: words.append(count)
                        or draw(rng, count, m))
    report = closure.verify_near_semiring(closure_of(4))
    assert sum(words) == 3 * closure._AXIOM_SAMPLES == 300_000
    assert [c.checked for c in report.checks] == [closure._AXIOM_SAMPLES] * 3
    assert report.passed


@pytest.mark.parametrize("n", [4, 5])
def test_sampled_scan_never_builds_a_dense_table(closure_of, monkeypatch, n):
    # at n = 6 a dense table would be 27,253^2 cells
    def dense(self):
        raise AssertionError("the sampled scan read a whole table")

    monkeypatch.setattr(closure.Table, "dense", dense)
    assert closure.verify_near_semiring(closure_of(n)).passed


def test_sampler_streams_the_same_draws_in_slices(closure_of, monkeypatch):
    count = 3 * (2 * 5_461 + 5_000)  # two whole slices and a part
    for m in (1, 2, 29, 657, 27_253):
        whole = closure._draw(random.Random(3), count, m)
        rng = random.Random(3)
        sliced = [closure._draw(rng, 3 * k, m) for k in (5_461, 5_461, 5_000)]
        assert np.array_equal(np.concatenate(sliced), whole)
        assert whole.dtype == np.intp and 0 <= whole.min() and whole.max() < m
        assert m > 657 or len(np.unique(whole)) == m  # every index is drawn
        assert np.array_equal(closure._draw(random.Random(3), count, m), whole)
    # the laws share each slice and each keeps its first failure, so the
    # verdicts are the same whatever the slice size
    ns = closure_of(2)
    bad = oracles.dense(ns)
    bad.add_table[7, 11] = (bad.add_table[7, 11] + 1) % len(ns)

    def run():
        report = closure.verify_near_semiring(bad)
        return [(c.passed, c.counterexample, c.checked) for c in report.checks]

    _sample_every_law(monkeypatch, 5_000)
    whole = run()
    monkeypatch.setattr(maps, "_BLOCK_CELLS", 6 * 700)  # 700 triples per slice
    assert run() == whole and not whole[0][0]


def test_closure_rejects_generators_whose_sums_leave_the_shapes():
    # End(B_2) holds the automorphisms, which have no closure shape; sums of
    # shaped tables always keep a shape, so the witness is such a generator
    gens = generators.enumerate_end(2)
    witness = next(tuple(f.tolist()) for f in gens.members if maps.rank(f[None], 2)[0] < 0)
    with pytest.raises(maps.NotAffineElement, match=re.escape(str(witness))):
        closure.additive_closure(gens)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closure_ranks_each_representative_row_once_per_product(monkeypatch, n):
    # the fixpoint reads its sums off the representatives' additive rows, so
    # the product kernel sees only those rows, each ranked once
    gens = generators.enumerate_aff(n)  # before the count: it ranks End x Const
    real, received = maps.products, {"+": [], "o": []}

    def products(F, G, op, n):
        received[op] += maps.rank(F, n).tolist()
        return real(F, G, op, n)

    monkeypatch.setattr(maps, "products", products)
    closure.additive_closure(gens)
    reps = np.flatnonzero(maps.orbit_labels(n) == np.arange(len(oracles.all_canonical(n))))
    assert received == {"+": reps.tolist(), "o": reps.tolist()}


def test_a_closure_that_misses_is_refused_before_any_table_is_allocated():
    # sums of constants are constants, so the closure misses the first singleton
    gens = generators.enumerate_constants(4)
    missed = re.escape("the closure misses <(1,1)->(1,1)>")
    with pytest.raises(ValueError, match=missed):  # fills the caches the build reads
        closure.additive_closure(gens)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=missed):
            closure.additive_closure(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 657 ** 2 * np.dtype(closure.TABLE_DTYPE).itemsize  # one table, 0.86 MB


@pytest.mark.parametrize("n", [2, 3])
def test_fill_and_orbit_tables_name_the_first_product_outside_the_shapes(monkeypatch, n):
    # sums of canonical tables keep a shape, so mark some as outside: on
    # orbit representatives' rows, which `additive_closure` ranks directly
    gens = generators.enumerate_aff(n)  # before the patch: it ranks End x Const
    reps = np.flatnonzero(maps.orbit_labels(n) == np.arange(len(oracles.all_canonical(n))))
    r1, r2 = int(reps[1]), int(reps[-1])
    # (r1, 11) has both products outside: a sum outside is named first
    marked = {("+", r2, 3), ("+", r1, 11), ("o", r1, 11), ("o", r1, 7), ("+", r1, 20)}
    real = maps.products

    def products(F, G, op, n):
        rows, cols = maps.rank(F, n).tolist(), maps.rank(G, n).tolist()
        for lo, ranks in real(F, G, op, n):
            ranks = ranks.copy()
            for i in range(len(ranks)):
                for j, g in enumerate(cols):
                    if (op, rows[lo + i], g) in marked:
                        ranks[i, j] = -1
            yield lo, ranks

    monkeypatch.setattr(maps, "products", products)

    def build(n):
        return closure.additive_closure(gens)

    for fill in (oracles.fill_tables, build):
        with pytest.raises(AssertionError, match=re.escape(
                f"closure not multiplicatively closed at ({r1},7)")):
            fill(n)
    marked.discard(("o", r1, 7))
    for fill in (oracles.fill_tables, build):
        with pytest.raises(AssertionError, match=re.escape(
                f"closure not additively closed at ({r1},11)")):
            fill(n)


def test_tables_match_pointwise_definitions(closure_of):
    # every cell read through the tables' S_n action, 15 of 29 rows stored
    ns = closure_of(2)
    add, mul = ns.reduct("additive").op, ns.reduct("multiplicative").op
    elems = oracles.elements(ns)
    idx = {f: i for i, f in enumerate(elems)}
    for i, f in enumerate(elems):
        for j, g in enumerate(elems):
            assert add[i, j] == idx[oracles.pointwise_add(f, g)]
            assert mul[i, j] == idx[oracles.compose(f, g)]


def test_closure_names_the_least_element_it_misses():
    # constants sum to constants: the fixpoint reaches 5 of the 29 elements
    with pytest.raises(ValueError, match=re.escape("the closure misses <(1,1)->(1,1)>")):
        closure.additive_closure(generators.enumerate_constants(2))


def test_n_cap_enforced():
    class Seven:
        n = 7
        members = ((0,) * 50,)

        def __len__(self):
            return 1

    with pytest.raises(ValueError, match="exceeds cap"):
        closure.additive_closure(Seven())
    assert closure.DEFAULT_N_CAP == 6


def test_json_round_trip(closure_of):
    ns = closure_of(2)
    d = closure.to_dict(ns)
    text = json.dumps(d, default=np.ndarray.tolist)
    back = closure.from_dict(json.loads(text))
    assert back.action is ns.action is maps.sn_action(2)
    assert np.array_equal(back.add_table, ns.add_table)
    assert np.array_equal(back.mul_table, ns.mul_table)
    again = closure.to_dict(back)
    assert all(np.array_equal(again[k], d[k]) for k in d) and again.keys() == d.keys()


def test_to_dict_stores_the_representatives_rows_only(closure_of):
    # 15 of the 29 rows at n = 2, as uint16, and no element list
    ns = closure_of(2)
    d = closure.to_dict(ns)
    reps = np.flatnonzero(maps.orbit_labels(2) == np.arange(29))
    assert sorted(d) == ["add_table", "format_version", "mul_table", "n"]
    assert d["format_version"] == closure.FORMAT_VERSION == 2 and d["n"] == 2
    for key, whole in zip(("add_table", "mul_table"), oracles.fill_tables(2)):
        assert d[key].dtype == np.uint16 and d[key].shape == (len(reps), 29) == (15, 29)
        assert np.array_equal(d[key], whole[reps])


def test_from_dict_rejects_bad_payloads(closure_of):
    ns = closure_of(2)
    good = closure.to_dict(ns)
    rows = good["add_table"]

    wrong_version = dict(good, format_version=1)
    with pytest.raises(ValueError, match="format version"):
        closure.from_dict(wrong_version)

    # a whole table is not the stored rows
    dense = dict(good, add_table=ns.reduct("additive").op.dense())
    with pytest.raises(ValueError, match=re.escape("shape (29, 29) is not the rows of the "
                                                   "15 orbit representatives over 29")):
        closure.from_dict(dense)

    short = dict(good, mul_table=good["mul_table"][:-1])
    with pytest.raises(ValueError, match=re.escape("shape (14, 29)")):
        closure.from_dict(short)

    floats = dict(good, add_table=rows.astype(float))
    with pytest.raises(ValueError, match="not an integer array"):
        closure.from_dict(floats)

    out_of_range = dict(good, add_table=[[10 ** 6] * len(ns)] * len(rows))
    with pytest.raises(ValueError, match="out-of-range"):
        closure.from_dict(out_of_range)

    negative = dict(good, mul_table=[[-1] * len(ns)] * len(rows))
    with pytest.raises(ValueError, match="out-of-range"):
        closure.from_dict(negative)

    wrong_cell = dict(good, mul_table=good["mul_table"].copy())
    wrong_cell["mul_table"][3, 4] = (int(wrong_cell["mul_table"][3, 4]) + 1) % 29
    with pytest.raises(ValueError, match=r"^mul_table\[5,4\] is \d+, recomputed \d+$"):
        closure.from_dict(wrong_cell)


@pytest.mark.parametrize("n", [2, 3])
def test_from_dict_names_the_first_wrong_stored_cell(closure_of, n):
    # seeded edits of stored cells, one table or both: the first wrong cell,
    # add before mul and row-major within a table, is the one named
    ns = closure_of(n)
    good = closure.to_dict(ns)
    reps = np.flatnonzero(maps.orbit_labels(n) == np.arange(len(ns)))
    rng = random.Random(n)
    for _ in range(20):
        d = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in good.items()}
        edits = []
        for key in rng.choice([["add_table"], ["mul_table"], ["add_table", "mul_table"]]):
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(len(reps)), rng.randrange(len(ns))
                d[key][i, j] = (int(d[key][i, j]) + rng.randrange(1, len(ns))) % len(ns)
                edits.append((key, i, j))
        key, i, j = min((k, i, j) for k, i, j in edits if d[k][i, j] != good[k][i, j])
        want = f"{key}[{reps[i]},{j}] is {d[key][i, j]}, recomputed {getattr(ns, key)[i, j]}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            closure.from_dict(d)


def test_from_dict_refuses_n_over_cap(closure_of):
    with pytest.raises(ValueError, match="exceeds cap"):
        closure.from_dict(dict(closure.to_dict(closure_of(1)), n=closure.DEFAULT_N_CAP + 1))


@pytest.mark.parametrize("n", [True, 1.0])
def test_library_entry_points_refuse_an_n_that_is_not_an_int(closure_of, n):
    # True == 1.0 == 1, so only the type tells them from the n = 1 closure's n
    payload = dict(closure.to_dict(closure_of(1)), n=n)
    calls = [partial(closure.check_n_cap, n), partial(closure.from_dict, payload),
             partial(generators.enumerate_aff, n)]
    calls += [partial(generators.enumerate_kind, kind, n) for kind in formulas.KINDS]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"n={n!r} is not an int")):
            call()


@pytest.mark.parametrize("n", [0, -1])
def test_library_entry_points_refuse_an_n_below_one(closure_of, n):
    # maps.fields would take a negative factorial; the refusal comes first
    payload = dict(closure.to_dict(closure_of(1)), n=n)
    calls = [partial(closure.check_n_cap, n), partial(closure.from_dict, payload)]
    calls += [partial(generators.enumerate_kind, kind, n) for kind in formulas.KINDS]
    for call in calls:
        with pytest.raises(ValueError, match=f"^n must be a positive integer, got {n}$"):
            call()


@pytest.mark.parametrize("value", [70000, -1, 65536 + 3])
def test_from_dict_refuses_int64_table_that_would_wrap(closure_of, value):
    ns = closure_of(2)
    d = closure.to_dict(ns)
    table = d["add_table"].astype(np.int64)
    table[3, 4] = value  # a uint16 cast would wrap it, 65539 to the valid index 3
    with pytest.raises(ValueError, match="out-of-range"):
        closure.from_dict(dict(d, add_table=table))


def test_finite_semigroup_validation(closure_of):
    ns = closure_of(1)
    with pytest.raises(ValueError):
        closure.FiniteSemigroup(1, "additive", np.zeros((2, 5), np.int32))
    with pytest.raises(ValueError):
        closure.FiniteSemigroup(1, "additive", np.full((3, 3), 9, np.int32))
    with pytest.raises(ValueError):
        ns.reduct("bogus")


def test_empty_generator_set_rejected():
    class Empty:
        n = 2

        def __len__(self):
            return 0

    with pytest.raises(ValueError, match="empty"):
        closure.additive_closure(Empty())


def _traced_peak(f, *args):
    """Traced peak bytes of f(*args), once the per-n caches it reads are filled."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_block_budget_bounds_the_axiom_scan_and_the_stabiliser_check(closure_of):
    # in multiples of one intp temporary of a `maps.row_blocks` block (256 KiB):
    # the sampled axiom scan peaked at 678 KB (n = 4) and 870 KB (n = 5), and
    # one table's stabiliser check at 411 KB (n = 5); with twice the cells a
    # block, and every fixed row gathered at once, at 1,306, 1,498 and 1,841 KB
    block = 256 * 1024
    ns4, ns5 = closure_of(4), closure_of(5)
    assert _traced_peak(closure.verify_near_semiring, ns4) < 3 * block
    assert _traced_peak(closure.verify_near_semiring, ns5) < 4 * block
    for label, rows in (("add", ns5.add_table), ("mul", ns5.mul_table)):
        t = closure.Table(rows, ns5.action)
        assert _traced_peak(closure._stabiliser_breach, label, t) < 2 * block
    assert maps._BLOCK_CELLS * np.dtype(np.intp).itemsize == block


def test_no_m_by_m_table_is_allocated_at_n5():
    # a build, its proof and both reducts' Green structures hold the 58
    # representatives' rows, never a table of all 3,651 rows: the peak stays
    # below the bytes of one dense table at n = 5 (26.7 MB)
    gens = generators.enumerate_aff(5)
    tracemalloc.start()
    try:
        ns = closure.additive_closure(gens)
        assert closure.tables_witness(ns) == ""
        for label in ("additive", "multiplicative"):
            green.green_brute(ns.reduct(label))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3651 ** 2 * np.dtype(closure.TABLE_DTYPE).itemsize
