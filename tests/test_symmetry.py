"""Conjugation by Aut(B_n) ≅ S_n: index permutations, the group they
generate and its transversal, tables read through the S_n action against
the direct path, the battery's proof of the tables, and scans that visit
one element per orbit against the same scans over the trivial group."""

import random
import signal
import tracemalloc

import numpy as np
import pytest

from ans import brandt, cli, closure, formulas, generators, green, maps, verify
import oracles
from test_green import _assert_ideals_match_set_definitions

TABLES_CHECK = "Cayley tables reproducible from element list"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_index_permutations_are_conjugations(closure_of, n):
    ns = closure_of(n)
    E = [tuple(f) for f in maps.canonical_tables(n).tolist()]
    perms = maps.index_permutations(n)
    assert len(perms) == len(brandt.sn_generators(n)) == {1: 0, 2: 1, 3: 2}[n]
    for pi, P in zip(brandt.sn_generators(n), perms):
        phi = generators.phi_sigma(pi, n)
        phi_inv = generators.phi_sigma(oracles.perm_inverse(pi), n)
        assert [E[r] for r in P] == [oracles.compose(oracles.compose(phi_inv, f), phi) for f in E]
        assert P.dtype == np.uint16 and not P.flags.writeable
        for t in oracles.fill_tables(n):  # t[P f, P g] = P t[f, g]
            assert np.array_equal(t[np.ix_(P, P)], P[t])


def test_index_permutations_at_n4_are_bijections():
    perms = maps.index_permutations(4)
    assert len(perms) == 2
    for P in perms:
        assert np.array_equal(np.sort(P), np.arange(657))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_tables_equal_fill_tables(closure_of, n):
    # every cell read through the S_n action equals the directly ranked one
    ns = closure_of(n)
    for label, want in zip(("additive", "multiplicative"), oracles.fill_tables(n)):
        got = ns.reduct(label).op.dense()
        assert np.array_equal(got, want) and got.dtype == closure.TABLE_DTYPE
    assert ns.add_table.dtype == ns.mul_table.dtype == closure.TABLE_DTYPE
    assert ns.add_table.shape == (len(ns.action.reps), len(ns))


@pytest.mark.parametrize("n,orbits", [(1, 3), (2, 15), (3, 27), (4, 39)])
def test_orbit_representatives_are_the_least_of_each_orbit(closure_of, n, orbits):
    ns = closure_of(n)
    perms = maps.index_permutations(n)  # on the whole family, positions are ranks
    least = {}
    for start in range(len(ns)):  # walk each orbit from its least member
        if start in least:
            continue
        least[start], frontier = start, [start]
        while frontier:
            f = frontier.pop()
            for P in perms:
                if int(P[f]) not in least:
                    least[int(P[f])] = start
                    frontier.append(int(P[f]))
    reps = ns.action.reps  # a build's tables are its representatives' rows
    assert len(reps) == orbits
    assert reps.tolist() == sorted(set(least.values()))


def test_closure_refuses_generators_not_closed_under_conjugation():
    class Lopsided:
        n = 2
        members = (oracles.zero_map(2), oracles.constant_map(1, 2))

        def __len__(self):
            return 2

    with pytest.raises(ValueError, match="conjugation"):
        closure.additive_closure(Lopsided())


def _direct_witness(ns):
    """The check's witness as the direct path gives it: the first cell,
    row-major, where a table, read through its action, differs from
    `fill_tables`."""
    got_ns, (add_t, mul_t) = oracles.dense(ns), oracles.fill_tables(ns.n)
    for label, got, want in (("add", got_ns.add_table, add_t), ("mul", got_ns.mul_table, mul_t)):
        bad = np.argwhere(got != want)
        if bad.size:
            i, j = map(int, bad[0])
            return f"{label}_table[{i},{j}] is {int(got[i, j])}, recomputed {int(want[i, j])}"
    return ""


def _tables_check(ns):
    results = verify.run_battery(ns.n, ns=ns)
    return next(r for r in results if r.name == TABLES_CHECK)


def _copy(ns):
    return closure.NearSemiring(ns.n, ns.add_table.copy(), ns.mul_table.copy(), ns.action)


def _reps(ns):
    return ns.action.reps


def _stored(ns, x, y):
    """The stored cell, (row of x's representative, column), that the
    table reads for the cell (x, y): y moved by x's transversal element's
    inverse."""
    a = ns.action
    return int(np.searchsorted(a.reps, a.labels[x])), int(a.group[a.inverse[a.g[x]], y])


def _tamper(t, i, j, by, m):
    t[i, j] = (int(t[i, j]) + by) % m


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
@pytest.mark.parametrize("row_kind", ["representative", "other"])
def test_tampered_cell_fails_with_direct_witness(closure_of, table, row_kind):
    # only representatives' rows are stored: another row's cell is tampered
    # at the stored cell it is read from, so its whole orbit of cells is wrong
    bad = _copy(closure_of(3))
    reps = _reps(bad)
    rows = reps if row_kind == "representative" else np.setdiff1d(np.arange(len(bad)), reps)
    _tamper(getattr(bad, table), *_stored(bad, int(rows[len(rows) // 2]), 5), 1, len(bad))
    check = _tables_check(bad)
    assert not check.passed
    assert "recomputed" in check.details
    assert check.details == _direct_witness(bad)


@pytest.mark.parametrize("tables", [["add_table"], ["mul_table"], ["add_table", "mul_table"]])
def test_failed_proof_ranks_the_direct_rows_a_block_at_a_time(closure_of, tables):
    # the witness needs no table of m^2 cells: the peak stays below the
    # bytes of two dense tables (1.73 MB at n = 4); with both tampered, the
    # add table is named though the mul cell comes first row-major
    bad = _copy(closure_of(4))
    for row, table in zip((30, 5), tables):  # stored rows: those of reps[30] and reps[5]
        _tamper(getattr(bad, table), row, 5, 1, len(bad))
    tracemalloc.start()
    try:
        witness = closure.tables_witness(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness == _direct_witness(bad) != ""
    assert peak < 2 * len(bad) ** 2 * np.dtype(closure.TABLE_DTYPE).itemsize


def test_a_late_mul_breach_ranks_only_the_mul_table(closure_of, monkeypatch):
    # only the last stored mul cell is wrong: the add table passes its own
    # proof, so no sum is checked beyond the add table's stored rows and
    # sample before the mul table is named, and the one cell ranked is the
    # witness
    bad = _copy(closure_of(4))
    _tamper(bad.mul_table, -1, -1, 1, len(bad))
    expected = _direct_witness(bad)
    checks, ranked = [], []
    first_wrong, rank = closure._first_wrong, maps.rank

    def checked(label, claimed, op, rows, cols, n):
        checks.append((label, len(rows), len(cols)))
        return first_wrong(label, claimed, op, rows, cols, n)

    def counted(rows, n):
        ranked.append(len(rows))
        return rank(rows, n)

    monkeypatch.setattr(closure, "_first_wrong", checked)
    monkeypatch.setattr(maps, "rank", counted)
    witness = closure.tables_witness(bad)
    m, reps = len(bad), _reps(bad)
    assert witness == expected and expected.startswith(f"mul_table[{reps[-1]},656]")
    assert ("mul", len(reps), m) in checks and ("add", m, m) not in checks
    assert ranked == [1]


@pytest.mark.parametrize("case", range(40))
def test_seeded_tampers_fail_with_direct_witness(closure_of, case):
    # 1-3 cells per tampered table, in one table or both, each on a
    # representative or at the stored cell another row's cell is read from,
    # at a seeded random column
    rng = random.Random(case)
    bad = _copy(closure_of(3))
    m, reps = len(bad), _reps(bad)
    others = np.setdiff1d(np.arange(m), reps)
    for table in rng.choice([["add_table"], ["mul_table"], ["add_table", "mul_table"]]):
        for _ in range(rng.randint(1, 3)):
            x, y = int(rng.choice(rng.choice([reps, others]))), rng.randrange(m)
            _tamper(getattr(bad, table), *_stored(bad, x, y), rng.randrange(1, m), m)
    witness = closure.tables_witness(bad)
    assert witness == _direct_witness(bad) != ""


def _cell_orbit(perms, f, g):
    """The orbit of the cell (f, g) under the diagonal action."""
    orbit, todo = {(f, g)}, [(f, g)]
    while todo:
        a, b = todo.pop()
        for P in perms:
            image = (int(P[a]), int(P[b]))
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


@pytest.mark.parametrize("n", [3, 4])
def test_equivariant_forgery_fails_with_direct_witness(closure_of, n):
    # f o xi(1,1) = xi(1,1); rewrite that cell's whole orbit to the zero map,
    # which every conjugation fixes, at the stored cells it meets, so the
    # forged table stays equivariant and passes the stabiliser check
    ns = closure_of(n)
    bad = _copy(ns)
    perms = maps.index_permutations(n)
    orbit = _cell_orbit(perms, len(ns) - 1, 1)
    assert len({a for a, _ in orbit}) > 1  # the forgery spans several rows
    reps = ns.action.reps
    stored = [(int(np.searchsorted(reps, a)), b) for a, b in orbit if a in reps]
    assert stored
    for i, b in stored:
        assert bad.mul_table[i, b] == b != 0
        bad.mul_table[i, b] = 0
    forged = oracles.dense(bad).mul_table
    for P in perms:
        assert np.array_equal(forged[np.ix_(P, P)], P[forged])
    assert closure._stabiliser_breach("mul", bad.reduct("multiplicative").op) == ""
    check = _tables_check(bad)
    assert not check.passed
    assert check.details == _direct_witness(bad)


WRONG_GROUP_ROW_WITNESS = {2: "add_table[25,1] is 27, recomputed 25",
                           3: "add_table[58,2] is 58, recomputed 59"}


@pytest.mark.parametrize("n", [2, 3])
def test_wrong_index_permutation_fails_the_check(closure_of, monkeypatch, n):
    # a wrong generator, the images of xi(1,1) and xi(1,2) swapped in index
    # permutation 0, is refused before it can act on any table; the closure
    # is built first, so the cached orbit labels are the true ones
    ns = closure_of(n)
    real = maps.index_permutations(n)
    wrong = real[0].copy()
    wrong[[1, 2]] = wrong[[2, 1]]
    with monkeypatch.context() as patched:
        patched.setattr(maps, "index_permutations", lambda _n: (wrong,) + real[1:])
        with pytest.raises(AssertionError) as refused:
            maps.sn_action.__wrapped__(n)
    assert str(refused.value) == (f"the index permutations do not generate S_{n} with the "
                                  "orbits of `orbit_labels`")
    # a wrong group row, the last transversal element with the same swap:
    # the direct sample names the first cell it moves wrongly
    group = ns.action.group.copy()
    h = int(ns.action.g[-1])
    group[h, [1, 2]] = group[h, [2, 1]]
    bad = maps.Action(group, ns.action.inverse, ns.action.reps, ns.action.labels, ns.action.g)
    check = _tables_check(closure.NearSemiring(n, ns.add_table, ns.mul_table, bad))
    assert not check.passed
    assert check.details == WRONG_GROUP_ROW_WITNESS[n]


def _reference_breach(label, rows, group, reps):
    """The first (h, r, y), by row of the group, representative and column,
    with t[r, G[h][y]] != G[h][t[r, y]] though G[h] fixes r, as the witness."""
    for h in range(1, len(group)):
        for i, r in enumerate(reps.tolist()):
            if group[h, r] != r:
                continue
            for y in range(rows.shape[1]):
                gy, ty = int(group[h, y]), int(rows[i, y])
                if rows[i, gy] != group[h, ty]:
                    return (f"{label}_table[{r},{gy}] is {rows[i, gy]}, not {group[h, ty]}, the "
                            f"image of {label}_table[{r},{y}] under permutation {h}, which "
                            f"fixes {r}")
    return ""


def test_stabiliser_breach_names_the_permutation_and_the_cell(closure_of, monkeypatch):
    # row 4 of the group at n = 3 fixes xi(1,1): with the images of the
    # singletons 10 and 11 swapped in it, the first breach by row,
    # representative and column is named, as a plain loop finds it; the
    # true group gives none.  The rows row 4 fixes are those of 0, 1, 91
    # and 92, and both breaches lie in 1's: with one row per block the
    # check reads 0's block first and still names the same cell
    ns = closure_of(3)
    group = ns.action.group.copy()
    group[4, [10, 11]] = group[4, [11, 10]]
    wrong = maps.Action(group, ns.action.inverse, ns.action.reps, ns.action.labels, ns.action.g)
    breaches = []
    for label, rows in (("add", ns.add_table), ("mul", ns.mul_table)):
        breaches.append(closure._stabiliser_breach(label, closure.Table(rows, wrong)))
        assert breaches[-1] == _reference_breach(label, rows, group, ns.action.reps)
        assert closure._stabiliser_breach(label, closure.Table(rows, ns.action)) == ""
    assert all(", which fixes 1" in b for b in breaches)
    monkeypatch.setattr(maps, "_BLOCK_CELLS", 1)  # one row per block
    for (label, rows), breach in zip((("add", ns.add_table), ("mul", ns.mul_table)), breaches):
        assert closure._stabiliser_breach(label, closure.Table(rows, wrong)) == breach
        assert closure._stabiliser_breach(label, closure.Table(rows, ns.action)) == ""


# --- the orbit quotient against the full scans over the trivial group ---------

def _marked_and_unmarked(ns):
    """The tables of `ns`, proved: read through the S_n action, and as
    dense copies over the trivial group."""
    plain = oracles.dense(ns)
    assert closure.tables_witness(ns) == closure.tables_witness(plain) == ""
    return ns, plain


def _subset_names(label):
    other = {"additive": "N", "multiplicative": "K"}[label]
    return [name for name in green.SUBSET_NAMES if name != other]


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quotient_scans_match_the_full_scans(closure_of, n, label):
    marked, plain = _marked_and_unmarked(closure_of(n))
    labels = marked.action.labels
    assert len(set(labels.tolist())) == {1: 3, 2: 15, 3: 27, 4: 39}[n]
    assert np.array_equal(plain.action.reps, np.arange(len(plain)))
    sg, full_sg = marked.reduct(label), plain.reduct(label)
    assert len(sg.op.action.group) == {1: 1, 2: 2, 3: 6, 4: 24}[n]
    assert len(full_sg.op.action.group) == 1
    full = green.regular_elements(full_sg)
    assert np.array_equal(green.regular_elements(sg), full)
    assert green.eventual_regularity(sg, full) == green.eventual_regularity(full_sg, full)
    got, want = (green.green_brute(s, j_order=True) for s in (sg, full_sg))  # the egg-box's call
    assert got == want and np.array_equal(got.j_order, want.j_order)
    for name in _subset_names(label):
        assert (repr(green.structural_checks(sg, name))
                == repr(green.structural_checks(full_sg, name)))


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quotient_ideals_match_the_full_fill(closure_of, n, label):
    # the rows over S_n are those over the trivial group at the orbit
    # representatives, and every element's labels are the same
    marked, plain = _marked_and_unmarked(closure_of(n))
    got, want = green.ideals(marked.reduct(label)), green.ideals(plain.reduct(label))
    assert len(got) == len(want) == 5
    reps = marked.action.reps
    assert all(np.array_equal(a, b[reps]) for a, b in zip(got[:3], want[:3]))
    assert all(np.array_equal(a, b) for a, b in zip(got[3:], want[3:]))
    if n == 3:
        _assert_ideals_match_set_definitions(marked.reduct(label))


def test_spread_refuses_representatives_that_miss_an_orbit(closure_of, monkeypatch):
    # the action the quotient scans read refuses a labelling whose orbits the
    # group does not carry, rather than looping: one representative dropped,
    # and no permutation at all
    labels = maps.orbit_labels(2)
    reps = np.flatnonzero(labels == np.arange(len(labels)))
    dropped = np.where(labels == reps[-1], reps[-2], labels)
    cases = ((maps.index_permutations, lambda n: dropped),
             (lambda n: (), maps.orbit_labels))

    def hung(signum, frame):
        raise TimeoutError("sn_action is still running after 10 s")

    before = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        for perms, orbit_labels in cases:
            monkeypatch.setattr(maps, "index_permutations", perms)
            monkeypatch.setattr(maps, "orbit_labels", orbit_labels)
            with pytest.raises(AssertionError, match="^the index permutations do not "
                                                     "generate S_2 with the orbits"):
                maps.sn_action.__wrapped__(2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)


@pytest.mark.parametrize("moved", [(5, 6), (1, 2, 3)])
def test_sn_action_refuses_a_row_its_key_misreads_or_one_past_n_factorial(monkeypatch,
                                                                          moved):
    # rows are looked up by the images of the zero and constant maps (ranks
    # 0-4 at n = 2): a cycle of ranks 5 and 6 has the identity's key but
    # another row, and a cycle of three constants makes a third row of S_2
    P = np.arange(len(maps.orbit_labels(2)), dtype=np.uint16)
    P[list(moved)] = np.roll(P[list(moved)], 1)
    gens = (*maps.index_permutations(2), P)
    monkeypatch.setattr(maps, "index_permutations", lambda n: gens)
    with pytest.raises(AssertionError, match="^the index permutations do not "
                                             "generate S_2 with the orbits"):
        maps.sn_action.__wrapped__(2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quotient_axiom_scan_matches_the_full_scan(closure_of, n):
    marked, plain = _marked_and_unmarked(closure_of(n))
    got = closure.verify_near_semiring(marked)
    want = closure.verify_near_semiring(plain)
    assert got.passed and got.checks == want.checks


def test_quotient_axiom_scan_visits_one_element_per_orbit(closure_of, monkeypatch):
    # at n = 3 every law is exhaustive: x runs over the 27 representatives
    # under S_n and all 145 elements over the trivial group, one block each,
    # and each law reports all 145^3 triples
    visited = []
    every_pair = closure._every_pair

    def counted(*args):
        blocks = list(every_pair(*args))
        visited.append(len(blocks))
        return iter(blocks)

    monkeypatch.setattr(closure, "_every_pair", counted)
    for ns, elements in zip(_marked_and_unmarked(closure_of(3)), (27, 145)):
        visited.clear()
        report = closure.verify_near_semiring(ns)
        assert visited == [elements]
        assert [c.checked for c in report.checks] == [145 ** 3] * 3


def test_subset_report_refuses_a_subset_that_is_not_a_union_of_orbits(closure_of):
    marked, plain = _marked_and_unmarked(closure_of(2))
    with pytest.raises(ValueError, match="union of orbits"):  # xi(1,1) but not xi(2,2)
        green.subset_report(marked.reduct("additive"), "sample", [0, 1])
    assert green.subset_report(plain.reduct("additive"), "sample", [0, 1]).size == 2


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
def test_tables_witness_gives_orbit_labels_only_with_a_proof(closure_of, table):
    # the same wrong cell is named under S_n, as a stored cell, and over the
    # trivial group, where every cell is stored
    bad = _copy(closure_of(3))
    _tamper(getattr(bad, table), 7, 5, 1, len(bad))
    for tampered in (bad, oracles.dense(bad)):
        assert closure.tables_witness(tampered) == _direct_witness(bad) != ""


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
def test_marked_tables_still_need_the_proof(closure_of, monkeypatch, table):
    bad = _copy(closure_of(3))
    _tamper(getattr(bad, table), 7, 5, 1, len(bad))
    scans = []
    for module, name in ((closure, "verify_near_semiring"), (green, "green_brute"),
                         (green, "regular_elements"), (green, "subset_report"),
                         (green, "structural_checks")):
        monkeypatch.setattr(module, name, lambda *a, name=name: scans.append(name))
    results = verify.run_battery(3, bad)
    assert results[-1].name == TABLES_CHECK and not results[-1].passed
    assert results[-1].details == _direct_witness(bad)
    assert scans == []


def test_from_dict_marks_only_proved_tables(tmp_path):
    # a hit is the stored rows under S_n once every stored cell is proved:
    # the payload names no action, and one wrong cell is refused
    built = cli.load_or_build(2, tmp_path)  # a miss: built and written
    hit = cli.load_or_build(2, tmp_path)
    assert built.action is hit.action is maps.sn_action(2)
    assert np.array_equal(hit.add_table, built.add_table)
    assert np.array_equal(hit.mul_table, built.mul_table)
    d = closure.to_dict(built)
    assert sorted(d) == ["add_table", "format_version", "mul_table", "n"]
    d["add_table"] = d["add_table"].copy()
    d["add_table"][0, 5] = (int(d["add_table"][0, 5]) + 1) % 29
    with pytest.raises(ValueError, match=r"^add_table\[0,5\] is"):
        closure.from_dict(d)


def test_battery_scans_regularity_on_the_orbit_labels(closure_of, monkeypatch):
    # under S_n the scans see the orbit labels; over the trivial group, every
    # element is its own label
    marked, plain = _marked_and_unmarked(closure_of(3))
    seen = []
    scan = green.regular_elements

    def recorded(sg):
        seen.append(sg.op.action.labels)
        return scan(sg)

    monkeypatch.setattr(green, "regular_elements", recorded)
    for ns, labels in ((marked, maps.orbit_labels(3)), (plain, np.arange(145))):
        seen.clear()
        assert all(r.passed for r in verify.run_battery(3, ns))
        assert len(seen) == 2 and all(np.array_equal(o, labels) for o in seen)


# --- the orbit census -------------------------------------------------------------

CENSUS_CHECK = "Aut(B_n) isomorphic to S_n"  # the census is part of this check


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_census_passes_on_the_closure(closure_of, n):
    assert verify._orbit_census(n) == ""
    results = {r.name: r for r in verify.run_battery(n, closure_of(n))}
    assert results[CENSUS_CHECK].passed and results[CENSUS_CHECK].details == ""


def test_orbit_census_failure_fails_the_battery_line(closure_of, monkeypatch):
    real = formulas.orbit_counts
    monkeypatch.setattr(formulas, "orbit_counts", lambda n: dict(real(n), full=4))
    results = verify.run_battery(2, closure_of(2))
    failed = [r for r in results if not r.passed]
    assert [(r.name, r.details) for r in failed] == [(CENSUS_CHECK, "full: 2 orbits, expected 4")]
    assert len(results) == 22


def test_orbit_census_names_the_first_shape_whose_count_differs(monkeypatch):
    real = formulas.orbit_counts
    monkeypatch.setattr(formulas, "orbit_counts",
                        lambda n: dict(real(n), singleton=16, n_support=11))
    assert verify._orbit_census(3) == "singleton: 14 orbits, expected 16"


def test_orbit_census_names_an_orbit_whose_stabiliser_disagrees(monkeypatch):
    # the row carrying xi(1,1) to xi(2,2) made the identity: xi(1,1) then
    # seems fixed by 3 of the 6 rows, and its orbit of 3 would have 2
    real = maps.sn_action(3)
    group = real.group.copy()
    group[real.g[5]] = np.arange(group.shape[1])
    wrong = maps.Action(group, real.inverse, real.reps, real.labels, real.g)
    monkeypatch.setattr(maps, "sn_action", lambda n: wrong)
    assert verify._orbit_census(3) == "full: the orbit of 1 has 3 members, n!/|Stab| = 2"
