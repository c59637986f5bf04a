"""Conjugation by Aut(B_n) ≅ S_n: index permutations, orbit-built tables,
the battery's symmetric table check against the direct path, and the
`symmetric` mark that lets a scan visit one element per orbit."""

import dataclasses
import random
import signal
import tracemalloc

import numpy as np
import pytest

from ans import brandt, cli, closure, generators, green, maps, verify
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
        assert [E[r] for r in P] == [maps.compose(maps.compose(phi_inv, f), phi) for f in E]
        assert P.dtype == np.uint16 and not P.flags.writeable
        for t in (ns.add_table, ns.mul_table):  # t[P f, P g] = P t[f, g]
            assert np.array_equal(t[np.ix_(P, P)], P[t])


def test_index_permutations_at_n4_are_bijections():
    perms = maps.index_permutations(4)
    assert len(perms) == 2
    for P in perms:
        assert np.array_equal(np.sort(P), np.arange(657))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_tables_equal_fill_tables(closure_of, n):
    ns = closure_of(n)
    add_t, mul_t = oracles.fill_tables(n)
    assert np.array_equal(ns.add_table, add_t) and np.array_equal(ns.mul_table, mul_t)
    assert ns.add_table.dtype == ns.mul_table.dtype == closure.TABLE_DTYPE


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
    _, reps, _ = closure.labelling(ns)  # a build is marked
    assert len(reps) == orbits
    assert reps.tolist() == sorted(set(least.values()))


def test_closure_refuses_generators_not_closed_under_conjugation():
    class Lopsided:
        n = 2
        members = (maps.zero_map(2), maps.constant_map(1, 2))

        def __len__(self):
            return 2

    with pytest.raises(ValueError, match="conjugation"):
        closure.additive_closure(Lopsided())


def _direct_witness(ns):
    """The check's witness as the direct path gives it: the first cell,
    row-major, where a table differs from `fill_tables`."""
    add_t, mul_t = oracles.fill_tables(ns.n)
    for label, got, want in (("add", ns.add_table, add_t), ("mul", ns.mul_table, mul_t)):
        bad = np.argwhere(got != want)
        if bad.size:
            i, j = map(int, bad[0])
            return f"{label}_table[{i},{j}] is {int(got[i, j])}, recomputed {int(want[i, j])}"
    return ""


def _tables_check(ns):
    results = verify.run_battery(ns.n, ns=ns)
    return next(r for r in results if r.name == TABLES_CHECK)


def _copy(ns):
    return closure.NearSemiring(ns.n, ns.add_table.copy(), ns.mul_table.copy())


def _reps(ns):
    return np.flatnonzero(maps.orbit_labels(ns.n) == np.arange(len(ns)))


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
@pytest.mark.parametrize("row_kind", ["representative", "other"])
def test_tampered_cell_fails_with_direct_witness(closure_of, table, row_kind):
    bad = _copy(closure_of(3))
    reps = _reps(bad)
    rows = reps if row_kind == "representative" else np.setdiff1d(np.arange(len(bad)), reps)
    i = int(rows[len(rows) // 2])
    t = getattr(bad, table)
    t[i, 5] = (int(t[i, 5]) + 1) % len(bad)
    check = _tables_check(bad)
    assert not check.passed
    assert "recomputed" in check.details
    assert check.details == _direct_witness(bad)


@pytest.mark.parametrize("tables", [["add_table"], ["mul_table"], ["add_table", "mul_table"]])
def test_failed_proof_ranks_the_direct_rows_a_block_at_a_time(closure_of, tables):
    # the witness needs no second pair of tables: the peak stays below the
    # bytes of the two under test (1.73 MB at n = 4); with both tampered,
    # the add table is named though the mul cell comes first row-major
    bad = _copy(closure_of(4))
    for row, table in zip((600, 100), tables):
        t = getattr(bad, table)
        t[row, 5] = (int(t[row, 5]) + 1) % len(bad)
    tracemalloc.start()
    try:
        witness, proved = closure.tables_witness(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert proved is None and witness == _direct_witness(bad)
    assert peak < bad.add_table.nbytes + bad.mul_table.nbytes


def test_a_late_mul_breach_ranks_only_the_mul_table(closure_of, monkeypatch):
    # only the last mul cell is wrong: the add table passes its own proof,
    # so no sum is checked over all 657 rows before the mul table is named,
    # and the one cell ranked is the witness
    bad = _copy(closure_of(4))
    bad.mul_table[-1, -1] = (int(bad.mul_table[-1, -1]) + 1) % len(bad)
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
    witness, proved = closure.tables_witness(bad)
    assert proved is None and witness == expected and expected.startswith("mul_table[656,656]")
    m = len(bad)
    assert ("mul", m, m) in checks and ("add", m, m) not in checks
    assert ranked == [1]


@pytest.mark.parametrize("case", range(40))
def test_seeded_tampers_fail_with_direct_witness(closure_of, case):
    # 1-3 cells per tampered table, in one table or both, each on a
    # representative or another row, at a seeded random column
    rng = random.Random(case)
    bad = _copy(closure_of(3))
    m, reps = len(bad), _reps(bad)
    others = np.setdiff1d(np.arange(m), reps)
    for table in rng.choice([["add_table"], ["mul_table"], ["add_table", "mul_table"]]):
        t = getattr(bad, table)
        for _ in range(rng.randint(1, 3)):
            i, j = int(rng.choice(rng.choice([reps, others]))), rng.randrange(m)
            t[i, j] = (int(t[i, j]) + rng.randrange(1, m)) % m
    witness, proved = closure.tables_witness(bad)
    assert proved is None and witness == _direct_witness(bad) != ""


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
    # which every conjugation fixes, so the forged table stays equivariant
    ns = closure_of(n)
    bad = _copy(ns)
    perms = maps.index_permutations(n)
    orbit = _cell_orbit(perms, len(ns) - 1, 1)
    assert len({a for a, _ in orbit}) > 1  # the forgery spans several rows
    for a, b in orbit:
        assert bad.mul_table[a, b] == b != 0
        bad.mul_table[a, b] = 0
    for P in perms:
        assert np.array_equal(bad.mul_table[np.ix_(P, P)], P[bad.mul_table])
    check = _tables_check(bad)
    assert not check.passed
    assert check.details == _direct_witness(bad)


@pytest.mark.parametrize("n", [2, 3])
def test_wrong_index_permutation_fails_the_check(closure_of, monkeypatch, n):
    ns = closure_of(n)
    real = maps.index_permutations(n)
    wrong = real[0].copy()
    wrong[[1, 2]] = wrong[[2, 1]]  # swap the images of xi(1,1) and xi(1,2)
    monkeypatch.setattr(maps, "index_permutations", lambda _n: (wrong,) + real[1:])
    check = _tables_check(ns)
    assert not check.passed
    assert check.details == "add_table is not invariant under index permutation 0"


# --- the orbit quotient on marked tables against the full scans on unmarked ---

def _marked_and_unmarked(ns):
    """Two views of the tables of `ns`, arrays shared: marked by the proof
    of `tables_witness`, and unmarked."""
    plain = dataclasses.replace(ns, symmetric=False)
    witness, proved = closure.tables_witness(plain)
    assert witness == "" and proved.symmetric
    assert proved.add_table is ns.add_table and proved.mul_table is ns.mul_table
    return proved, plain


def _subset_names(label):
    other = {"additive": "N", "multiplicative": "K"}[label]
    return [name for name in green.SUBSET_NAMES if name != other]


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quotient_scans_match_the_full_scans(closure_of, n, label):
    marked, plain = _marked_and_unmarked(closure_of(n))
    labels, _, _ = closure.labelling(marked)
    assert len(set(labels.tolist())) == {1: 3, 2: 15, 3: 27, 4: 39}[n]
    assert np.array_equal(closure.labelling(plain)[1], np.arange(len(plain)))
    sg, full_sg = marked.reduct(label), plain.reduct(label)
    assert sg.symmetric and not full_sg.symmetric
    full = green.regular_elements(full_sg)
    assert np.array_equal(green.regular_elements(sg), full)
    assert green.eventual_regularity(sg, full) == green.eventual_regularity(full_sg, full)
    assert green.green_brute(sg) == green.green_brute(full_sg)
    for name in _subset_names(label):
        assert (repr(green.structural_checks(sg, name))
                == repr(green.structural_checks(full_sg, name)))


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quotient_ideals_match_the_full_fill(closure_of, n, label):
    marked, plain = _marked_and_unmarked(closure_of(n))
    got, want = green.ideals(marked.reduct(label)), green.ideals(plain.reduct(label))
    assert len(got) == len(want) == 5
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    if n == 3:
        _assert_ideals_match_set_definitions(marked.reduct(label))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spread_yields_each_other_row_once_from_a_reached_row(closure_of, n):
    # both moves: Cayley rows by P[t[f][P^-1]], packed ideal rows read at P^-1
    marked, plain = _marked_and_unmarked(closure_of(n))
    labels, reps, perms = closure.labelling(marked)
    others = np.flatnonzero(labels != np.arange(len(marked)))
    moved_by = [(t, closure._conjugate_rows) for t in (marked.add_table, marked.mul_table)]
    for label in ("additive", "multiplicative"):
        moved_by += [(rows, green._conjugate_members)
                     for rows in green.ideals(plain.reduct(label))[:3]]
    for t, move in moved_by:
        reached, yielded = np.zeros(len(marked), dtype=bool), []
        reached[reps] = True
        for g, to, rows in closure.spread(t, perms, reps, move, len(t)):
            assert reached[np.argsort(perms[g])[to]].all()  # each source row was reached
            assert np.array_equal(rows, t[to])
            reached[to] = True
            yielded += to.tolist()
        assert sorted(yielded) == others.tolist()  # each other row exactly once


def test_spread_refuses_representatives_that_miss_an_orbit(closure_of):
    # a round over the permutations that reaches no new row raises, naming
    # the rows left, rather than looping: one representative dropped, and
    # no permutation at all
    ns = closure_of(2)
    labels = maps.orbit_labels(2)
    reps = np.flatnonzero(labels == np.arange(len(ns)))
    cases = ((maps.index_permutations(2), reps[:-1], np.count_nonzero(labels == reps[-1])),
             ((), reps, len(ns) - len(reps)))

    def hung(signum, frame):
        raise TimeoutError("spread is still walking after 10 s")

    before = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        for perms, kept, unreached in cases:
            with pytest.raises(AssertionError,
                               match=f"^{unreached} rows lie in no orbit of the representatives$"):
                for _ in closure.spread(ns.add_table, perms, kept, closure._conjugate_rows,
                                        4 * len(ns)):
                    pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quotient_axiom_scan_matches_the_full_scan(closure_of, n):
    marked, plain = _marked_and_unmarked(closure_of(n))
    got = closure.verify_near_semiring(marked)
    want = closure.verify_near_semiring(plain)
    assert got.passed and got.checks == want.checks


def test_quotient_axiom_scan_visits_one_element_per_orbit(closure_of, monkeypatch):
    # at n = 3 both associativities are exhaustive: x runs over the 27
    # representatives on marked tables and all 145 elements on unmarked
    # ones, and each law reports all 145^3 triples
    visited = []
    scan = closure._scan

    def counted(name, fails, blocks, checked):
        blocks = list(blocks)
        visited.append(len(blocks))
        return scan(name, fails, iter(blocks), checked)

    monkeypatch.setattr(closure, "_scan", counted)
    for ns, elements in zip(_marked_and_unmarked(closure_of(3)), (27, 145)):
        visited.clear()
        report = closure.verify_near_semiring(ns)
        assert visited[:2] == [elements, elements]
        assert [c.checked for c in report.checks[:2]] == [145 ** 3] * 2


def test_subset_report_refuses_a_subset_that_is_not_a_union_of_orbits(closure_of):
    marked, plain = _marked_and_unmarked(closure_of(2))
    with pytest.raises(ValueError, match="union of orbits"):  # xi(1,1) but not xi(2,2)
        green.subset_report(marked.reduct("additive"), "sample", [0, 1])
    assert green.subset_report(plain.reduct("additive"), "sample", [0, 1]).size == 2


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
def test_tables_witness_gives_orbit_labels_only_with_a_proof(closure_of, table):
    bad = _copy(closure_of(3))
    t = getattr(bad, table)
    t[7, 5] = (int(t[7, 5]) + 1) % len(bad)
    for tampered in (bad, dataclasses.replace(bad, symmetric=True)):
        witness, proved = closure.tables_witness(tampered)
        assert witness == _direct_witness(bad) and proved is None


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
def test_marked_tables_still_need_the_proof(closure_of, monkeypatch, table):
    bad = dataclasses.replace(_copy(closure_of(3)), symmetric=True)
    t = getattr(bad, table)
    t[7, 5] = (int(t[7, 5]) + 1) % len(bad)
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
    # a hit is marked by the proof of its stored rows, never by the payload:
    # a payload that claims the mark on a wrong cell is refused
    built = cli.load_or_build(2, tmp_path)  # a miss: built, marked, and written
    hit = cli.load_or_build(2, tmp_path)
    assert built.symmetric and hit.symmetric
    assert np.array_equal(hit.add_table, built.add_table)
    assert np.array_equal(hit.mul_table, built.mul_table)
    d = closure.to_dict(built)
    assert "symmetric" not in d
    d["symmetric"] = False
    assert closure.from_dict(d).symmetric
    d["symmetric"] = True
    d["add_table"] = d["add_table"].copy()
    d["add_table"][0, 5] = (int(d["add_table"][0, 5]) + 1) % 29
    with pytest.raises(ValueError, match=r"^add_table\[0,5\] is"):
        closure.from_dict(d)


def test_battery_scans_regularity_on_the_orbit_labels(closure_of, monkeypatch):
    # given unmarked tables, the battery scans the marked ones its proof returns
    _, plain = _marked_and_unmarked(closure_of(3))
    seen = []
    scan = green.regular_elements

    def recorded(sg):
        seen.append(closure.labelling(sg)[0])
        return scan(sg)

    monkeypatch.setattr(green, "regular_elements", recorded)
    assert all(r.passed for r in verify.run_battery(3, plain))
    assert len(seen) == 2 and all(np.array_equal(o, maps.orbit_labels(3)) for o in seen)
