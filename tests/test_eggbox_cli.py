import hashlib
import inspect
import io
import json
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import time
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest

from ans import cli, closure, eggbox, formulas, generators, green, maps, verify
import oracles

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
def test_text_rendering_matches_golden(closure_of, label):
    eb = eggbox.build_eggbox(closure_of(2), label)
    expected = (GOLDEN / f"eggbox_n2_{label}.txt").read_text()
    assert eggbox.eggbox_text(eb) == expected


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
def test_json_rendering_matches_golden(closure_of, label):
    eb = eggbox.build_eggbox(closure_of(2), label)
    expected = (GOLDEN / f"eggbox_n2_{label}.json").read_text()
    assert eggbox.render(eb, "json") == expected


def test_n2_block_and_star_counts(closure_of):
    add = eggbox.build_eggbox(closure_of(2), "additive")
    assert len(add.boxes) == 10
    assert add.star_count == 11
    mul = eggbox.build_eggbox(closure_of(2), "multiplicative")
    assert len(mul.boxes) == 3
    assert sorted(len(b.members) for b in mul.boxes) == [5, 8, 16]
    assert mul.star_count == 11


def test_n1_additive_three_starred_singletons(closure_of):
    eb = eggbox.build_eggbox(closure_of(1), "additive")
    assert len(eb.boxes) == 3
    assert eb.star_count == 3
    for box in eb.boxes:
        assert len(box.members) == 1
        assert box.cells == (((box.members[0],),),)
    text = eggbox.eggbox_text(eb)
    assert "3 D-classes, 3 starred" in text
    assert "1 R-class x 1 L-class" in text


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("label", ["additive", "multiplicative"])
def test_cells_partition_each_d_class(closure_of, green_of, n, label):
    eb = eggbox.build_eggbox(closure_of(n), label)
    r_of, l_of = (green_of(n, label).labels[rel].tolist() for rel in ("R", "L"))
    seen = []
    for box in eb.boxes:
        flat = [i for row in box.cells for cell in row for i in cell]
        assert sorted(flat) == sorted(box.members)
        # each row lies in one R-class and each column in one L-class, all distinct
        rows = [{r_of[i] for cell in row for i in cell} for row in box.cells]
        cols = [{l_of[i] for row in box.cells for i in row[c]} for c in range(len(box.cells[0]))]
        assert all(len(row) == len(box.cells[0]) for row in box.cells)
        for classes in (rows, cols):
            assert all(len(k) == 1 for k in classes)
            assert len(set.union(*classes)) == len(classes)
        assert box.empty_cells == 0
        seen += flat
    assert sorted(seen) == list(range(len(eb.tokens)))
    assert eb.star_count == sum(eb.idempotent)


def test_every_h_cell_in_a_d_class_has_equal_size(closure_of):
    for label in ("additive", "multiplicative"):
        eb = eggbox.build_eggbox(closure_of(3), label)
        for box in eb.boxes:
            sizes = {len(cell) for row in box.cells for cell in row}
            assert len(sizes) == 1


def test_dot_output_structure(closure_of):
    eb = eggbox.build_eggbox(closure_of(2), "multiplicative")
    dot = eggbox.eggbox_dot(eb)
    lines = dot.splitlines()
    assert lines[0] == "digraph eggbox {"
    assert lines[-1] == "}"
    assert dot.count("{") == dot.count("}")
    assert "compound=true;" in dot
    for box in eb.boxes:
        assert f"subgraph cluster_d{box.index} {{" in dot
        assert f"d{box.index} [label=<" in dot
    grammar = re.compile(
        r"digraph eggbox \{|\s*\}|\s*subgraph cluster_d\d+ \{|"
        r'\s*label=".*";|\s*compound=true;|\s*node \[shape=plaintext\];|'
        r"\s*d\d+ \[label=<.*>\];|"
        r"\s*d\d+ -> d\d+ \[ltail=cluster_d\d+, lhead=cluster_d\d+\];")
    for line in lines:
        assert grammar.fullmatch(line), line
    # covers link distinct classes and reference real indices
    idx = {b.index for b in eb.boxes}
    for u, l in eb.covers:
        assert eb.boxes[u].index in idx and eb.boxes[l].index in idx
        assert u != l


def test_dot_escapes_markup(closure_of):
    dot = eggbox.eggbox_dot(eggbox.build_eggbox(closure_of(2), "additive"))
    assert "&lt;(1,1)-&gt;(1,2)&gt;" in dot
    assert "<(1,1)->" not in dot.replace("[label=<", "")


def test_json_rendering_schema(closure_of):
    eb = eggbox.build_eggbox(closure_of(2), "multiplicative")
    d = json.loads(eggbox.render(eb, "json"))
    assert d["n"] == 2
    assert d["reduct"] == "multiplicative"
    assert d["element_count"] == 29
    assert d["star_count"] == 11
    assert len(d["d_classes"]) == 3
    for block in d["d_classes"]:
        assert set(block) == {"index", "size", "r_classes", "l_classes",
                              "cells", "stars", "empty_cells"}
        flat = [t for row in block["cells"] for cell in row for t in cell]
        assert len(flat) == block["size"]
    with pytest.raises(ValueError, match="unknown egg-box format"):
        eggbox.render(eb, "svg")


def test_cover_edges_respect_j_order(closure_of):
    # the singleton D-class sits below both other classes multiplicatively
    eb = eggbox.build_eggbox(closure_of(2), "multiplicative")
    by_size = {len(b.members): i for i, b in enumerate(eb.boxes)}
    pairs = set(eb.covers)
    assert (by_size[8], by_size[16]) in pairs
    assert (by_size[16], by_size[5]) in pairs


def _assert_covers_match_the_bool_product(below):
    # the covers as the earlier cubic bool product gave them, as
    # (upper, lower) pairs; the J-order of a strict order is below plus
    # the diagonal
    k = len(below)
    want = below & ~(below @ below)
    got = eggbox._j_order_covers(below | np.eye(k, dtype=bool))
    assert got == tuple(sorted((int(b), int(a)) for a, b in np.argwhere(want)))
    return int(want.sum())


def test_covers_match_the_bool_product_on_the_n4_additive_j_order(closure_of):
    sg = closure_of(4).reduct("additive")
    gs = green.green_brute(sg, j_order=True)  # as the egg-box asks for it
    # the J-order read off the two-sided ideals over the trivial group, every
    # row filled: [a, b] when class a's least member lies in class b's ideal
    two = green.ideals(closure.FiniteSemigroup(4, "additive", sg.op.dense()))[2]
    least = [c[0] for c in gs.classes["D"]]
    order = two[np.ix_(least, least)].T
    assert np.array_equal(gs.j_order, order)
    below = order & ~np.eye(len(least), dtype=bool)
    assert 0 < _assert_covers_match_the_bool_product(below) < below.sum()


@pytest.mark.parametrize("label", ["additive", "multiplicative"])
def test_eggbox_fills_the_ideals_once_and_frees_them_before_the_boxes(capsys, monkeypatch,
                                                                      label):
    # green_brute is the one caller of `ideals`, and keeps none of its arrays
    assert list(inspect.signature(green.green_brute).parameters) == ["sg", "j_order"]
    assert not hasattr(eggbox, "ideals")
    fills, alive = [], []
    real_ideals, real_brute = green.ideals, eggbox.green_brute

    def ideals(sg):
        rows = real_ideals(sg)
        fills.extend(weakref.ref(a) for a in rows[:3])
        return rows

    def green_brute(sg, **kw):
        gs = real_brute(sg, **kw)
        alive.extend(ref() is not None for ref in fills)
        return gs

    monkeypatch.setattr(green, "ideals", ideals)
    monkeypatch.setattr(eggbox, "green_brute", green_brute)
    code, _, _ = run_cli(capsys, ["eggbox", "--n", "3", "--reduct", label])
    assert code == 0 and len(fills) == 3 and alive == [False] * 3


def test_only_the_eggbox_builds_the_j_order(closure_of, green_of, capsys, monkeypatch):
    # the J-order is `_held` over the J-classes' least members; the labelling's
    # calls hold every element's ideal against the representatives, so the
    # J-order is the one call whose `b` is not every element
    orders, real = [], green._held

    def held(rows, op, b, y):
        if len(b) < rows.shape[1]:
            orders.append((np.asarray(b).tolist(), np.asarray(y).tolist()))
        return real(rows, op, b, y)

    monkeypatch.setattr(green, "_held", held)
    ns = closure_of(4)
    monkeypatch.setattr(cli, "load_or_build", lambda n, cache_dir: ns)
    for label in ("additive", "multiplicative"):
        for fmt in ("text", "json"):
            assert run_cli(capsys, ["green", "--n", "4", "--reduct", label, "--format", fmt])[0] == 0
    assert all(r.passed for r in verify.run_battery(4, ns))
    assert orders == []
    two = closure_of(2)
    monkeypatch.setattr(cli, "load_or_build", lambda n, cache_dir: two)
    for label in ("additive", "multiplicative"):
        code, out, _ = run_cli(capsys, ["eggbox", "--n", "2", "--reduct", label, "--format", "json"])
        assert code == 0 and out == (GOLDEN / f"eggbox_n2_{label}.json").read_text()
        least = [c[0] for c in green_of(2, label).classes["D"]]
        assert orders == [(least, least)]
        orders.clear()


def test_covers_match_the_bool_product_on_random_dags():
    rng = np.random.default_rng(5)
    for trial in range(300):
        k = int(rng.integers(0, 40))
        dag = np.triu(rng.random((k, k)) < rng.random(), 1)
        order = rng.permutation(k)
        below = dag[np.ix_(order, order)]
        if trial % 2:  # a strict order: the transitive closure of the DAG
            for c in range(k):
                below |= below[:, [c]] & below[[c], :]
        _assert_covers_match_the_bool_product(below)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n", [1, 2, 3])
def test_battery_runs_without_classify(n):
    assert not hasattr(maps, "classify")  # the case-by-case classifier is a test oracle
    results = verify.run_battery(n, closure.additive_closure(generators.enumerate_aff(n)))
    assert results and all(r.passed for r in results), [r.line() for r in results]


def test_cli_output_without_classify(tmp_path, capsys):
    commands = [["enumerate", "--format", "json"], ["generators", "--kind", "aff"]]
    commands += [[cmd, "--reduct", label, "--format", "json"]
                 for cmd in ("green", "eggbox") for label in ("additive", "multiplicative")]

    def outputs(cache_dir):
        out = []
        for argv in commands:
            cache = ["--cache-dir", str(cache_dir)] if argv[0] != "generators" else []
            code, text, err = run_cli(capsys, argv + ["--n", "2"] + cache)
            assert code == 0 and err == "", (argv, err)
            out.append(text)
        return out

    assert not hasattr(maps, "classify")  # the case-by-case classifier is a test oracle
    plain = outputs(tmp_path / "plain")
    guarded = outputs(tmp_path / "guarded")  # a fresh cache: the build runs guarded too
    assert guarded == plain
    for label, text in zip(("additive", "multiplicative"), guarded[-2:]):
        assert text == (GOLDEN / f"eggbox_n2_{label}.json").read_text()


def test_cli_enumerate_text(tmp_path, capsys):
    code, out, err = run_cli(capsys, [
        "enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 0 and err == ""
    assert "29 elements" in out
    assert "support histogram: 0: 1, 1: 16, 2: 8, 5: 4" in out
    assert cli.cache_path(tmp_path, 2).exists()


def test_cli_enumerate_json_roundtrips(closure_of, tmp_path, capsys):
    # every element, in rank order, and both whole tables, as a build gives them
    code, out, _ = run_cli(capsys, [
        "enumerate", "--n", "2", "--format", "json", "--cache-dir", str(tmp_path)])
    assert code == 0
    d, ns = json.loads(out), closure_of(2)
    assert d["format_version"] == cli.ENUMERATE_VERSION == 1
    assert d["n"] == 2 and d["count"] == len(d["elements"]) == len(ns) == 29
    assert d["elements"] == maps.tokens(range(29), 2)
    add_t, mul_t = oracles.fill_tables(2)
    assert np.array_equal(d["add_table"], add_t) and np.array_equal(d["mul_table"], mul_t)


def test_enumerate_json_version_is_not_the_cache_format_version(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(closure, "FORMAT_VERSION", closure.FORMAT_VERSION + 1)
    code, out, _ = run_cli(capsys, [
        "enumerate", "--n", "1", "--format", "json", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["format_version"] == cli.ENUMERATE_VERSION == 1
    assert [p.name for p in tmp_path.iterdir()] == [
        f"a_plus_bn_n1_v{closure.FORMAT_VERSION}.npz"]


def test_cli_enumerate_reuses_cache(tmp_path, capsys):
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    stamp = path.stat().st_mtime_ns
    code, out, _ = run_cli(capsys, [
        "enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 0 and "29 elements" in out
    assert path.stat().st_mtime_ns == stamp


def test_cli_generators_json(capsys):
    code, out, _ = run_cli(capsys, ["generators", "--kind", "aut", "--n", "3"])
    assert code == 0
    d = json.loads(out)
    assert d == {"n": 3, "kind": "aut", "count": 6,
                 "members": d["members"]}
    assert "phi[1,2,3]" in d["members"]
    assert len(d["members"]) == 6


def test_cli_generators_text(capsys):
    code, out, _ = run_cli(capsys, [
        "generators", "--kind", "const", "--n", "2", "--format", "text"])
    assert code == 0
    assert "const generators for n=2: 5 members" in out
    assert "  xi_theta" in out


def test_cli_green_text_and_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "green", "--n", "2", "--reduct", "additive", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert "Green structure: additive reduct, n=2, 29 elements" in out
    assert "D-classes: 10" in out
    assert "idempotents: 11" in out
    code, out, _ = run_cli(capsys, [
        "green", "--n", "2", "--reduct", "multiplicative", "--format", "json",
        "--cache-dir", str(tmp_path)])
    assert code == 0
    d = json.loads(out)
    assert d["counts"] == {"R": 7, "L": 11, "D": 3, "J": 3, "H": 25}


def test_cli_eggbox_writes_golden_text(tmp_path, capsys):
    target = tmp_path / "box.txt"
    code, out, _ = run_cli(capsys, [
        "eggbox", "--n", "2", "--reduct", "multiplicative",
        "--cache-dir", str(tmp_path), "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == (GOLDEN / "eggbox_n2_multiplicative.txt").read_text()


def test_cli_counts(capsys):
    code, out, _ = run_cli(capsys, ["counts", "--n", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out) == formulas.counts(4).to_dict()
    code, out, _ = run_cli(capsys, ["counts", "--n", "2"])
    assert code == 0
    assert "a_plus_total" in out and "29" in out


@pytest.fixture
def default_int_digits():
    """Python's default int-to-str limit, 4300 digits, for this test."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_counts_at_the_largest_printable_n(capsys, default_int_digits, fmt):
    code, out, _ = run_cli(capsys, ["counts", "--n", "1556", "--format", fmt])
    assert code == 0 and str(formulas.counts(1556).a_plus_total) in out


@pytest.mark.parametrize("n", [1557, 10 ** 6])
def test_cli_counts_refuses_unprintable_n_at_once(capsys, default_int_digits, n):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["counts", "--n", str(n)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"n={n}" in err and err.rstrip().endswith("the largest n that prints is 1556")


def test_cli_verify_passes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert "verifying n=2" in out
    assert "D-classes(∘) = 3: PASS" in out
    assert re.search(r"(\d+)/\1 checks passed", out)


def test_cli_verify_range_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, [
        "verify", "--n", "1..2", "--cache-dir", str(tmp_path),
        "--out", str(report)])
    assert code == 0
    assert "verifying n=1" in out and "verifying n=2" in out
    d = json.loads(report.read_text())
    assert d["all_passed"]
    assert all(c["passed"] for c in d["results"])
    assert {c["n"] for c in d["results"]} == {1, 2}


def test_cli_verify_does_not_import_numpy_ma(tmp_path):
    # numpy imports numpy.ma lazily, e.g. from a plain np.unique; the verify
    # path needs none of it, so a fresh process should never load it
    code = ("import sys\nfrom ans import cli\n"
            f"assert cli.main(['verify', '--n', '1..4', '--cache-dir', {str(tmp_path)!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_verify_report_deterministic(tmp_path, capsys):
    outs = []
    for run in ("1", "2"):
        report = tmp_path / f"report{run}.json"
        code, _, _ = run_cli(capsys, [
            "verify", "--n", "2",
            "--cache-dir", str(tmp_path), "--out", str(report)])
        assert code == 0
        outs.append(report.read_bytes())
    assert outs[0] == outs[1]


def test_cli_enumerate_json_deterministic(tmp_path, capsys):
    blobs = []
    for run in ("1", "2"):
        target = tmp_path / f"c{run}.json"
        code, _, _ = run_cli(capsys, [
            "enumerate", "--n", "3", "--format", "json", "--out", str(target)])
        assert code == 0
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_cli_reports_match_goldens(tmp_path, capsys, cache):
    # the verify report, enumerate JSON and Green JSON, byte for byte, from
    # a fresh build and from the cache that an earlier run wrote
    commands = {"verify_n1-3.json": ["verify", "--n", "1..3"],
                "verify_n4.json": ["verify", "--n", "4"],
                "verify_n5.json": ["verify", "--n", "5"],
                "enumerate_n3.json": ["enumerate", "--n", "3", "--format", "json"],
                **{f"green_n3_{r}.json": ["green", "--n", "3", "--reduct", r, "--format", "json"]
                   for r in ("additive", "multiplicative")}}
    for golden, argv in commands.items():
        cache_dir = ["--cache-dir", str(tmp_path / golden)]
        if cache == "warm":
            run_cli(capsys, argv + cache_dir)
        code, out, _ = run_cli(capsys, argv + cache_dir + ["--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out").read_bytes() == (GOLDEN / golden).read_bytes()


# SHA-256 of `ans green|eggbox --n 5 --reduct R --format json`, 150-520 KB each,
# too big for goldens
N5_JSON_SHA256 = {
    ("green", "additive"): "8ef69710e4354161eff4503c8ef90c7da6f04d50a4881d8524e3502633c7e928",
    ("green", "multiplicative"): "ef474a41937ceb72cf2604fe991fce2b5f609639467cf0514eb32e69695ef0dc",
    ("eggbox", "additive"): "cb777609f29a2bc90e098f858779c0d4f028e6601eee98c00141277009007847",
    ("eggbox", "multiplicative"): "b80c195cfe3ed3141da9d7c146c67db06ef8af8383baaae924e5181b48a4ae13",
}


@pytest.mark.parametrize("command, reduct", list(N5_JSON_SHA256))
def test_cli_json_at_n5_matches_its_pinned_hash(tmp_path, capsys, command, reduct):
    target = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, [command, "--n", "5", "--reduct", reduct, "--format", "json",
                                  "--out", str(target)])
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == N5_JSON_SHA256[command, reduct]


@pytest.mark.parametrize("argv", [["green", "--reduct", "multiplicative"],
                                  ["eggbox", "--reduct", "additive", "--format", "json"]])
def test_green_and_eggbox_scan_one_element_per_orbit_on_a_build(tmp_path, capsys,
                                                                 monkeypatch, argv):
    # the regularity rule and the ideal fill see the 27 orbit representatives
    # at n = 3 on a build, with no cache or on a miss, and on a hit, whose
    # stored rows are proved on load; the fill is one row of each ideal per
    # representative
    rows, filled, outs = [], [], []
    xyx, ideals = green._xyx, green.ideals

    def counted(op, x, xy):
        rows.append(len(x))
        return xyx(op, x, xy)

    def counted_ideals(sg):
        out = ideals(sg)
        filled.extend(len(a) for a in out[:3])
        return out

    monkeypatch.setattr(green, "_xyx", counted)
    monkeypatch.setattr(green, "ideals", counted_ideals)
    for cache_dir, seen in (([], 27), (["--cache-dir", str(tmp_path)], 27),
                            (["--cache-dir", str(tmp_path)], 27)):
        rows.clear()
        filled.clear()
        code, out, _ = run_cli(capsys, argv + ["--n", "3"] + cache_dir)
        assert code == 0 and sum(rows) == seen and filled == [seen] * 3
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_cli_verify_report_matches_golden_under_python_O(tmp_path):
    # python -O strips assert statements: no invariant the report rests on,
    # such as scanning one element per orbit only once the tables are
    # proved, may hang on one
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    report = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-O", "-m", "ans.cli", "verify", "--n", "1..3",
                           "--out", str(report)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert report.read_bytes() == (GOLDEN / "verify_n1-3.json").read_bytes()


def _load_npz(path):
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def _save_npz(path, d):
    with open(path, "wb") as fh:
        np.savez(fh, **d)


def test_cli_verify_detects_tampered_table(tmp_path, capsys):
    # stored row 3 is element 5's, the fourth orbit representative at n = 2
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    d["mul_table"][3][4] = (d["mul_table"][3][4] + 1) % 29
    _save_npz(path, d)
    code, out, _ = run_cli(capsys, [
        "verify", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "cached closure loads and validates: FAIL" in out and str(path) in out
    assert "mul_table[5,4] is" in out and "recomputed" in out


def test_cli_green_reports_broken_invariant_without_traceback(closure_of, tmp_path, capsys,
                                                              monkeypatch):
    # a wrong stored cell stops at the proof on load: exit 2, naming file and cell
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    want = int(d["add_table"][0][5])
    d["add_table"][0][5] = (want + 1) % 29
    _save_npz(path, d)
    code, out, err = run_cli(capsys, [
        "green", "--n", "2", "--reduct", "additive", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == (f"error: malformed cache {path}: ValueError: "
                   f"add_table[0,5] is {(want + 1) % 29}, recomputed {want}\n")
    # the same wrong cell in tables over the trivial group, handed to green
    # unproved, breaks an invariant: exit 1
    bad = oracles.dense(closure_of(2))
    bad.add_table[0][5] = (want + 1) % 29
    monkeypatch.setattr(cli, "load_or_build", lambda n, cache_dir: bad)
    code, out, err = run_cli(capsys, ["green", "--n", "2", "--reduct", "additive"])
    assert code == 1 and out == ""
    assert err == "error: D and J partitions differ on a finite semigroup\n"


@pytest.mark.parametrize("n", [2, 3])
def test_green_refuses_a_wrong_two_sided_row_at_every_representative(closure_of, capsys,
                                                                     monkeypatch, n):
    # one representative a's S¹aS¹ at a time gains its least element b that
    # lies J-above a (a in S¹bS¹, b not in S¹aS¹), or loses its least J-class-
    # mate: D = J fails in process and through `ans green`, at every a
    ns, real = closure_of(n), green.ideals
    monkeypatch.setattr(cli, "load_or_build", lambda n, cache_dir: ns)
    for label in ("additive", "multiplicative"):
        sg = ns.reduct(label)
        right, left, two, r, l = real(sg)
        reps = sg.op.action.reps
        held = green._held(two, sg.op, np.arange(len(sg)), reps).T  # [i, b]: S¹bS¹ holds reps[i]
        planted = {"add": 0, "remove": 0}
        for i, a in enumerate(reps.tolist()):
            mates = held[i] & two[i]
            mates[a] = False
            for kind, among in (("add", held[i] & ~two[i]), ("remove", mates)):
                if not among.any():
                    continue
                bad = two.copy()
                bad[i, np.flatnonzero(among)[0]] = kind == "add"
                monkeypatch.setattr(green, "ideals", lambda s, bad=bad: (right, left, bad, r, l))
                with pytest.raises(AssertionError,
                                   match="^D and J partitions differ on a finite semigroup$"):
                    green.green_brute(sg)
                code, out, err = run_cli(capsys, ["green", "--n", str(n), "--reduct", label])
                assert code == 1 and out == ""
                assert err == "error: D and J partitions differ on a finite semigroup\n"
                planted[kind] += 1
        assert planted["add"] and planted["remove"], (label, planted)


@pytest.mark.parametrize("n", [2, 3])
def test_cli_refuses_every_seeded_edit_of_a_stored_cell(tmp_path, capsys, n):
    # re-saved by np.savez, the zip CRCs are valid: only the proof on load
    # sees the edit, and neither command gets past it
    run_cli(capsys, ["enumerate", "--n", str(n), "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, n)
    clean = _load_npz(path)
    m = clean["add_table"].shape[1]
    reps = np.flatnonzero(maps.orbit_labels(n) == np.arange(m))
    rng = random.Random(n)
    for _ in range(20):
        d = {k: v.copy() for k, v in clean.items()}
        key = rng.choice(["add_table", "mul_table"])
        i, j = rng.randrange(len(reps)), rng.randrange(m)
        d[key][i, j] = (int(d[key][i, j]) + rng.randrange(1, m)) % m
        _save_npz(path, d)
        cell = f"{key}[{reps[i]},{j}] is {d[key][i, j]}, recomputed {clean[key][i, j]}"
        for command in ("green", "eggbox"):
            reduct = rng.choice(cli.REDUCTS)
            code, out, err = run_cli(capsys, [command, "--n", str(n), "--reduct", reduct,
                                              "--cache-dir", str(tmp_path)])
            assert code == 2 and out == ""
            assert err == f"error: malformed cache {path}: ValueError: {cell}\n"


@pytest.mark.parametrize("value", [70000, -1])
def test_cli_green_rejects_out_of_range_cache_cell(tmp_path, capsys, value):
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    d["add_table"] = d["add_table"].astype(np.int64)
    d["add_table"][3][4] = value
    _save_npz(path, d)
    code, out, err = run_cli(capsys, [
        "green", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == (f"error: malformed cache {path}: ValueError: "
                   "Cayley table contains out-of-range indices\n")


def test_cli_enumerate_rejects_structurally_bad_cache(tmp_path, capsys):
    # the last representative's row is gone
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    d["add_table"] = d["add_table"][:-1]
    _save_npz(path, d)
    code, out, err = run_cli(capsys, [
        "enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == (f"error: malformed cache {path}: ValueError: additive Cayley table "
                   "shape (14, 29) is not the rows of the 15 orbit representatives "
                   "over 29 elements\n")


def test_cli_verify_reports_bad_cache_as_failure(tmp_path, capsys):
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    d["mul_table"] = d["mul_table"].astype(np.float64)
    _save_npz(path, d)
    code, out, _ = run_cli(capsys, [
        "verify", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "cached closure loads and validates: FAIL" in out
    assert "multiplicative Cayley table is not an integer array" in out


def test_cli_refuses_a_cache_that_misses_an_element(tmp_path, capsys):
    # both stored tables lose the column of xi_theta: 28 elements, not 29
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    for name in ("add_table", "mul_table"):
        d[name] = d[name][:, 1:]
    _save_npz(path, d)
    why = (f"malformed cache {path}: ValueError: additive Cayley table shape (15, 28) "
           "is not the rows of the 15 orbit representatives over 29 elements")
    code, out, err = run_cli(capsys, ["green", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == f"error: {why}\n"
    report = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--cache-dir", str(tmp_path),
                                    "--out", str(report)])
    assert code == 1
    assert out.splitlines()[1] == f"  cached closure loads and validates: FAIL  [{why}]"
    assert out.splitlines()[2:] == ["0/1 checks passed"]
    assert not json.loads(report.read_text())["all_passed"]


def test_cli_verify_reports_a_closure_short_of_the_family(tmp_path, capsys, monkeypatch):
    # constants sum to constants, so the fixpoint stops at 5 of the 29 elements
    monkeypatch.setattr(generators, "enumerate_aff", generators.enumerate_constants)
    report = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--out", str(report)])
    assert code == 1
    assert out.splitlines() == [
        "verifying n=2",
        "  closure builds from the affine generators: FAIL  "
        "[the closure misses <(1,1)->(1,1)>]",
        "0/1 checks passed"]
    assert json.loads(report.read_text()) == {
        "format_version": verify.REPORT_VERSION, "all_passed": False,
        "results": [{"name": "closure builds from the affine generators", "n": 2,
                     "passed": False, "details": "the closure misses <(1,1)->(1,1)>"}]}


def test_cli_verify_reports_a_generator_census_off_its_closed_form(tmp_path, capsys,
                                                                   monkeypatch):
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    end = generators.enumerate_end

    def end_short_of_one_constant(n):  # drops the diagonal constant xi_(1,1)
        gs = end(n)
        return generators.GeneratorSet(n, "end", gs.members[:1] + gs.members[2:])

    monkeypatch.setattr(generators, "enumerate_end", end_short_of_one_constant)
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 1
    failed = [line.strip() for line in out.splitlines() if ": FAIL" in line]
    measured = {"end": 4, "aut": 2, "aff": 11, "const": 5}  # Aff loses xi_(1,1), xi_(1,2)
    expected = {"end": 5, "aut": 2, "aff": 13, "const": 5}
    assert failed == ["generator censuses match closed forms: FAIL  "
                      f"[measured {measured!r}, expected {expected!r}]",
                      "closure size matches closed form: FAIL  "
                      "[generator set is not closed under conjugation by S_n]"]


def test_cli_verify_reports_a_failed_cold_build_as_a_build_failure(tmp_path, capsys,
                                                                   monkeypatch):
    # the cold twin of the census test above: with no cache to read, the same
    # short End set stops the closure build itself
    end = generators.enumerate_end

    def end_short_of_one_constant(n):  # drops the diagonal constant xi_(1,1)
        gs = end(n)
        return generators.GeneratorSet(n, "end", gs.members[:1] + gs.members[2:])

    monkeypatch.setattr(generators, "enumerate_end", end_short_of_one_constant)
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 1
    failed = [line.strip() for line in out.splitlines() if ": FAIL" in line]
    assert failed == ["closure builds from the affine generators: FAIL  "
                      "[generator set is not closed under conjugation by S_n]"]
    assert not cli.cache_path(tmp_path, 2).exists()


def test_cli_verify_reruns_the_closure_fixpoint_on_a_cache_hit(tmp_path, capsys,
                                                               monkeypatch):
    # every sum at a representative now reads xi_theta, so the affine
    # generators reach only themselves: 13 of the 29 elements; a check that
    # passes every cell lets the edit past the proof on load, and past the
    # proof in verify, but not past the fixpoint verify reruns on a hit
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    d["add_table"][:] = 0
    _save_npz(path, d)
    monkeypatch.setattr(closure, "_first_wrong", lambda *args: "")
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "  closure size matches closed form: FAIL  [measured 13, expected 29]" in out


def _damaged(clean, damage):
    """Damaged copies of a cache file: empty, truncated, a shorter header
    length in one .npy member (so a reader stops short of the member's end),
    rezipped with a valid CRC, or seeded byte flips inside the stored, here
    deflated, bytes of one array member."""
    if damage == "empty":
        return [b""]
    if damage == "truncated":
        return [clean[:len(clean) // 2]]
    with zipfile.ZipFile(io.BytesIO(clean)) as zf:
        members = {info.filename: (info, zf.read(info)) for info in zf.infolist()}
    if damage == "header_length":  # bytes 8-9 of a version 1.0 .npy member
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, (_, data) in members.items():
                if name == "add_table.npy":
                    data = data[:8] + bytes([data[8] - 2]) + data[9:]
                zf.writestr(name, data)
        return [out.getvalue()]
    info = members[damage + ".npy"][0]
    # the member's stored bytes follow its local header: 30 bytes, then the
    # name and the local extra field, whose lengths sit at bytes 26-29
    name_len, extra_len = struct.unpack("<HH", clean[info.header_offset + 26:
                                                     info.header_offset + 30])
    start = info.header_offset + 30 + name_len + extra_len
    copies = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        b = bytearray(clean)
        b[start + int(rng.integers(info.compress_size))] ^= int(rng.integers(1, 256))
        copies.append(bytes(b))
    return copies


@pytest.mark.parametrize("damage", ["format_version", "n",
                                    "add_table", "mul_table", "header_length",
                                    "truncated", "empty"])
def test_damaged_cache_is_refused(tmp_path, capsys, damage):
    # n = 3: each table is 7,958 bytes inflated and 620-726 deflated, so the
    # first 4 KB that zip reads of a member hold all of it; a flip is refused
    # by inflation, by the array's parse or by the CRC at the member's end
    run_cli(capsys, ["enumerate", "--n", "3", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 3)
    for data in _damaged(path.read_bytes(), damage):
        path.write_bytes(data)
        code, out, err = run_cli(capsys, [
            "green", "--n", "3", "--cache-dir", str(tmp_path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and str(path) in err
        if damage == "header_length":  # the CRC is valid: only the array's end refuses it
            assert "add_table.npy has bytes past its array" in err
        code, out, _ = run_cli(capsys, [
            "verify", "--n", "3", "--cache-dir", str(tmp_path)])
        assert code == 1
        assert "cached closure loads and validates: FAIL" in out and str(path) in out


def test_cli_refuses_a_member_larger_than_a_closure_before_inflating_it(tmp_path, capsys,
                                                                       monkeypatch):
    # about 1 MB of zeros deflates to about 1 KB; at n = 2 no array a closure
    # has takes more than 10,000 + 8 * 15 * 29 = 13,480 bytes
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    bomb = dict(_load_npz(path), add_table=np.zeros(1 << 19, np.uint16))
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **bomb)
    assert path.stat().st_size < 5_000
    with zipfile.ZipFile(path) as zf:
        size = zf.getinfo("add_table.npy").file_size
    assert size > 1 << 20
    read_array, opened = np.lib.format.read_array, []

    def counted(fp, *args, **kwargs):
        opened.append(fp.name)
        return read_array(fp, *args, **kwargs)

    monkeypatch.setattr(np.lib.format, "read_array", counted)
    code, out, err = run_cli(capsys, ["green", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == (f"error: unreadable cache {path}: ValueError: add_table.npy declares "
                   f"{size} bytes, more than the 13480 of the widest array a closure has\n")
    assert "add_table.npy" not in opened
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "cached closure loads and validates: FAIL" in out and "add_table.npy declares" in out
    assert "add_table.npy" not in opened


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_member_bound_admits_every_closure_file(tmp_path, capsys, n):
    # what to_dict writes, and the same rows as int64, the widest dtype
    # from_dict accepts, both load, deflated or stored
    run_cli(capsys, ["enumerate", "--n", str(n), "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, n)
    want = _load_npz(path)
    wide = {k: v.astype(np.int64) for k, v in want.items()}
    for save in (np.savez_compressed, np.savez):
        for d in (want, wide):
            with open(path, "wb") as fh:
                save(fh, **d)
            hit = cli.load_or_build(n, tmp_path)
            assert np.array_equal(hit.add_table, want["add_table"])
            assert np.array_equal(hit.mul_table, want["mul_table"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cache_is_deflated_and_deterministic(tmp_path, capsys, n):
    files = []
    for run in ("a", "b"):
        run_cli(capsys, ["enumerate", "--n", str(n), "--cache-dir", str(tmp_path / run)])
        files.append(cli.cache_path(tmp_path / run, n).read_bytes())
    assert files[0] == files[1]
    with zipfile.ZipFile(io.BytesIO(files[0])) as zf:
        assert [i.compress_type for i in zf.infolist()] == [zipfile.ZIP_DEFLATED] * 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stored_deflated_and_built_closures_print_the_same(tmp_path, capsys, n):
    # a stored cache, as earlier versions wrote it, is still read
    argvs = [["verify", "--n", str(n)]]
    argvs += [[command, "--n", str(n), "--reduct", reduct, "--format", fmt]
              for reduct in cli.REDUCTS
              for command, fmts in (("green", ("text", "json")),
                                    ("eggbox", ("text", "dot", "json")))
              for fmt in fmts]

    def outputs(cache):
        return [run_cli(capsys, argv + cache)[:2] for argv in argvs]

    built = outputs([])
    assert all(code == 0 for code, _ in built)
    cache = ["--cache-dir", str(tmp_path)]
    run_cli(capsys, ["enumerate", "--n", str(n)] + cache)
    assert outputs(cache) == built
    path = cli.cache_path(tmp_path, n)
    _save_npz(path, _load_npz(path))
    with zipfile.ZipFile(path) as zf:
        assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
    assert outputs(cache) == built


def test_cli_green_refuses_cache_of_another_n(tmp_path, capsys):
    run_cli(capsys, ["enumerate", "--n", "3", "--cache-dir", str(tmp_path)])
    shutil.copy(cli.cache_path(tmp_path, 3), cli.cache_path(tmp_path, 2))
    code, out, err = run_cli(capsys, [
        "green", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(cli.cache_path(tmp_path, 2)) in err


@pytest.mark.parametrize("key", ["n", "format_version"])
def test_cli_refuses_a_cache_that_stores_an_int_as_a_bool(tmp_path, capsys, key):
    # True == 1, so a bool n or format_version would pass an equality check at n = 1
    run_cli(capsys, ["enumerate", "--n", "1", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 1)
    _save_npz(path, dict(_load_npz(path), **{key: np.array(True)}))
    code, out, err = run_cli(capsys, ["eggbox", "--n", "1", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and str(path) in err
    code, out, _ = run_cli(capsys, ["verify", "--n", "1", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "cached closure loads and validates: FAIL" in out and str(path) in out


def test_verify_report_version_is_not_the_cache_format_version(tmp_path, capsys,
                                                                monkeypatch):
    monkeypatch.setattr(closure, "FORMAT_VERSION", closure.FORMAT_VERSION + 1)
    report = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, ["verify", "--n", "1", "--out", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["format_version"] == verify.REPORT_VERSION == 1


@pytest.mark.parametrize("kind", generators.KINDS)
def test_cli_generators_refuse_n_over_cap(capsys, kind):
    code, out, err = run_cli(capsys, ["generators", "--kind", kind, "--n", "7"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


def test_cli_rejects_n_over_cap(capsys):
    code, out, err = run_cli(capsys, ["enumerate", "--n", "7"])
    assert code == 2
    assert "error:" in err and "cap" in err


def test_cli_green_refuses_n_over_cap_before_reading_a_cache(tmp_path, capsys):
    # the member bound is a closed form in n, so n is checked before the file
    cli.cache_path(tmp_path, 7).write_bytes(b"not a zip")
    code, out, err = run_cli(capsys, ["green", "--n", "7", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == f"error: n=7 exceeds cap {closure.DEFAULT_N_CAP}\n"


@pytest.mark.parametrize("command", ["green", "eggbox", "enumerate", "generators"])
@pytest.mark.parametrize("n", [0, -1])
def test_cli_refuses_an_n_below_one_with_one_line(capsys, command, n):
    code, out, err = run_cli(capsys, [command, "--n", str(n)])
    assert code == 2 and out == ""
    assert err == f"error: n must be a positive integer, got {n}\n"


@pytest.mark.parametrize("argv", [["green", "--n", "7"], ["eggbox", "--n", "-2"],
                                  ["enumerate", "--n", "0"]])
def test_cli_refuses_an_n_out_of_range_before_making_the_cache_dir(tmp_path, capsys,
                                                                   monkeypatch, argv):
    monkeypatch.setattr(closure, "additive_closure", _no_work)
    cache_dir = tmp_path / "D"
    code, out, err = run_cli(capsys, argv + ["--cache-dir", str(cache_dir)])
    assert code == 2 and out == "" and err.startswith("error: n")
    assert not cache_dir.exists()


@pytest.mark.parametrize("n_range", ["7", "7..9"])
def test_cli_verify_rejects_range_over_cap(tmp_path, capsys, n_range):
    code, out, err = run_cli(capsys, [
        "verify", "--n", n_range, "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err
    assert list(tmp_path.iterdir()) == []


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the path was checked")


@pytest.mark.parametrize("argv", [["verify", "--n", "3..4"], ["enumerate", "--n", "4"],
                                  ["eggbox", "--n", "4"], ["counts", "--n", "4"]])
@pytest.mark.parametrize("where", ["missing/r.json", "a-file/r.json", "a-directory"])
def test_cli_refuses_out_outside_a_directory_before_any_work(tmp_path, capsys, monkeypatch,
                                                            argv, where):
    monkeypatch.setattr(cli, "load_or_build", _no_work)
    monkeypatch.setattr(formulas, "counts", _no_work)
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-directory").mkdir()
    target = tmp_path / where
    code, out, err = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 2 and out == ""  # no "verifying" line either
    assert err.startswith("error:") and err.count("\n") == 1 and str(target) in err


def test_cli_refuses_enumerate_json_past_n5_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_or_build", _no_work)
    for n in (6, 7):
        code, out, err = run_cli(capsys, ["enumerate", "--n", str(n), "--format", "json",
                                          "--cache-dir", str(tmp_path)])
        assert code == 2 and out == ""
        assert err == (f"error: enumerate --format json lists every cell of both Cayley "
                       f"tables, which n={n} makes too large; it stops at n=5\n")
    assert list(tmp_path.iterdir()) == []
    # the text census at n = 6 is not refused: it reaches the build
    code, _, err = run_cli(capsys, ["enumerate", "--n", "6", "--cache-dir", str(tmp_path)])
    assert code == 1 and err == "error: work started before the path was checked\n"


@pytest.mark.parametrize("argv", [["enumerate", "--n", "4"], ["green", "--n", "4"]])
def test_cli_refuses_a_file_as_cache_dir_before_the_build(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(closure, "additive_closure", _no_work)
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    code, out, err = run_cli(capsys, argv + ["--cache-dir", str(not_a_dir)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and str(not_a_dir) in err


class _FullDisk:
    """A file opened for writing that fails once 100 bytes are written."""

    def __init__(self, fh):
        self.fh, self.left = fh, 100

    def write(self, data):
        if len(data) > self.left:
            self.fh.write(data[:self.left])
            raise OSError("no space left on device")
        self.left -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_cache_write_failure_leaves_no_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "open", lambda path, mode="r": _FullDisk(open(path, mode)),
                        raising=False)
    with pytest.raises(OSError):
        cli.load_or_build(2, tmp_path)
    assert not cli.cache_path(tmp_path, 2).exists()
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, [
        "green", "--n", "2", "--format", "json", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["counts"]["R"] == formulas.counts(2).additive["r"]
    assert cli.cache_path(tmp_path, 2).exists()


def test_cli_rejects_bad_ranges(capsys):
    for bad in ("0", "3..1", "x..2"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n", bad])
        assert exc.value.code == 2
        capsys.readouterr()


def test_cli_requires_subcommand_and_n(capsys):
    for argv in ([], ["enumerate"], ["green", "--n", "2", "--reduct", "weird"],
                 ["green", "--n", "2", "--jobs", "2"],
                 ["eggbox", "--n", "2", "--jobs", "2"],
                 ["verify", "--n", "2", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_parse_n_range_forms():
    assert cli.parse_n_range("2") == [2]
    assert cli.parse_n_range("1..3") == [1, 2, 3]
    assert cli.parse_n_range(" 4 ") == [4]
