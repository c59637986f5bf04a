import io
import json
import os
import re
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from ans import cli, closure, eggbox, formulas, generators, green, maps, verify

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
def test_cells_partition_each_d_class(closure_of, n, label):
    eb = eggbox.build_eggbox(closure_of(n), label)
    seen = []
    for box in eb.boxes:
        flat = [i for row in box.cells for cell in row for i in cell]
        assert sorted(flat) == sorted(box.members)
        assert len(box.cells) == len(box.r_classes)
        assert all(len(row) == len(box.l_classes) for row in box.cells)
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


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_classify(*args):
    raise AssertionError("maps.classify called at runtime")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_battery_runs_without_classify(monkeypatch, n):
    monkeypatch.setattr(maps, "classify", _no_classify)
    results = verify.run_battery(n, closure.additive_closure(generators.enumerate_aff(n)))
    assert results and all(r.passed for r in results), [r.line() for r in results]


def test_cli_output_without_classify(tmp_path, capsys, monkeypatch):
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

    plain = outputs(tmp_path / "plain")
    monkeypatch.setattr(maps, "classify", _no_classify)
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


def test_cli_enumerate_json_roundtrips(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "enumerate", "--n", "2", "--format", "json", "--cache-dir", str(tmp_path)])
    assert code == 0
    ns = closure.from_dict(json.loads(out))
    assert len(ns) == 29


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
    env.pop("ANS_CACHE_DIR", None)  # it would override --cache-dir
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
    # the verify report and enumerate JSON, byte for byte, from a fresh
    # build and from the cache that an earlier run wrote
    commands = {"verify_n1-3.json": ["verify", "--n", "1..3"],
                "enumerate_n3.json": ["enumerate", "--n", "3", "--format", "json"]}
    for golden, argv in commands.items():
        cache_dir = ["--cache-dir", str(tmp_path / golden)]
        if cache == "warm":
            run_cli(capsys, argv + cache_dir)
        code, out, _ = run_cli(capsys, argv + cache_dir + ["--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out").read_bytes() == (GOLDEN / golden).read_bytes()


def _load_npz(path):
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def _save_npz(path, d):
    with open(path, "wb") as fh:
        np.savez(fh, **d)


def test_cli_verify_detects_tampered_table(tmp_path, capsys):
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    d["mul_table"][3][4] = (d["mul_table"][3][4] + 1) % 29
    _save_npz(path, d)
    code, out, _ = run_cli(capsys, [
        "verify", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "Cayley tables reproducible from element list: FAIL" in out
    assert "recomputed" in out


def test_cli_green_reports_broken_invariant_without_traceback(tmp_path, capsys):
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    d["add_table"][0][5] = (d["add_table"][0][5] + 1) % 29
    _save_npz(path, d)
    code, out, err = run_cli(capsys, [
        "green", "--n", "2", "--reduct", "additive", "--cache-dir", str(tmp_path)])
    assert code == 1 and out == ""
    assert err == "error: D and J partitions differ on a finite semigroup\n"


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
    assert err == "error: Cayley table contains out-of-range indices\n"


def test_cli_enumerate_rejects_structurally_bad_cache(tmp_path, capsys):
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    d["elements"] = d["elements"][:-1]
    _save_npz(path, d)
    code, _, err = run_cli(capsys, [
        "enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "error:" in err


def test_cli_verify_reports_bad_cache_as_failure(tmp_path, capsys):
    run_cli(capsys, ["enumerate", "--n", "2", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 2)
    d = _load_npz(path)
    d["elements"][d["elements"] == "xi_theta"] = "xi_bogus"
    _save_npz(path, d)
    code, out, _ = run_cli(capsys, [
        "verify", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "cached closure loads and validates: FAIL" in out


def _damaged(clean, damage):
    """Damaged copies of a cache file: empty, truncated, a shorter header
    length in one .npy member (so a reader stops short of the member's end),
    or seeded byte flips inside the stored bytes of one array member."""
    if damage == "empty":
        return [b""]
    if damage == "truncated":
        return [clean[:len(clean) // 2]]
    with zipfile.ZipFile(io.BytesIO(clean)) as zf:
        member = zf.read(("add_table" if damage == "header_length" else damage) + ".npy")
    start = clean.index(member)
    if damage == "header_length":  # bytes 8-9 of a version 1.0 .npy member
        b = bytearray(clean)
        b[start + 8] -= 2
        return [bytes(b)]
    copies = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        b = bytearray(clean)
        b[start + int(rng.integers(len(member)))] ^= int(rng.integers(1, 256))
        copies.append(bytes(b))
    return copies


@pytest.mark.parametrize("damage", ["format_version", "n", "count", "elements",
                                    "add_table", "mul_table", "header_length",
                                    "truncated", "empty"])
def test_damaged_cache_is_refused(tmp_path, capsys, damage):
    # n = 3: its tables outgrow the first 4 KB that zip reads of a member
    run_cli(capsys, ["enumerate", "--n", "3", "--cache-dir", str(tmp_path)])
    path = cli.cache_path(tmp_path, 3)
    for data in _damaged(path.read_bytes(), damage):
        path.write_bytes(data)
        code, out, err = run_cli(capsys, [
            "green", "--n", "3", "--cache-dir", str(tmp_path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and str(path) in err
        code, out, _ = run_cli(capsys, [
            "verify", "--n", "3", "--cache-dir", str(tmp_path)])
        assert code == 1
        assert "cached closure loads and validates: FAIL" in out and str(path) in out


def test_cli_green_refuses_cache_of_another_n(tmp_path, capsys):
    run_cli(capsys, ["enumerate", "--n", "3", "--cache-dir", str(tmp_path)])
    shutil.copy(cli.cache_path(tmp_path, 3), cli.cache_path(tmp_path, 2))
    code, out, err = run_cli(capsys, [
        "green", "--n", "2", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(cli.cache_path(tmp_path, 2)) in err


@pytest.mark.parametrize("kind", generators.KINDS)
def test_cli_generators_refuse_n_over_cap(capsys, kind):
    code, out, err = run_cli(capsys, ["generators", "--kind", kind, "--n", "7"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


def test_cli_rejects_n_over_cap(capsys):
    code, out, err = run_cli(capsys, ["enumerate", "--n", "7"])
    assert code == 2
    assert "error:" in err and "cap" in err


@pytest.mark.parametrize("n_range", ["7", "7..9"])
def test_cli_verify_rejects_range_over_cap(tmp_path, capsys, n_range):
    code, out, err = run_cli(capsys, [
        "verify", "--n", n_range, "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err
    assert list(tmp_path.iterdir()) == []


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


def test_env_var_overrides_cache_dir_flag(tmp_path, capsys, monkeypatch):
    flag_dir = tmp_path / "flagged"
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("ANS_CACHE_DIR", str(env_dir))
    code, _, _ = run_cli(capsys, [
        "enumerate", "--n", "2", "--cache-dir", str(flag_dir)])
    assert code == 0
    assert cli.cache_path(env_dir, 2).exists()
    assert not flag_dir.exists()


def test_resolve_cache_dir_precedence(monkeypatch):
    monkeypatch.delenv("ANS_CACHE_DIR", raising=False)
    assert cli.resolve_cache_dir(None) is None
    assert cli.resolve_cache_dir("/a/b") == Path("/a/b")
    monkeypatch.setenv("ANS_CACHE_DIR", "/x/y")
    assert cli.resolve_cache_dir("/a/b") == Path("/x/y")


def test_parse_n_range_forms():
    assert cli.parse_n_range("2") == [2]
    assert cli.parse_n_range("1..3") == [1, 2, 3]
    assert cli.parse_n_range(" 4 ") == [4]
