"""What importing and running `ans` does to the process: each command loads
only the layers it runs, so `ans counts` loads no numpy; OpenBLAS is
pinned to one thread while numpy loads, whichever import loads it; the
environment is left as it was found; and `ans verify` loads no
numpy.random.  Each case runs in a fresh interpreter, since numpy loads
once per process."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ans

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "ans"

REPORT = """
import json, os
writes = []  # every change the imports make to OPENBLAS_NUM_THREADS
Env = type(os.environ)
set_item, del_item = Env.__setitem__, Env.__delitem__
def logged_set(env, key, value):
    writes.append(["set", key, value] if key == "OPENBLAS_NUM_THREADS" else None)
    set_item(env, key, value)
def logged_del(env, key):
    writes.append(["del", key] if key == "OPENBLAS_NUM_THREADS" else None)
    del_item(env, key)
Env.__setitem__, Env.__delitem__ = logged_set, logged_del
{imports}
tasks = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else None
print(json.dumps({{"threads": None if tasks is None else len(tasks),
                  "writes": [w for w in writes if w],
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}}))
"""


def _run(code, blas=None):
    """Run `code` in a new interpreter, with no closure cache, whose
    environment holds OPENBLAS_NUM_THREADS only when `blas` is given;
    return the last line it prints, parsed as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _fresh(imports, blas=None):
    """Run `imports` as `_run` does; report the thread count, the imports'
    writes to OPENBLAS_NUM_THREADS, and its value afterwards."""
    return _run(REPORT.format(imports=imports), blas)


# Imports that load numpy: the table engine directly, and a command that
# builds a table.  `import ans.cli` alone loads none.
NUMPY_TRIGGERS = ("import ans.closure", "import ans.cli\nans.cli.main(['green', '--n', '2'])")


def test_cli_import_starts_no_blas_threads():
    for imports in ("import ans.cli",) + NUMPY_TRIGGERS:
        got = _fresh(imports)
        if got["threads"] is None:
            pytest.skip("no /proc/self/task on this platform")
        assert got["threads"] == 1, imports


def test_pin_is_removed_once_numpy_has_loaded():
    for imports in NUMPY_TRIGGERS:
        got = _fresh(imports)
        assert got["writes"] == [["set", "OPENBLAS_NUM_THREADS", "1"],
                                 ["del", "OPENBLAS_NUM_THREADS"]], imports
        assert got["blas"] == "unset"


def test_caller_setting_is_left_as_set():
    got = _fresh("import ans.closure", blas="2")
    assert got["writes"] == [] and got["blas"] == "2"


def test_numpy_imported_first_is_left_alone():
    got = _fresh("import numpy; import ans.closure")
    assert got["writes"] == [] and got["blas"] == "unset"


def test_counts_loads_no_numpy():
    got = _run("import json, sys\nimport ans.cli\n"
               "status = [ans.cli.main(['counts', '--n', '4', '--format', f])\n"
               "          for f in ('text', 'json')]\n"
               "print(json.dumps([status, 'numpy' in sys.modules]))\n")
    assert got == [[0, 0], False]


def test_package_attributes_load_their_modules():
    # bench/spans.py imports only `ans` and `ans.cli`, then reads these
    modules = ["closure", "eggbox", "generators", "green", "verify"]
    got = _run("import json\nimport ans\nimport ans.cli\n"
               f"print(json.dumps([getattr(ans, m).__name__ for m in {modules!r}]))\n")
    assert got == [f"ans.{m}" for m in modules]
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        ans.bogus


def test_only_the_numpy_module_imports_numpy():
    """Every module takes `np` from `ans._numpy`, so none loads numpy unpinned."""
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) and not node.level else [])
            imports += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] == "numpy" and path.name != "_numpy.py"]
    assert not imports


def test_the_package_has_no_assert_statement():
    """`python -O` strips `assert`, so every invariant raises AssertionError itself."""
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert not asserts


def test_verify_loads_no_numpy_random():
    # n = 3 is the first n whose axiom scan samples triples; every n samples
    # table cells in the proof of the Cayley tables
    got = _run("import json, sys\nimport ans.cli\n"
               "status = ans.cli.main(['verify', '--n', '1..3'])\n"
               "print(json.dumps([status, 'numpy.random' in sys.modules]))\n")
    assert got == [0, False]
