"""The names of `ans` that the benchmark harness replaces or reads exist.

`bench/spans.py` replaces the public functions its `_layer_specs` lists on
their modules, reads the second argument of `cli.load_or_build` and of
`eggbox.build_eggbox` by position, and reads `NearSemiring.add_table` and
`mul_table` and `GreenStructure.label` and `classes` by name, `classes` on
a built record, as it is built when first read.  A rename in `ans` that
breaks the harness fails here, without running it.  The harness is loaded
from its source, with no bytecode written under `bench/`.
"""

import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ans
from ans import cli, closure, eggbox, green

BENCH = Path(__file__).parent.parent / "bench"


def _snapshot():
    return sorted((str(p), p.stat().st_mtime_ns) for p in BENCH.rglob("*"))


@pytest.fixture
def spans(monkeypatch):
    before, had = _snapshot(), "workloads" in sys.modules
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))  # spans.py imports workloads
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        if not had:
            sys.modules.pop("workloads", None)
    assert _snapshot() == before


def test_every_function_the_harness_replaces_exists(spans):
    specs = spans._layer_specs(ans)
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in specs
               if not callable(getattr(module, attr, None))]
    assert specs and not missing, "bench/spans.py replaces missing functions: " + ", ".join(missing)


def test_the_arguments_and_fields_the_harness_reads_exist(green_of):
    assert list(inspect.signature(cli.load_or_build).parameters)[1] == "cache_dir"
    assert list(inspect.signature(eggbox.build_eggbox).parameters)[1] == "label"
    assert {"add_table", "mul_table"} <= {f.name for f in fields(closure.NearSemiring)}
    assert "label" in {f.name for f in fields(green.GreenStructure)}
    # `classes` is built from the labels when first read, so it is read on a record
    gs = green_of(2, "multiplicative")
    every = np.arange(len(gs.idempotent))
    assert gs.label == "multiplicative"
    assert [len(gs.classes[rel]) for rel in green.RELATIONS] == [
        np.count_nonzero(gs.labels[rel] == every) for rel in green.RELATIONS] == [7, 11, 3, 3, 25]
