"""In-memory span recorder for the traced run, and the layer calls it wraps.

Spans are recorded from the benchmark's side: while `traced_layers` is
active, the public functions of each `ans` layer are replaced on their
modules by wrappers that open a span around the call and record counts
from its arguments and result.  Callers inside the package look these
functions up as module attributes at call time, so the CLI's own calls
are the ones timed.  Nothing in the package is edited.
"""

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from workloads import REDUCTS

RELATIONS = ("R", "L", "D", "H")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into SpanRecorder.spans
    workload: str          # one id per replay, shared by all its spans
    n: Optional[int] = None
    counts: Dict[str, int] = field(default_factory=dict)


class SpanRecorder:
    """Collects spans in memory; `dump` writes them out once the run ends."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.workload = ""

    @contextmanager
    def span(self, name, n=None):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), 0.0, parent, self.workload, n)
        self.spans.append(s)
        self._open.append(idx)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_times(self, spans_range) -> List[float]:
        """Span duration minus the time covered by its direct children."""
        lo, hi = spans_range
        own = [self.spans[i].end - self.spans[i].start for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.spans[i].parent
            if p is not None and p >= lo:
                own[p - lo] -= self.spans[i].end - self.spans[i].start
        return own

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def _table_counts(ns):
    return {"closure.elements": len(ns),
            "closure.table_cells": int(ns.add_table.size + ns.mul_table.size),
            "closure.table_bytes": int(ns.add_table.nbytes + ns.mul_table.nbytes)}


def _green_counts(gs):
    return {f"green.classes.{gs.label}.{rel}": len(gs.classes[rel]) for rel in RELATIONS}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _layer_specs(ans):
    """(module, attribute, span name, n, counts) for every traced call.

    `name`, `n` and `counts` are functions of the call's (args, kwargs) and,
    for counts, its result.
    """
    cli, closure, eggbox, generators, green, verify = (
        ans.cli, ans.closure, ans.eggbox, ans.generators, ans.green, ans.verify)
    none = lambda a, k, r: {}  # noqa: E731

    def cache_file(a, k):
        cache_dir = _arg(a, k, 1, "cache_dir")
        return None if cache_dir is None else cli.cache_path(cache_dir, a[0])

    def load_name(a, k):
        path = cache_file(a, k)
        return "cli.load_or_build." + ("hit" if path and path.exists() else "miss")

    def load_counts(a, k, r):
        path = cache_file(a, k)
        return {"cli.cache_bytes": path.stat().st_size} if path else {}

    green_spec = (lambda a, k: "green.green_brute." + a[0].label,
                  lambda a, k: a[0].n, lambda a, k, r: _green_counts(r))
    return [
        (generators, "enumerate_aff", lambda a, k: "generators.enumerate_aff",
         lambda a, k: a[0], lambda a, k, r: {"generators.aff_count": len(r)}),
        (closure, "additive_closure", lambda a, k: "closure.additive_closure",
         lambda a, k: a[0].n, lambda a, k, r: _table_counts(r)),
        (closure, "verify_near_semiring", lambda a, k: "closure.verify_near_semiring",
         lambda a, k: a[0].n,
         lambda a, k, r: {"closure.axiom_triples": sum(c.checked for c in r.checks)}),
        (closure, "to_dict", lambda a, k: "closure.to_dict", lambda a, k: a[0].n, none),
        (closure, "from_dict", lambda a, k: "closure.from_dict",
         lambda a, k: a[0]["n"], lambda a, k, r: _table_counts(r)),
        (cli, "load_or_build", load_name, lambda a, k: a[0], load_counts),
        (green, "green_brute") + green_spec,
        # build_eggbox calls green_brute through its own module's name
        (eggbox, "green_brute") + green_spec,
        (green, "analytic_structure", lambda a, k: "green.analytic_structure",
         lambda a, k: a[0].n, none),
        (green, "structural_checks", lambda a, k: "green.structural_checks",
         lambda a, k: a[0].n, none),
        (eggbox, "build_eggbox",
         lambda a, k: "eggbox.build_eggbox." + _arg(a, k, 1, "label"),
         lambda a, k: a[0].n,
         lambda a, k, r: {f"eggbox.d_classes.{r.label}": len(r.boxes),
                          f"eggbox.covers.{r.label}": len(r.covers)}),
        (eggbox, "render", lambda a, k: "eggbox.render", lambda a, k: a[0].n, none),
        (verify, "run_battery", lambda a, k: "verify.run_battery",
         lambda a, k: a[0], lambda a, k, r: {"verify.checks": len(r)}),
    ]


@contextmanager
def traced_layers(recorder: SpanRecorder, ans):
    """Wrap each layer's public functions with spans; restore them on exit."""
    saved = []

    def wrap(fn, name_of, n_of, counts_of):
        def traced(*args, **kwargs):
            with recorder.span(name_of(args, kwargs), n_of(args, kwargs)) as s:
                result = fn(*args, **kwargs)
                s.counts.update(counts_of(args, kwargs, result))
                return result
        return traced

    try:
        for module, attr, name_of, n_of, counts_of in _layer_specs(ans):
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, wrap(fn, name_of, n_of, counts_of))
        yield recorder
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# --- per-layer metrics ---------------------------------------------------------

TIMED_LAYERS = (
    "generators.enumerate_aff", "closure.additive_closure",
    "closure.verify_near_semiring", "cli.load_or_build.miss",
    "cli.load_or_build.hit", "closure.to_dict", "closure.from_dict",
    "green.green_brute.additive", "green.green_brute.multiplicative",
    "green.analytic_structure", "green.structural_checks",
    "eggbox.build_eggbox.additive", "eggbox.build_eggbox.multiplicative",
    "eggbox.render", "verify.run_battery",
)
COUNTS = (
    ("generators.aff_count", "count"), ("closure.elements", "count"),
    ("closure.table_cells", "count"), ("closure.table_bytes", "bytes"),
    ("closure.axiom_triples", "count"), ("cli.cache_bytes", "bytes"),
    *((f"green.classes.{r}.{rel}", "count") for r in REDUCTS for rel in RELATIONS),
    *((f"eggbox.{what}.{r}", "count") for what in ("d_classes", "covers") for r in REDUCTS),
    ("verify.checks", "count"),
)
# What `ans verify` exercises at every n, so recorded per n for n below the top one.
PER_N = ("generators.", "closure.additive_closure", "closure.elements",
         "closure.table_", "closure.verify_near_semiring", "closure.axiom_triples",
         "cli.load_or_build.miss", "closure.to_dict", "cli.cache_bytes",
         "green.green_brute.", "green.classes.", "green.analytic_structure",
         "green.structural_checks", "verify.")
OVERHEAD = ("trace.replay_s", "trace.untraced_wall_s", "trace.gap_s")


def per_layer_metrics(top_n: int) -> Dict[str, str]:
    """Every per-layer metric name of a traced run, mapped to its unit."""
    base = {f"{name}_s": "s" for name in TIMED_LAYERS}
    base.update(COUNTS)
    out = dict(base)
    for k in range(1, top_n):
        for name, unit in base.items():
            if name.startswith(PER_N):
                out[f"{name}.n{k}"] = unit
    out.update((name, "s") for name in OVERHEAD)
    return out


def replay_metrics(recorder: SpanRecorder, spans_range, top_n: int) -> Dict[str, float]:
    """Self time per layer and the last count seen, keyed as in `per_layer_metrics`."""
    lo, hi = spans_range
    out: Dict[str, float] = {}
    for span, own in zip(recorder.spans[lo:hi], recorder.self_times(spans_range)):
        suffix = "" if span.n in (None, top_n) else f".n{span.n}"
        if span.name in TIMED_LAYERS:
            key = f"{span.name}_s{suffix}"
            out[key] = out.get(key, 0.0) + own
        for name, value in span.counts.items():
            out[name + suffix] = value
    return out
