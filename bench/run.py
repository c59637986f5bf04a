"""Benchmark of the `ans` CLI: one fresh process per command, run one at a time.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-cold --seed 1 --seconds 50 --trace 0

With `--trace 0` it repeats the workload's command sequence for about
`--seconds` and reports the end-to-end metrics (medians over iterations).
With `--trace 1` each iteration runs the workload once untraced, then
replays both workloads inside this process with a span around each
layer's public functions, and reports the per-layer metrics.  Every
command's output is checked outside the timed window; the last line of
stdout is one JSON object, and the exit status is 1 if any command failed
its check.  See NOTES.md for the workloads, metrics and baseline.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from spans import SpanRecorder, per_layer_metrics, replay_metrics, traced_layers
from workloads import (TOP_N, WARM, WORKLOADS, Expect, Op, expect, probe, warm_cache,
                       workload_ops)

SETUPS = 3  # set-ups per untraced run; setup_s is their median
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "cache_mb": "MB"}
WORK_DIR = ".bench_work"
SPAN_DIR = ".bench_out"


@dataclass
class Proc:
    status: int
    cpu_s: float
    rss_mb: float


@dataclass
class Runner:
    """Starts `ans` processes and keeps the tally of checked commands."""
    env: Dict[str, str]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def argv(self, op: Op, cache: Path, op_dir: Path) -> List[str]:
        argv = list(op.argv)
        if op.cached:
            argv += ["--cache-dir", str(cache)]
        if op.out:
            argv += ["--out", str(op_dir / op.out)]
        return argv

    def spawn(self, op: Op, cache: Path, op_dir: Path) -> Proc:
        """Run one command to completion; its rusage is its own, from wait4."""
        cmd = [sys.executable, "-m", "ans.cli"] + self.argv(op, cache, op_dir)
        with open(op_dir / "stdout", "wb") as out, open(op_dir / "stderr", "wb") as err:
            p = subprocess.Popen(cmd, cwd=op_dir, env=self.env, stdout=out, stderr=err)
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                os.wait4(p.pid, 0)
                raise
            p.returncode = os.waitstatus_to_exitcode(status)
        return Proc(p.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)

    def sequence(self, ops: List[Op], cache: Path, base: Path):
        """Run `ops` in order; returns (wall seconds, procs, op dirs)."""
        dirs = [base / f"op{i}" for i in range(len(ops))]
        for d in dirs:
            d.mkdir(parents=True)
        t0 = time.perf_counter()
        procs = [self.spawn(op, cache, d) for op, d in zip(ops, dirs)]
        return time.perf_counter() - t0, procs, dirs

    def check(self, ops: List[Op], statuses: List[int], dirs: List[Path]):
        for op, status, d in zip(ops, statuses, dirs):
            self.attempted += 1
            if status != 0:
                why = f"exit status {status}: " + (d / "stderr").read_text()[-500:]
            else:
                out = d / op.out if op.out else None
                files = {op.out: out.read_text()} if out and out.exists() else {}
                why = op.check((d / "stdout").read_text(), files)
            if why:
                self.failures.append(f"ans {' '.join(op.argv)}: {why}")


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def set_up(runner: Runner, e: Expect, base: Path, warm: bool) -> Path:
    """Fresh directories and a probe command; if `warm`, build the cache too."""
    base.mkdir()
    cache = base / "cache"
    cache.mkdir()
    ops = [probe(e)] + ([warm_cache(e)] if warm else [])
    _, procs, dirs = runner.sequence(ops, cache, base)
    runner.check(ops, [p.status for p in procs], dirs)
    return cache


def iterate(name, e, rng, work, seconds, caches, step):
    """Call `step(i, ops, cache, it_dir)` for about `seconds`, at least once.

    Another call starts while half the median call so far still fits, so a
    run ends, on average, close to `seconds`.
    """
    took = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        ops = workload_ops(name, e)
        if name in WARM:
            rng.shuffle(ops)
        it_dir = work / f"it{i}"
        it_dir.mkdir()
        if name in WARM:
            cache = caches[i % len(caches)]
        else:
            cache = it_dir / "cache"
            cache.mkdir()
        step(i, ops, cache, it_dir)
        shutil.rmtree(it_dir)
        i += 1
        took.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(took) / 2 > deadline:
            return


def untraced_run(runner, name, e, rng, work, seconds):
    setups, caches = [], []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        caches.append(set_up(runner, e, work / f"setup{k}", name in WARM))
        setups.append(time.perf_counter() - t0)
    samples = {key: [] for key in END_TO_END}
    samples["setup_s"] = setups

    def step(i, ops, cache, it_dir):
        wall, procs, dirs = runner.sequence(ops, cache, it_dir)
        runner.check(ops, [p.status for p in procs], dirs)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(sum(p.cpu_s for p in procs))
        samples["peak_rss_mb"].append(max(p.rss_mb for p in procs))
        samples["cache_mb"].append(dir_bytes(cache) / 1e6)

    iterate(name, e, rng, work, seconds, caches, step)
    return samples, END_TO_END


def replay_op(cli, runner: Runner, op: Op, cache: Path, op_dir: Path) -> int:
    """One command through `cli.main` in this process, its output captured to files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(runner.argv(op, cache, op_dir))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
    (op_dir / "stdout").write_text(out.getvalue())
    (op_dir / "stderr").write_text(err.getvalue())
    return status


def traced_run(runner, name, e, rng, work, seconds, span_path):
    """Per-layer metrics from in-process replays of every workload.

    Each iteration runs `name` once untraced, then replays both
    workloads with spans, so every layer is timed on every traced run; the
    span dump keeps which replay each span came from.  The trace.* metrics
    compare the replay of `name` with its untraced run.
    """
    ans = importlib.import_module("ans")
    importlib.import_module("ans.cli")
    warm = set_up(runner, e, work / "setup0", warm=True)  # for explore-warm's replay
    recorder = SpanRecorder()
    units = per_layer_metrics(e.n)
    samples = {key: [] for key in units}

    def replay(i, wl, ops, cache, base):
        dirs = [base / f"op{j}" for j in range(len(ops))]
        for d in dirs:
            d.mkdir(parents=True)
        recorder.workload = f"{wl}#{i}"
        with traced_layers(recorder, ans), recorder.span("bench.replay") as root:
            statuses = []
            for op, d in zip(ops, dirs):
                with recorder.span("cli." + op.argv[0]):
                    statuses.append(replay_op(ans.cli, runner, op, cache, d))
        runner.check(ops, statuses, dirs)
        return root.end - root.start

    def step(i, ops, cache, it_dir):
        wall, procs, dirs = runner.sequence(ops, cache, it_dir / "untraced")
        runner.check(ops, [p.status for p in procs], dirs)
        lo = len(recorder.spans)
        for wl in WORKLOADS:
            base = it_dir / f"replay-{wl}"
            took = replay(i, wl, ops if wl == name else workload_ops(wl, e),
                          warm if wl in WARM else base / "cache", base)
            if wl == name:
                replay_s = took
        got = replay_metrics(recorder, (lo, len(recorder.spans)), e.n)
        got.update({"trace.replay_s": replay_s, "trace.untraced_wall_s": wall,
                    "trace.gap_s": wall - replay_s})
        for key in samples:
            samples[key].append(got.get(key, 0))

    try:
        iterate(name, e, rng, work, seconds, [warm], step)
    finally:
        recorder.dump(span_path)
    return samples, units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="permutes the order of explore-warm's commands")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for about this long (at least one iteration)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=TOP_N,
                    help=f"largest n of the workload's commands ({TOP_N} defines "
                         "the benchmark; smaller values are for its own smoke test)")
    return ap.parse_args(argv)


def measure(args) -> dict:
    """Run one benchmark invocation from the current directory; returns the result."""
    root = Path.cwd()
    src = root / "src"
    if not (src / "ans" / "cli.py").is_file():
        raise FileNotFoundError(
            f"no ans source tree at {src / 'ans'}; run from the root of a checkout")
    # ANS_CACHE_DIR overrides --cache-dir in the CLI, which would turn a cold
    # workload warm: neither the children nor the in-process replay may see it.
    os.environ.pop("ANS_CACHE_DIR", None)
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))
    e = expect(args.n, importlib.import_module("ans.formulas"))

    runner = Runner(env)
    rng = random.Random(args.seed)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    try:
        if args.trace:
            span_path = root / SPAN_DIR / f"spans_{args.workload}_seed{args.seed}.json"
            samples, units = traced_run(runner, args.workload, e, rng, work,
                                        args.seconds, span_path)
        else:
            samples, units = untraced_run(runner, args.workload, e, rng, work, args.seconds)
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()

    for why in runner.failures:
        print(f"FAILED {why}", file=sys.stderr)
    metrics = {key: {"value": statistics.median(vals), "unit": units[key]}
               for key, vals in samples.items()}
    print(f"workload {args.workload}, n={args.n}, seed {args.seed}, "
          f"trace {args.trace}: medians")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']:<6} "
              f"(of {len(samples[key])})")
    print(f"  {'ops_failed_frac':<40} {len(runner.failures) / runner.attempted:>14.6g} "
          f"       ({len(runner.failures)} of {runner.attempted} commands)")
    return {"correct": not runner.failures, "attempted": runner.attempted,
            "failed": len(runner.failures), "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = measure(args)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # On SIGTERM, unwind so the running child is killed and reaped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
