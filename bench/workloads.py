"""The benchmark's workloads and the checks on every command's output.

Why these two (see NOTES.md for the layer mapping):

* verify-cold: `ans verify --n 1..N` on an empty cache, the paper
  reproduction path.  Every layer but the egg-box works, in similar shares,
  so a gain in one layer offset by a loss in another shows here.  It
  builds and writes the closure cache at every n.
* explore-warm: `ans green` and `ans eggbox` for both reducts on a cache
  built during set-up.  Cache read, four brute-force Green runs and the
  egg-box J-order covers; the closure does no work.

Expected values come from the closed forms in `ans.formulas`, plus two
theorems the battery also checks: additive H-classes are trivial and the
multiplicative reduct is regular.
"""

import json
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

REDUCTS = ("additive", "multiplicative")
WORKLOADS = ("verify-cold", "explore-warm")
WARM = ("explore-warm",)  # read a cache built during set-up
TOP_N = 4  # the n that defines the benchmark; smaller n only in its smoke test
# Battery checks per n when this benchmark was written.  A later battery
# may add checks; one that runs fewer, or fails any, fails the op.
CHECKS_PER_N = 22


@dataclass
class Expect:
    n: int
    elements: int
    histogram: Dict[int, int]
    green: Dict[str, Dict[str, int]]  # reduct -> relation / flag -> count
    checks_per_n: int = CHECKS_PER_N


def expect(n: int, formulas) -> Expect:
    ct = formulas.counts(n)
    m = ct.a_plus_total
    add, mul = ct.additive, ct.multiplicative
    green = {
        "additive": {"R": add["r"], "L": add["l"], "D": add["d"], "J": add["d"],
                     "H": m, "idempotents": add["idempotents"],
                     "regular": add["regular"]},
        "multiplicative": {"R": mul["r"], "L": mul["l"], "D": mul["d"], "J": mul["d"],
                           "H": mul["h"], "idempotents": mul["idempotents"],
                           "regular": m},
    }
    return Expect(n, m, formulas.support_histogram_expected(n), green)


@dataclass
class Op:
    """One `ans` command.  `check(stdout, files)` returns a failure message or None.

    The runner adds `--cache-dir` when `cached`, and `--out <op dir>/<out>`
    when `out` is set; `files` maps `out` to that file's text.
    """
    argv: List[str]
    check: Callable[[str, Dict[str, str]], Optional[str]]
    cached: bool = True
    out: Optional[str] = None


def _mismatch(what, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def check_counts(e: Expect):
    def check(stdout, files):
        got = re.search(r"^\s+a_plus_total\s+(\d+)$", stdout, re.M)
        return _mismatch("a_plus_total", got and int(got.group(1)), e.elements)
    return check


def check_enumerate(e: Expect):
    hist = ", ".join(f"{k}: {v}" for k, v in sorted(e.histogram.items()))
    want = [f"{e.elements} elements", f"support histogram: {hist}"]

    def check(stdout, files):
        return _mismatch("enumerate output", stdout.splitlines(), want)
    return check


def check_green(e: Expect, reduct: str):
    def check(stdout, files):
        got = {rel: int(c) for rel, c in re.findall(r"^\s+([RLDJH])-classes: (\d+)", stdout, re.M)}
        for key, label in (("idempotents", "idempotents"), ("regular", "regular elements")):
            hit = re.search(rf"^\s+{label}: (\d+)$", stdout, re.M)
            if hit:
                got[key] = int(hit.group(1))
        return _mismatch(f"green {reduct}", got, e.green[reduct])
    return check


def check_eggbox(e: Expect, reduct: str):
    want = {"elements": e.elements, "D-classes": e.green[reduct]["D"],
            "starred": e.green[reduct]["idempotents"]}

    def check(stdout, files):
        head = stdout.split("\n", 1)[0]
        hit = re.search(r"\((\d+) elements?, (\d+) D-class(?:es)?, (\d+) starred\)$", head)
        got = hit and dict(zip(want, map(int, hit.groups())))
        return _mismatch(f"eggbox {reduct} header", got, want)
    return check


def check_verify(e: Expect):
    def check(stdout, files):
        try:
            report = json.loads(files["report.json"])
        except (KeyError, ValueError) as exc:
            return f"verify report unreadable: {exc!r}"
        if report.get("all_passed") is not True:
            failed = [r["name"] for r in report.get("results", []) if not r.get("passed")]
            return f"verify: all_passed is not true; failed {failed}"
        per_n = {k: 0 for k in range(1, e.n + 1)}
        for r in report["results"]:
            if r.get("n") in per_n and r.get("passed") is True:
                per_n[r["n"]] += 1
        short = {k: c for k, c in per_n.items() if c < e.checks_per_n}
        return None if not short else (
            f"verify: passed checks per n {short}, expected at least {e.checks_per_n}")
    return check


def probe(e: Expect) -> Op:
    """Set-up's first command: the CLI starts, and answers a closed form."""
    return Op(["counts", "--n", str(e.n)], check_counts(e), cached=False)


def warm_cache(e: Expect) -> Op:
    """Set-up of explore-warm: build the closure cache its commands read."""
    return Op(["enumerate", "--n", str(e.n)], check_enumerate(e))


def workload_ops(name: str, e: Expect) -> List[Op]:
    """The commands of one iteration, in their default order."""
    if name == "verify-cold":
        return [Op(["verify", "--n", f"1..{e.n}"], check_verify(e), out="report.json")]
    if name == "explore-warm":
        return ([Op(["green", "--n", str(e.n), "--reduct", r], check_green(e, r))
                 for r in REDUCTS]
                + [Op(["eggbox", "--n", str(e.n), "--reduct", r], check_eggbox(e, r))
                   for r in REDUCTS])
    raise ValueError(f"unknown workload {name!r}")
