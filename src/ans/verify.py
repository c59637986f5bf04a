"""Verification battery: every counting and classification claim, one check each.

Each check compares a measured quantity (closure run, Cayley tables,
brute-force Green structure) against an independent expectation (closed
form, analytic classifier, explicit isomorphism certificate) and reports
pass/fail with a minimal witness on failure.

The closure, which may come from a cache, is measured as a build is:
`closure.fixpoint` counts what the affine generators reach on its additive
rows, and `closure.tables_witness` proves its Cayley tables.  Only then do
the axiom scan and `green`'s scans read verdicts off the S_n orbit
representatives, whose orbits the Aut(B_n) check counts (`_orbit_census`).
"""

from dataclasses import dataclass
from typing import List

from ._numpy import np
from . import closure as closure_mod
from . import formulas, generators, green, maps

# The version of the `battery_dict` report's schema, kept apart from the cache's.
REPORT_VERSION = 1


@dataclass
class CheckResult:
    name: str
    n: int
    passed: bool
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f"  [{self.details}]" if (self.details and not self.passed) else ""
        return f"{self.name}: {status}{suffix}"


def _check(results, name, n, passed, details=""):
    results.append(CheckResult(name, n, bool(passed), details))
    return passed


def _diff(measured, expected) -> str:
    return f"measured {measured!r}, expected {expected!r}"


# A Green record's per-element flags, by what a witness calls them.
_FLAGS = {"idempotent": "idempotents", "regular": "regular elements",
          "eventual_index": "eventual indices"}


def _first_differing(measured, expected, flag, n) -> str:
    """"" when two Green records agree on the per-element `flag`; else its
    first element that differs, as its index and token."""
    i = np.flatnonzero(np.not_equal(getattr(measured, flag), getattr(expected, flag)))[:1]
    return f"{_FLAGS[flag]} differ first at {i[0]} {maps.tokens(i, n)[0]}" if i.size else ""


def _orbit_census(n) -> str:
    """"" when S_n's orbits (`maps.orbit_labels`) of each shape number as
    `formulas.orbit_counts` says, with n!/|Stab| members each (by the group
    of `maps.sn_action`); else the first shape, in rank order, that differs."""
    action = maps.sn_action(n)  # its labels are `maps.orbit_labels(n)`
    G, reps = action.group, action.reps
    sizes, stabs = np.bincount(action.labels)[reps], np.count_nonzero(G[:, reps] == reps, 0)
    expected = formulas.orbit_counts(n)
    of_shape = maps.fields(n)[reps, 0]  # expected's keys are the shape codes 0..3 in order
    for i, (shape, want) in enumerate(expected.items()):
        got, bad = np.count_nonzero(of_shape == i), (of_shape == i) & (sizes * stabs != len(G))
        if got != want or bad.any():
            k = bad.argmax()
            return (f"{shape}: {got} orbits, expected {want}" if got != want else f"{shape}: the "
                    f"orbit of {reps[k]} has {sizes[k]} members, n!/|Stab| = {len(G) // stabs[k]}")
    return ""


def run_battery(n: int, ns: closure_mod.NearSemiring) -> List[CheckResult]:
    """All checks at one n on the closure `ns`.  It may come from a cache;
    its tables are checked against the canonical family, so tampered
    files fail with a witness."""
    results: List[CheckResult] = []
    ct = formulas.counts(n)

    # generator layer
    gens = {"aff": generators.enumerate_kind("aff", n)}  # the others are dropped once counted
    gen_sizes = {k: len(gens.get(k) or generators.enumerate_kind(k, n)) for k in generators.KINDS}
    expected_sizes = {"end": ct.end_count, "aut": ct.aut_count,
                      "aff": ct.aff_count, "const": n * n + 1}
    _check(results, "generator censuses match closed forms", n,
           gen_sizes == expected_sizes, _diff(gen_sizes, expected_sizes))
    census = _orbit_census(n)  # and the S_n orbits that the scans read number as counted
    _check(results, "Aut(B_n) isomorphic to S_n", n, not census and generators.aut_iso_sn(n),
           census)

    # closure layer: the build's fixpoint, rerun on the S_n orbit representatives' stored rows
    add_sg, mul_sg = ns.reduct("additive"), ns.reduct("multiplicative")
    every, stored = np.arange(len(ns)), add_sg.op.rep_row[maps.sn_action(n).reps]
    try:  # pop: the Aff set is not held to the end
        reached = closure_mod.fixpoint(gens.pop("aff"), ns.add_table[stored])
        size, cause = int(np.count_nonzero(reached)), ""
    except ValueError as e:  # a generator refused
        size, cause = None, str(e)
    _check(results, "closure size matches closed form", n, size == ct.a_plus_total,
           cause or _diff(size, ct.a_plus_total))
    hist = closure_mod.support_histogram(ns)
    expected_hist = formulas.support_histogram_expected(n)
    _check(results, "support breakup matches closed form", n,
           hist == expected_hist, _diff(hist, expected_hist))

    witness = closure_mod.tables_witness(ns)
    if not _check(results, "Cayley tables reproducible from element list", n,
                  not witness, witness):
        # downstream checks would measure the corrupted tables, not the system
        return results

    report = closure_mod.verify_near_semiring(ns)
    _check(results, "near-semiring axioms hold", n, report.passed, str(report))

    try:
        add_gs = green.green_brute(add_sg)
        mul_gs = green.green_brute(mul_sg)
        _check(results, "D = J in both reducts", n, True)
    except AssertionError as e:
        _check(results, "D = J in both reducts", n, False, str(e))
        return results

    # Green censuses
    add_meas = {**{rel.lower(): len(add_gs.sizes(rel)) for rel in "RLD"},
                "idempotents": sum(add_gs.idempotent), "regular": sum(add_gs.regular)}
    _check(results, "additive Green census matches closed forms", n,
           add_meas == ct.additive, _diff(add_meas, ct.additive))
    mul_meas = {**{rel.lower(): len(mul_gs.sizes(rel)) for rel in "RLDH"},
                "idempotents": sum(mul_gs.idempotent)}
    _check(results, "multiplicative Green census matches closed forms", n,
           mul_meas == ct.multiplicative, _diff(mul_meas, ct.multiplicative))
    _check(results, f"D-classes(∘) = {ct.multiplicative['d']}", n,
           mul_meas["d"] == ct.multiplicative["d"], _diff(mul_meas["d"], ct.multiplicative["d"]))

    # the analytic records against brute force: whole partitions, then each element's flags
    add_an, mul_an = green.analytic_structure(add_sg), green.analytic_structure(mul_sg)
    for an, gs in ((add_an, add_gs), (mul_an, mul_gs)):
        differ = [r for r in green.RELATIONS if not np.array_equal(an.labels[r], gs.labels[r])]
        flags = filter(None, (_first_differing(gs, an, f, n) for f in _FLAGS))
        cause = f"relation {differ[0]} partitions differ" if differ else next(flags, "")
        _check(results, f"analytic classifiers match brute force ({gs.label})", n, not cause, cause)

    # structural theorems, additive reduct
    _check(results, "additive H is trivial", n, len(add_gs.sizes("H")) == len(ns),
           "some H-class has more than one element")
    twice = add_sg.op[every, every]
    _check(results, "aperiodicity: f+f = f+f+f for every f", n,
           bool(np.array_equal(twice, add_sg.op[twice, every])))
    ev, bound = add_gs.eventual_index, formulas.eventual_regularity_max(n)
    cause = _first_differing(add_gs, add_an, "eventual_index", n) or (
        f"index {max(ev)} exceeds {bound}" if max(ev) > bound else "")
    _check(results, "eventual regularity: index <= 2, index 2 exactly on n-support" if n >= 2
           else "eventual regularity: every element regular at n=1", n, not cause, cause)
    if n >= 2:  # at n = 1 the degenerate-case line stands in its place
        cause = _first_differing(add_gs, add_an, "regular", n)
        _check(results, "additive regularity criterion: regular iff support size != n", n,
               not cause, cause)

    # subset structure; K is the additively regular elements, which
    # green_brute has found (an orthodox semigroup is regular)
    for name, sg, subset, verdict in (
            ("(K,+) is an inverse semigroup", add_sg, "K", "inverse"),
            ("(N,∘) is an inverse semigroup", mul_sg, "N", "inverse"),
            ("multiplicative reduct is regular and orthodox", mul_sg, "all", "orthodox"),
            ("constants under + isomorphic to B_n", add_sg, "constants", "iso_holds"),
            ("singleton ideal under + isomorphic to a 0-direct union of n^2 copies of B_n",
             add_sg, "singleton-ideal", "iso_holds"),
            ("singleton ideal under ∘ isomorphic to B_{n^2}", mul_sg, "singleton-ideal",
             "iso_holds")):
        rep = (green.subset_report(sg, subset, np.flatnonzero(add_gs.regular))
               if subset == "K" else green.structural_checks(sg, subset))
        _check(results, name, n, rep.closed and getattr(rep, verdict), repr(rep))

    if n == 1:
        _check(results, "degenerate case: 3 elements, all idempotent in both reducts", n,
               all(add_gs.idempotent) and all(mul_gs.idempotent) and len(ns) == 3)
    return results


def battery_dict(all_results: List[CheckResult]) -> dict:
    return {
        "format_version": REPORT_VERSION,
        "all_passed": all(r.passed for r in all_results),
        "results": [
            {"name": r.name, "n": r.n, "passed": r.passed, "details": r.details}
            for r in all_results
        ],
    }
