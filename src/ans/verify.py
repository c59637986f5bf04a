"""Verification battery: every counting and classification claim, one check each.

Each check compares a measured quantity (closure run, Cayley tables,
brute-force Green structure) against an independent expectation (closed
form, analytic classifier, explicit isomorphism certificate) and reports
pass/fail with a minimal witness on failure.

The Cayley tables, which may come from a cache, are checked by
`closure.tables_witness`, which proves them from the orbit
representatives' rows and the S_n symmetry without a second full fill, and
names the first wrong cell on a failure.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from . import closure as closure_mod
from . import formulas, generators, green, maps


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


def run_battery(n: int, ns: closure_mod.NearSemiring) -> List[CheckResult]:
    """All checks at one n on the closure `ns`.  It may come from a cache;
    its tables are checked against the element list, so tampered files
    fail with a witness."""
    results: List[CheckResult] = []
    ct = formulas.counts(n)

    # generator layer
    gen_sizes = {kind: len(generators.enumerate_kind(kind, n))
                 for kind in generators.KINDS}
    expected_sizes = {"end": ct.end_count, "aut": ct.aut_count,
                      "aff": ct.aff_count, "const": n * n + 1}
    _check(results, "generator censuses match closed forms", n,
           gen_sizes == expected_sizes, _diff(gen_sizes, expected_sizes))
    _check(results, "Aut(B_n) isomorphic to S_n", n, generators.aut_iso_sn(n))

    # closure layer
    _check(results, "closure size matches closed form", n,
           len(ns) == ct.a_plus_total, _diff(len(ns), ct.a_plus_total))
    hist = closure_mod.support_histogram(ns)
    expected_hist = formulas.support_histogram_expected(n)
    _check(results, "support breakup matches closed form", n,
           hist == expected_hist and closure_mod.intermediate_support_check(ns),
           _diff(hist, expected_hist))

    witness = closure_mod.tables_witness(ns)
    if not _check(results, "Cayley tables reproducible from element list", n,
                  not witness, witness):
        # downstream checks would measure the corrupted tables, not the system
        return results

    report = closure_mod.verify_near_semiring(ns)
    _check(results, "near-semiring axioms hold", n, report.passed, str(report))

    add_sg = ns.reduct("additive")
    mul_sg = ns.reduct("multiplicative")
    try:
        add_gs = green.green_brute(add_sg)
        mul_gs = green.green_brute(mul_sg)
        _check(results, "D = J in both reducts", n, True)
    except AssertionError as e:
        _check(results, "D = J in both reducts", n, False, str(e))
        return results

    # Green censuses
    add_meas = {"r": len(add_gs.classes["R"]), "l": len(add_gs.classes["L"]),
                "d": len(add_gs.classes["D"]),
                "idempotents": sum(add_gs.idempotent),
                "regular": sum(add_gs.regular)}
    _check(results, "additive Green census matches closed forms", n,
           add_meas == ct.additive, _diff(add_meas, ct.additive))
    mul_meas = {"r": len(mul_gs.classes["R"]), "l": len(mul_gs.classes["L"]),
                "d": len(mul_gs.classes["D"]),
                "h": len(mul_gs.classes["H"]),
                "idempotents": sum(mul_gs.idempotent)}
    _check(results, "multiplicative Green census matches closed forms", n,
           mul_meas == ct.multiplicative, _diff(mul_meas, ct.multiplicative))
    _check(results, f"D-classes(∘) = {ct.multiplicative['d']}", n,
           len(mul_gs.classes["D"]) == ct.multiplicative["d"],
           _diff(len(mul_gs.classes["D"]), ct.multiplicative["d"]))

    # analytic classifiers against brute force, as whole partitions
    for sg, gs, tag in ((add_sg, add_gs, "additive"), (mul_sg, mul_gs, "multiplicative")):
        analytic = green.analytic_structure(sg)
        differ = [rel for rel in green.RELATIONS if green.partition_key(analytic[rel])
                  != green.partition_key(gs.classes[rel])]
        _check(results, f"analytic classifiers match brute force ({tag})", n,
               not differ, f"relation {differ[0]} partitions differ" if differ else "")

    # structural theorems, additive reduct
    _check(results, "additive H is trivial", n,
           all(len(c) == 1 for c in add_gs.classes["H"]),
           "some H-class has more than one element")
    two_f = add_sg.op.diagonal()
    three_f = add_sg.op[two_f, np.arange(len(ns))]
    _check(results, "aperiodicity: f+f = f+f+f for every f", n,
           bool(np.array_equal(two_f, three_f)))
    ev = add_gs.eventual_index
    ev_ok = max(ev) <= formulas.eventual_regularity_max(n)
    on_n_support = maps.support_sizes(ns.elements) == n
    if n >= 2:
        ev_ok = ev_ok and np.array_equal(np.equal(ev, 2), on_n_support)
        name = "eventual regularity: index <= 2, index 2 exactly on n-support"
    else:
        name = "eventual regularity: every element regular at n=1"
        ev_ok = ev_ok and set(ev) == {1}
    _check(results, name, n, ev_ok)
    if n >= 2:
        _check(results, "additive regularity criterion: regular iff support size != n",
               n, np.array_equal(add_gs.regular, ~on_n_support))

    # subset structure
    k_rep = green.structural_checks(add_sg, "K")
    _check(results, "(K,+) is an inverse semigroup", n,
           k_rep.closed and k_rep.inverse, repr(k_rep))
    n_rep = green.structural_checks(mul_sg, "N")
    _check(results, "(N,∘) is an inverse semigroup", n,
           n_rep.closed and n_rep.inverse, repr(n_rep))
    all_mul = green.structural_checks(mul_sg, "all")
    _check(results, "multiplicative reduct is regular and orthodox", n,
           all_mul.regular and all_mul.orthodox, repr(all_mul))
    const_rep = green.structural_checks(add_sg, "constants")
    _check(results, "constants under + isomorphic to B_n", n,
           const_rep.closed and const_rep.iso_holds, repr(const_rep))
    sing_add = green.structural_checks(add_sg, "singleton-ideal")
    _check(results, "singleton ideal under + isomorphic to a 0-direct union of "
                    "n^2 copies of B_n", n,
           sing_add.closed and sing_add.iso_holds, repr(sing_add))
    sing_mul = green.structural_checks(mul_sg, "singleton-ideal")
    _check(results, "singleton ideal under ∘ isomorphic to B_{n^2}", n,
           sing_mul.closed and sing_mul.iso_holds, repr(sing_mul))

    if n == 1:
        both_idem = (all(add_gs.idempotent) and all(mul_gs.idempotent)
                     and len(ns) == 3)
        _check(results, "degenerate case: 3 elements, all idempotent in both reducts",
               n, both_idem)
    return results


def battery_dict(all_results: List[CheckResult]) -> dict:
    return {
        "format_version": closure_mod.FORMAT_VERSION,
        "all_passed": all(r.passed for r in all_results),
        "results": [
            {"name": r.name, "n": r.n, "passed": r.passed, "details": r.details}
            for r in all_results
        ],
    }
