"""End-to-end acceptance battery.

Each test exercises one headline claim, prints a single PASS/FAIL line,
and asserts with zero tolerance.  Run with -s to see the lines.
"""

import json
from pathlib import Path

import pytest

from ans import brandt, closure, eggbox, formulas, generators, green, maps, verify
import oracles

GOLDEN = Path(__file__).parent / "golden"


def report(idx: int, desc: str, ok: bool):
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {idx} failed: {desc}"


def test_acceptance_01_n2_census_and_breakup(closure_of):
    ns = closure_of(2)
    counted = {"zero": 0, "singleton": 0, "n_support": 0, "full": 0}
    for f in oracles.elements(ns):
        c = oracles.classify(f)
        key = {oracles.Zero: "zero", oracles.Singleton: "singleton",
               oracles.NSupport: "n_support", oracles.Constant: "full"}[type(c)]
        counted[key] += 1
    ok = (len(ns) == 29
          and counted == {"zero": 1, "singleton": 16, "n_support": 8, "full": 4})
    report(1, "n=2 closure has 29 elements split 1/16/8/4 by shape", ok)


def test_acceptance_02_closure_sizes_match_closed_form(closure_of):
    sizes = {n: len(closure_of(n)) for n in (2, 3, 4)}
    expected = {n: formulas.counts(n).a_plus_total for n in (2, 3, 4)}
    ok = sizes == expected == {2: 29, 3: 145, 4: 657}
    report(2, "closure sizes 29/145/657 at n=2/3/4 match the closed form", ok)


def test_acceptance_03_endomorphism_counts():
    sizes = {n: len(generators.enumerate_end(n)) for n in (1, 2, 3, 4)}
    ok = sizes == {1: 3, 2: 5, 3: 10, 4: 29}
    ok = ok and all(sizes[n] == formulas.counts(n).end_count for n in sizes)
    ok = ok and sizes[2] == len(oracles.brute_force_endomorphisms(2))
    report(3, "endomorphism monoid sizes 3/5/10/29 at n=1..4 match n!+n+1", ok)


def test_acceptance_04_affine_generator_counts():
    sizes = {n: len(generators.enumerate_aff(n)) for n in (1, 2, 3, 4)}
    ok = sizes == {1: 3, 2: 13, 3: 64, 4: 401}
    ok = ok and all(sizes[n] == formulas.counts(n).aff_count for n in sizes)
    report(4, "affine generator sizes 3/13/64/401 at n=1..4 match (n!+1)n^2+1", ok)


def test_acceptance_05_additive_green_censuses(green_of):
    got = {}
    for n in (2, 3):
        gs = green_of(n, "additive")
        got[n] = {rel: len(gs.classes[rel]) for rel in ("R", "L", "D", "H")}
    ok = (got[2] == {"R": 15, "L": 19, "D": 10, "H": 29}
          and got[3] == {"R": 49, "L": 85, "D": 29, "H": 145})
    report(5, "additive Green censuses R/L/D/H = 15/19/10/29 (n=2), "
              "49/85/29/145 (n=3)", ok)


def test_acceptance_06_multiplicative_green_censuses(green_of):
    got = {}
    for n in (2, 3):
        gs = green_of(n, "multiplicative")
        got[n] = {rel: len(gs.classes[rel]) for rel in ("R", "L", "D", "H")}
    ok = (got[2] == {"R": 7, "L": 11, "D": 3, "H": 25}
          and got[3] == {"R": 13, "L": 22, "D": 3, "H": 100})
    report(6, "multiplicative Green censuses R/L/D/H = 7/11/3/25 (n=2), "
              "13/22/3/100 (n=3)", ok)


def test_acceptance_07_analytic_matches_brute_everywhere(closure_of, green_of):
    ok = True
    for n in (2, 3):
        forms = [oracles.classify(f) for f in oracles.elements(closure_of(n))]
        for label, keys in (("additive", oracles.additive_keys),
                            ("multiplicative", oracles.multiplicative_keys)):
            gs = green_of(n, label)
            for rel in green.RELATIONS:
                cls = gs.labels[rel].tolist()
                for i, a in enumerate(forms):
                    ci = cls[i]
                    for j, b in enumerate(forms):
                        if oracles.related(keys, a, b, rel) != (ci == cls[j]):
                            ok = False
    report(7, "analytic relation tests agree with brute force on every pair, "
              "all five relations, both reducts, n=2 and n=3", ok)


def test_acceptance_08_idempotent_and_regular_census(closure_of, green_of):
    ns = closure_of(2)
    add, mul = green_of(2, "additive"), green_of(2, "multiplicative")
    add_idem = {oracles.map_str(f)
                for f, e in zip(oracles.elements(ns), add.idempotent) if e}
    mul_idem = {oracles.map_str(f)
                for f, e in zip(oracles.elements(ns), mul.idempotent) if e}
    expected_add = ({"xi_theta", "xi(1,1)", "xi(2,2)"}
                    | {f"<({i},{j})->({p},{p})>"
                       for i in (1, 2) for j in (1, 2) for p in (1, 2)})
    expected_mul = ({"xi_theta", "xi(1,1)", "xi(1,2)", "xi(2,1)", "xi(2,2)",
                     "(1,1;[1,2])", "(2,2;[1,2])"}
                    | {f"<({i},{j})->({i},{j})>" for i in (1, 2) for j in (1, 2)})
    ok = (len(add_idem) == 11 and len(mul_idem) == 11
          and add_idem == expected_add and mul_idem == expected_mul
          and sum(add.regular) == 21 and all(mul.regular))
    report(8, "n=2 idempotent censuses are the 11+11 starred elements and "
              "21 of 29 elements are additively regular", ok)


def test_acceptance_09_axioms_and_invariants(closure_of):
    ok = True
    for n in (1, 2, 3):
        ns = closure_of(n)
        ok = ok and closure.verify_near_semiring(ns).passed
        ok = ok and closure.support_histogram(ns) == \
            formulas.support_histogram_expected(n)
        ok = ok and set(closure.support_histogram(ns)) <= {0, 1, n, n * n + 1}
        # the named-check battery covers aperiodicity, trivial additive H,
        # D = J, eventual regularity, inverse subsemigroups, orthodoxy,
        # and the explicit isomorphisms
        ok = ok and all(r.passed for r in verify.run_battery(n, ns=ns))
    report(9, "axioms, censuses, and every named structural check hold "
              "for n=1..3", ok)


def test_acceptance_10_degenerate_base_case(closure_of, green_of):
    ns = closure_of(1)
    add, mul = green_of(1, "additive"), green_of(1, "multiplicative")
    ct = formulas.counts(1)
    ok = (len(ns) == 3
          and all(add.idempotent) and all(mul.idempotent)
          and len(add.classes["D"]) == ct.additive["d"]
          and len(mul.classes["D"]) == ct.multiplicative["d"]
          and len(mul.classes["R"]) == ct.multiplicative["r"]
          and max(add.eventual_index) == 1)
    report(10, "n=1 collapses to 3 elements, all idempotent, with the "
               "degenerate censuses", ok)


def test_acceptance_11_eggbox_goldens(closure_of):
    ok = True
    for label in ("additive", "multiplicative"):
        eb = eggbox.build_eggbox(closure_of(2), label)
        want = (GOLDEN / f"eggbox_n2_{label}.txt").read_text()
        ok = ok and eggbox.eggbox_text(eb) == want and eb.star_count == 11
    report(11, "n=2 egg-box diagrams match the golden renderings with "
               "11 stars in each reduct", ok)


def test_acceptance_12_verification_battery_deterministic(tmp_path):
    blobs = []
    for _ in range(3):
        results = verify.run_battery(2, closure.additive_closure(generators.enumerate_aff(2)))
        blobs.append(json.dumps(verify.battery_dict(results),
                                indent=2, sort_keys=True).encode())
    ok = (blobs[0] == blobs[1] == blobs[2]
          and json.loads(blobs[0])["all_passed"])
    report(12, "verification battery passes and its JSON report is "
               "byte-identical across runs", ok)
