"""Affine near-semirings over Brandt semigroups.

Construct the additive closure of the affine maps on B_n, compute Green's
relations of both reducts by brute force and by analytic shape rules, and
check every counting formula and structural theorem against enumeration.
"""

from . import brandt, maps, generators, closure, green, formulas, eggbox, verify
from .closure import (FiniteSemigroup, NearSemiring, additive_closure,
                      support_histogram, verify_near_semiring)
from .generators import GeneratorSet, enumerate_kind
from .green import (GreenStructure, SubsetReport, class_counts, green_brute,
                    green_analytic_additive, green_analytic_multiplicative,
                    structural_checks)
from .eggbox import EggBox, build_eggbox
from .formulas import CountsTable, counts
from .verify import CheckResult, run_battery

__version__ = "0.1.0"

__all__ = [
    "brandt", "maps", "generators", "closure", "green", "formulas",
    "eggbox", "verify",
    "FiniteSemigroup", "NearSemiring", "additive_closure",
    "support_histogram", "verify_near_semiring",
    "GeneratorSet", "enumerate_kind",
    "GreenStructure", "SubsetReport", "class_counts", "green_brute",
    "green_analytic_additive", "green_analytic_multiplicative",
    "structural_checks",
    "EggBox", "build_eggbox",
    "CountsTable", "counts",
    "CheckResult", "run_battery",
    "__version__",
]
