"""Affine near-semirings over Brandt semigroups.

Construct the additive closure of the affine maps on B_n, compute Green's
relations of both reducts by brute force and by analytic shape rules, and
check every counting formula and structural theorem against enumeration.

Importing the package first pins OpenBLAS to one thread while numpy loads,
unless the caller set OPENBLAS_NUM_THREADS or imported numpy already.
"""

import os
import sys

# Nothing here calls BLAS, but OpenBLAS starts a worker pool as numpy
# loads, and once started the pool lives as long as the process.  So the
# variable is set only around numpy's first import and then removed:
# child processes and the caller's environment never see it.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import brandt, maps, generators, closure, green, formulas, eggbox, verify
from .closure import (FiniteSemigroup, NearSemiring, additive_closure,
                      support_histogram, verify_near_semiring)
from .generators import GeneratorSet, enumerate_kind
from .green import (GreenStructure, SubsetReport, class_counts, green_brute,
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
    "structural_checks",
    "EggBox", "build_eggbox",
    "CountsTable", "counts",
    "CheckResult", "run_battery",
    "__version__",
]
