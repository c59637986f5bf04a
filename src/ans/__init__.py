"""Affine near-semirings over Brandt semigroups.

Construct the additive closure of the affine maps on B_n, compute Green's
relations of both reducts by brute force and by analytic shape rules, and
check every counting formula and structural theorem against enumeration.

Importing the package loads none of its modules: `ans.green` or `from ans
import green` loads one on first use (PEP 562), so `ans counts` never loads
numpy.  numpy is loaded in one place, `ans._numpy`.
"""

import importlib

__all__ = ["brandt", "maps", "generators", "closure", "green", "formulas",
           "eggbox", "verify"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
