"""numpy for every `ans` module, loaded with OpenBLAS pinned to one thread:
nothing here calls BLAS, and a pool started as numpy loads lives as long as
the process.  The variable is set only around numpy's first import, so child
processes never see it; a caller's own setting, or numpy loaded first, wins."""

import os
import sys

if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np
