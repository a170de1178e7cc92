"""Kernel backend selection.

The binomial sampler exists twice: a numba @njit version and a pure-numpy
version.  The environment variable PENSIONLAB_BACKEND picks one:

    auto   (default) numba when importable, numpy otherwise
    numba  require numba, fail loudly if missing
    numpy  skip numba entirely

Kernels are compiled without fastmath and without parallelism so results are
deterministic and independent of thread counts.
"""

from __future__ import annotations

import os

try:
    from numba import njit as _njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _njit = None
    HAS_NUMBA = False

_requested = os.environ.get("PENSIONLAB_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "numba", "numpy"):
    raise ImportError(
        f"PENSIONLAB_BACKEND must be auto, numba or numpy, got {_requested!r}"
    )
if _requested == "numba" and not HAS_NUMBA:
    raise ImportError("PENSIONLAB_BACKEND=numba but numba is not installed")

BACKEND = "numpy" if _requested == "numpy" or not HAS_NUMBA else "numba"


def jit(func):
    """Compile for the numba backend; identity otherwise."""
    if BACKEND == "numba":
        return _njit(cache=True)(func)
    return func
