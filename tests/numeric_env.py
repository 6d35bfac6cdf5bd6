"""The numeric environments that the exact pins of the suite hold in.

A few tests pin SHA-256 digests or exact values of float64 results.  Their
bits depend on two things besides the code: the dgemm kernel of the OpenBLAS
that numpy bundles, which the library picks for the CPU, and whether numpy
dispatches its X86_V4 (AVX-512) loops, whose ``x ** 3`` rounds otherwise
than the C library's ``pow``.  Each pinned value is a table keyed by the
environment it was recorded in: ``SKYLAKEX``, an AVX-512 x86-64 CPU, and
``HASWELL``, the kernels of an AVX2-only one (recorded on the AVX-512 CPU
with ``OPENBLAS_CORETYPE=Haswell`` and
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``).  In any other
environment a pinned test fails and names it: the pin has no value there.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

SKYLAKEX = "OpenBLAS core SkylakeX, numpy X86_V4 on"
HASWELL = "OpenBLAS core Haswell, numpy X86_V4 off"


def openblas_core() -> str:
    """The core name that numpy's bundled OpenBLAS runs, or ``unknown``
    where numpy bundles none."""
    bundled = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                     .glob("libscipy_openblas64_*.so"))
    if not bundled:
        return "unknown"
    corename = ctypes.CDLL(str(bundled[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def numeric_environment() -> str:
    """This process's OpenBLAS core and numpy X86_V4 dispatch, in the form of
    ``SKYLAKEX``."""
    v4 = "on" if __cpu_features__.get("X86_V4") else "off"
    return f"OpenBLAS core {openblas_core()}, numpy X86_V4 {v4}"


def pinned(table: dict[str, object]) -> object:
    """The value ``table`` pins for this run's numeric environment; the test
    fails, naming the environment, where none was recorded."""
    env = numeric_environment()
    if env not in table:
        pytest.fail(f"no value pinned for {env}; pins recorded for {' and '.join(table)}",
                    pytrace=False)
    return table[env]


def pinned_in() -> str:
    """The failure message of an exact pin: the environment it was read for."""
    return f"the value pinned for {numeric_environment()}"
