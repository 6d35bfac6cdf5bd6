"""The numeric environment that the exact pins of the suite hold in.

A few tests pin SHA-256 digests or exact values of float64 results.  Their
bits depend on two things besides the code: the dgemm kernel of the OpenBLAS
that numpy bundles, which the library picks for the CPU, and whether numpy
dispatches its X86_V4 (AVX-512) loops, whose ``x ** 3`` rounds otherwise
than the C library's ``pow``.  The pins were recorded in ``RECORDED``; a
pinned test names the environment of the failing run in its message, so that
bits moved by another kernel are told apart from a regression.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

RECORDED = "OpenBLAS core SkylakeX, numpy X86_V4 on"


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
    ``RECORDED``."""
    v4 = "on" if __cpu_features__.get("X86_V4") else "off"
    return f"OpenBLAS core {openblas_core()}, numpy X86_V4 {v4}"


def pinned_in() -> str:
    """The failure message of an exact pin: where it was recorded, and
    where this run is."""
    return f"pinned with {RECORDED}; this run has {numeric_environment()}"
