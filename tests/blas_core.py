"""The OpenBLAS core that numpy's bundled library runs, read through ctypes.

Answers are pinned to the bits of one core's kernels, so test logs name it.
"""

import ctypes
import glob
import os

import numpy as np


def openblas_core():
    """The core's name, such as 'SkylakeX', or None when it cannot be read."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None
