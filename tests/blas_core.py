"""The OpenBLAS core that numpy's bundled library runs, read through ctypes.

Answers are pinned to the bits of one core's kernels, so test logs name it,
and `run_on_nehalem_core` re-runs a pin on OpenBLAS's SSE core without FMA.
"""

import ctypes
import glob
import os
import subprocess
import sys

import numpy as np
import pytest

import dopptrack


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


NEHALEM_CHILD = """
from blas_core import openblas_core
core = openblas_core()
print(core)
if core == "Nehalem":
    %s
"""


def run_on_nehalem_core(statement: str) -> None:
    """Run one line of Python in a child process whose OpenBLAS was loaded
    as the Nehalem core, with the package and tests/ importable and every
    RuntimeWarning an error. Fails when the child fails; skips when the
    core cannot be read or the child's core is not Nehalem."""
    paths = [os.path.dirname(os.path.dirname(dopptrack.__file__)),
             os.path.dirname(os.path.abspath(__file__))]
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem",
               PYTHONPATH=os.pathsep.join(paths))
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         NEHALEM_CHILD % statement], env=env, capture_output=True, text=True,
        timeout=600)
    assert child.returncode == 0, child.stderr
    core = child.stdout.strip()
    if core == "None":
        pytest.skip("the OpenBLAS core cannot be read")
    if core != "Nehalem":
        pytest.skip("OPENBLAS_CORETYPE=Nehalem left the core at " + core)
