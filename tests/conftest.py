import numpy
from hypothesis import settings

from blas_core import openblas_core
from dopptrack.fanout import usable_cpus

# Properties draw the same examples on every run and record none.
settings.register_profile("dopptrack", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("dopptrack")


def pytest_report_header(config):
    # the committed pins hang on numpy's per-CPU kernels as well as on the
    # OpenBLAS core; the CSV writer's and the baseline's share counts follow
    # the usable CPUs
    return "numpy %s, openblas core: %s, usable cpus: %d" % (
        numpy.__version__, openblas_core(), usable_cpus())
