from hypothesis import settings

from blas_core import openblas_core

# Properties draw the same examples on every run and record none.
settings.register_profile("dopptrack", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("dopptrack")


def pytest_report_header(config):
    return "openblas core: %s" % openblas_core()
