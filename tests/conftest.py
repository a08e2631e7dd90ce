from blas_core import openblas_core


def pytest_report_header(config):
    return "openblas core: %s" % openblas_core()
