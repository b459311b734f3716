"""Hypothesis settings and test marks shared by every test module."""

from hypothesis import settings

# Hypothesis fails an example that runs past its deadline, 200 ms by default.
# A stall of a shared machine alone can cross that, so no test has a
# deadline; each keeps its own max_examples.
settings.register_profile("aerosurvey", deadline=None)
settings.load_profile("aerosurvey")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "cpu_kernel_dependent: golden runs whose printed digits move with the BLAS or numpy CPU kernel"
    )
