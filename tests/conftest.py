"""Hypothesis settings shared by every test module."""

from hypothesis import settings

# Hypothesis fails an example that runs past its deadline, 200 ms by default.
# A stall of a shared machine alone can cross that, so no test has a
# deadline; each keeps its own max_examples.
settings.register_profile("aerosurvey", deadline=None)
settings.load_profile("aerosurvey")
