"""Every hypothesis test draws the same examples on every run and keeps no
example database, so one run of the suite does not depend on the runs
before it."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
