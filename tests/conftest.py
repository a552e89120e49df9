"""Test-wide settings: every hypothesis test draws the same examples on every run."""

from hypothesis import settings

# derandomize seeds each test from its own source; with no example database,
# no result depends on a random seed or on files left by an earlier run
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
