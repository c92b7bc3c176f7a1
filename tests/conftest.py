"""Shared test settings: property tests run the same examples on every run."""

from hypothesis import settings

# Derandomized and database-free, so a property test explores the same
# examples on every run; no deadline, because shared hosts stall at random.
settings.register_profile(
    "paraplag", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("paraplag")
