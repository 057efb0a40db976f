"""Shared pytest set-up: one hypothesis profile for every property test.

Examples are derived from each test's source instead of a random seed, so a
run is reproducible and a property test cannot pass on one run and fail on
the next.  Tests that set their own `max_examples` keep it.
"""

from hypothesis import settings

settings.register_profile("procong", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("procong")
