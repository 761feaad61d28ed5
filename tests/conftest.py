"""Hypothesis profiles for the suite.

``tier1`` is loaded by default: every ``@given`` test draws the same
examples on every run (``derandomize``) and reads no example database,
so a failure follows the change that caused it.  Each test keeps its own
``max_examples``.  ``explore`` draws fresh random examples and keeps the
failing ones in the local database; run it by hand with

    python -m pytest --hypothesis-profile=explore
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
