"""Hypothesis profiles for the suite.

``tier1``, loaded by default, derandomizes every ``@given`` test: its examples
are fixed by the test's source, so two runs of one tree draw the same
examples and give the same result. ``explore`` draws from a random seed and
runs each ``@given`` test on five times its examples, to find what the fixed
draws miss; run it with ``pytest --hypothesis-profile=explore``. A failure it
finds joins its test as an ``@example``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
# pytest's --hypothesis-profile, applied after this file loads, overrides it
settings.load_profile("tier1")


def pytest_collection_modifyitems(items):
    """Under ``explore``, give each ``@given`` test five times its own
    max_examples, which every test here sets and a profile cannot override.
    A parametrized test's items share one function, so each is scaled once."""
    if settings.get_current_profile_name() != "explore":
        return
    tests = {getattr(item, "function", None) for item in items}
    for test in tests:
        if getattr(test, "is_hypothesis_test", False):
            chosen = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(
                chosen, max_examples=5 * chosen.max_examples
            )
