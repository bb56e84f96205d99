"""Shared test configuration.

The tests marked ``deep`` are the ones CI runs a second time, with
``python -m pytest -q -m deep --hypothesis-profile=deep``. That profile
gives every test that leaves its example count to the profile ten times
hypothesis's default of 100. A marked test that sets its count as a
multiple of the default gets the same multiple of the profile's:
RingMachine three times, and test_bench.py's load-point, early-stop and
knee-search properties 0.6, 1.5 and 0.3 times.
"""

from hypothesis import settings


def pytest_configure(config):
    config.addinivalue_line("markers", "deep: run again by CI under the deep profile")


settings.register_profile("deep", max_examples=1000)
