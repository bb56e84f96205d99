"""Shared test configuration.

``--hypothesis-profile=deep`` runs every test that leaves its example
count to the profile with ten times hypothesis's default of 100; CI uses
it for a longer pass of the step-level oracle in test_spec_device.py and
of test_agent.py's forward_trace-against-a-plain-loop test.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000)
