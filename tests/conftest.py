"""Shared test configuration.

``--hypothesis-profile=deep`` runs every test that leaves its example
count to the profile with ten times hypothesis's default of 100; CI uses
it for a longer pass of the step-level oracle in test_spec_device.py,
of test_nic.py's injection property (the payload rule, the wire and its
inject times), of test_agent.py's forward_trace-against-a-plain-loop
test, its whole-schedule check and its RingMachine, which runs three
times the profile's count, of test_bench.py's
load-point-against-a-naive-loop, early-stop and knee-search tests, which
run 0.6, 1.5 and 0.3 times it (60, 150 and 30 examples in tier-1), and
of test_reference.py's RefPipeline-against-written-out-NFs property.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000)
