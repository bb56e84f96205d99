"""Metamorphic relations: two runs of the pipeline whose results must agree.

Each property draws only a seed, and the seed draws the run: ring size,
output count, device budget, trace and schedule. A relation needs no second
implementation, only a second run. Each run reads public state alone: a
load point's result, the registers through reg_read, the link counters,
nic.now and the head write-back words at the addresses TDWBA holds.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyring import (build_pipeline, forward_trace, gen_traffic, identity, macswap, policer,
                      run_load_point)

SEEDS = st.integers(0, 2**32 - 1)
NFS = {"identity": identity, "macswap": macswap, "policer": lambda: policer(100)}


def schedule(rng, n):
    """A non-decreasing due step for each of n frames, bursts and gaps alike."""
    due, t = [], rng.randrange(4)
    for _ in range(n):
        t += rng.choice((0, 0, 1, 2, rng.randrange(40)))
        due.append(t)
    return due


def public_state(env, nic, agent):
    """Everything a run leaves that a driver may read."""
    q_all = range(agent.num_outputs)
    link = nic.link
    return {"now": nic.now, "rx_delivered": link.rx_delivered,
            "rx_dropped": link.rx_dropped, "processed": agent.processed,
            "RDH": nic.reg_read("RDH"), "RDT": nic.reg_read("RDT"),
            "TDH": [nic.reg_read("TDH", q) for q in q_all],
            "TDT": [nic.reg_read("TDT", q) for q in q_all],
            "write-back": [struct.unpack_from("<I", env.dma, nic.reg_read("TDWBA", q))[0]
                           for q in q_all]}


# example count from the profile: CI's deep step runs it ten times longer
@pytest.mark.deep
@settings(deadline=None)
@given(seed=SEEDS)
def test_r1_filtering_costs_what_forwarding_costs(seed):
    # policer(65) skips every 64-byte frame on every output, and a skip
    # costs the device a work unit like a transmit does: on the same timed
    # trace, every counter, register and write-back word matches identity's
    rng = random.Random(seed)
    ring, outputs = rng.choice((2, 8, 64, 256)), rng.choice((1, 2, 4))
    budget, load, n = rng.randint(1, 2), rng.randrange(200, 801), rng.randint(1, 120)
    frames = gen_traffic(n, 64, seed)
    due = [k * 1000 // load for k in range(n)]
    deadline = due[-1] + 65
    states = []
    for processor in (identity(), policer(65)):
        env, nic, agent = build_pipeline(ring, outputs)
        forward_trace(agent, frames, processor, budget, due=due, deadline=deadline)
        states.append(public_state(env, nic, agent))
    assert states[0] == states[1]


@pytest.mark.deep
@settings(deadline=None)
@given(seed=SEEDS)
def test_r2_a_load_point_does_not_depend_on_payload_bytes(seed):
    # the built-in network functions read lengths and only move bytes, so
    # two traces of one frame count and size give one LoadPointResult
    rng = random.Random(seed)
    ring, outputs, budget = 2 ** rng.randint(1, 8), rng.randint(1, 4), rng.randint(1, 3)
    nf = NFS[rng.choice(sorted(NFS))]
    n, size = rng.randint(20, 300), rng.choice((12, 64, 128, 576, 1500))
    load, other = rng.randint(1, 1200), seed ^ rng.randrange(1, 2**32)  # other != seed
    rows = [run_load_point(load, gen_traffic(n, size, s), nf(), ring, outputs,
                           device_budget=budget)
            for s in (seed, other)]
    assert rows[0] == rows[1]


@pytest.mark.deep
@settings(deadline=None)
@given(seed=SEEDS)
def test_r3_later_frames_change_no_earlier_emission(seed):
    # frames due at step T or later enter the wire after every step that
    # drains at T or earlier, so those emissions cannot change: this holds
    # only if forward_trace's clock jumps skip steps that do nothing
    rng = random.Random(seed)
    ring, outputs, budget = rng.choice((2, 4, 8, 64)), rng.randint(1, 4), rng.randint(1, 3)
    nf = NFS[rng.choice(sorted(NFS))]
    n = rng.randint(1, 60)
    frames = gen_traffic(n, rng.randrange(12, 200), seed)
    due = schedule(rng, n)
    t = rng.randint(0, due[-1] + 1)
    cut = sum(d < t for d in due)
    runs = []
    for k in (cut, n):
        _, nic, agent = build_pipeline(ring, outputs)
        forward_trace(agent, frames[:k], nf(), budget, due=due[:k])
        runs.append([[f for f in nic.drain_tx(q) if f.drain_time <= t] for q in range(outputs)])
    assert runs[0] == runs[1]


@pytest.mark.deep
@settings(deadline=None)
@given(seed=SEEDS)
def test_r4_every_output_is_a_prefix_of_the_longest(seed):
    # the built-in network functions give every output the same length,
    # so outputs differ only in how far the device has got on each
    rng = random.Random(seed)
    ring, outputs, budget = rng.choice((2, 4, 8, 64)), rng.randint(1, 4), rng.randint(1, 3)
    nf = NFS[rng.choice(sorted(NFS))]
    n = rng.randint(1, 60)
    frames = gen_traffic(n, rng.randrange(12, 200), seed)
    due = schedule(rng, n)
    _, nic, agent = build_pipeline(ring, outputs)
    forward_trace(agent, frames, nf(), budget, due=due, deadline=rng.randint(0, due[-1] + 8))
    payloads = [[f.payload for f in nic.drain_tx(q)] for q in range(outputs)]
    longest = max(payloads, key=len)
    for out in payloads:
        assert out == longest[:len(out)]
