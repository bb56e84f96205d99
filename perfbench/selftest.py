#!/usr/bin/env python3
"""Show that the benchmark's output checks fail when the output is wrong.

    python3 perfbench/selftest.py

Each case runs a small pass with a deliberately broken processor, or checks
a real sweep against a deliberately wrong table, and expects the check to
count failures; the clean cases expect none. A comparison that passed
everything would make ``failed`` meaningless, so this exits 1 if any case
comes out otherwise. Run from the root of the checkout; takes a few seconds.
"""

from __future__ import annotations

import copy
import sys

from run import import_tinyring, one_pass

tr = import_tinyring()
import workloads as W  # noqa: E402  (needs tinyring on the path first)

PACKETS = 1200  # a multiple of the IMIX period


def corrupting(make, broken):
    """A processor factory whose processor lets ``broken`` spoil one packet.

    ``broken(buf, length, lengths)`` is offered every packet from the 100th
    on until it returns True.
    """
    def factory():
        proc = make()
        state = {"calls": 0, "done": False}

        def spoiled(buf, length, outputs):
            lengths = list(proc(buf, length, outputs))
            state["calls"] += 1
            if state["calls"] >= 100 and not state["done"]:
                state["done"] = broken(buf, length, lengths)
            return lengths
        return spoiled
    return factory


def flip_byte(buf, length, lengths):
    if length < 100:
        return False  # skipped everywhere by the policer; nothing would show
    buf[20] ^= 0xFF
    return True


def short_on_output_2(buf, length, lengths):
    if not lengths[2]:
        return False
    lengths[2] -= 1
    return True


def emit_a_skipped_packet(buf, length, lengths):
    if length >= 100:
        return False
    lengths[0] = length
    return True


def skip_on_output_0(buf, length, lengths):
    lengths[0] = 0
    return True


def frac(result) -> float:
    return result["failed"] / result["attempted"]


def main() -> int:
    policer = lambda: tr.policer(100)  # noqa: E731
    cases = [
        ("imix_q4 clean", W.ImixQ4(PACKETS), False),
        ("imix_q4 one payload byte flipped",
         W.ImixQ4(PACKETS, corrupting(policer, flip_byte)), True),
        ("imix_q4 one length short on output 2",
         W.ImixQ4(PACKETS, corrupting(policer, short_on_output_2)), True),
        ("imix_q4 one skipped packet emitted on output 0",
         W.ImixQ4(PACKETS, corrupting(policer, emit_a_skipped_packet)), True),
        ("burst_64b clean", W.Burst64(PACKETS), False),
        ("burst_64b one packet skipped on its only output",
         W.Burst64(PACKETS, corrupting(tr.identity, skip_on_output_0)), True),
    ]
    ok = True
    for label, wl, should_fail in cases:
        r = one_pass(wl, seed=0)
        good = (frac(r) > 0) == should_fail
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: failed_frac {frac(r):.6g} "
              f"({r['failed']}/{r['attempted']})")

    sweep = W.SweepKnee()
    state = sweep.setup(0)
    sweep.timed(state)
    outputs = sweep.collect(state)
    perturbed = copy.deepcopy(sweep.expected)
    perturbed["rows"][2][4] += 1  # latency_p99 of the third load point
    # a table that agrees with a knee far from the service rate, so that only
    # the knee check can object
    far_knee = [outputs[0][:-1] + [(560,) + outputs[0][-1][1:]]]
    far_table = copy.deepcopy(sweep.expected)
    far_table["rows"][-1][0] = 560
    sweep_cases = [
        ("sweep_knee clean", sweep, outputs, False),
        ("sweep_knee one expected row perturbed", W.SweepKnee(perturbed), outputs, True),
        ("sweep_knee knee 60 above the service rate", W.SweepKnee(far_table), far_knee, True),
    ]
    for label, wl, outs, should_fail in sweep_cases:
        attempted, failed = wl.check(state, outs)
        good = (failed > 0) == should_fail
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: failed_frac {failed / attempted:.6g} "
              f"({failed}/{attempted})")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
