"""Load generation, measurement, and persistence for the forwarding pipeline.

Loads are packets per 1000 simulated steps; the simulator has no physical
clock, so nothing here is a bit rate. The device retires at most
device_budget descriptor completions per step and a forwarded packet costs
1 + num_outputs completions (one receive, one per transmit ring, skips
included), so the device's bound is

    service_rate = 1000 * device_budget // (1 + num_outputs)

packets per 1000 steps. forward_trace polls once per step, so the agent
files at most one packet per step, and the pipeline's bound is
min(service_rate, 1000): at budget 3 with one output, service_rate is 1500
while the search finds 1024.

A load point injects its trace on an even schedule (remainders spread
Bresenham-style), runs the pipeline until the schedule ends plus a short
drain allowance, and counts a measured frame as lost if it was not emitted
on output 0 by then; frames the device dropped for lack of receive
descriptors are lost the same way. The first 10% of the trace warms the
pipeline up and is excluded from all statistics. Latency is drain step
minus inject step. run_load_point sorts the latencies once and reads p50
and p99 off that list by nearest rank: the pct-th percentile of n values
is the ceil(pct * n / 100)-th smallest, so the 50th of [1, 2, 3, 4] is 2,
and both are 0 when nothing was delivered. One deterministic trial per
load point; all points share one trace.
The knee search rejects a grid load at step 0 when the frames output 0
could emit before the deadline cannot bring its loss under the bound. No
measured frame enters the wire before the due step of the first one, so
the bound counts only the steps from then on, at most
min(device_budget, 2) / 2 frames a step: each costs the device a receive
and a transmit unit, and the agent one poll. The check needs only the
trace length, so a rejected load costs no set-up: no schedule and no
pipeline. Every other load the search tries is one run_load_point call.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .agent import Processor, build_pipeline, forward_trace
from .mem import _check_int
from .netfuncs import make_processor
from .nic import MAX_FRAME, MAX_QUEUES, Frame

DEVICE_BUDGET = 1
DRAIN_ALLOWANCE = 64        # steps granted past the end of the injection schedule
SEARCH_GRANULARITY = 16     # load-grid resolution of find_max_throughput
LOSS_BOUND = 0.001          # loss fraction a sustainable load must stay under
MAX_LOAD_PER_BUDGET = 1000  # search ceiling: one packet per step per budget unit
DEFAULT_TRACE_LENGTH = 2000
DEFAULT_PACKET_SIZE = 64
WARMUP_FRACTION = 10        # the first tenth of the trace is not measured

CSV_HEADER = "offered_load,delivered,lost,loss_fraction,latency_p50,latency_p99"


def service_rate(device_budget: int, num_outputs: int) -> int:
    """The device's bound in packets per 1000 steps for a given budget and
    output count. The pipeline's bound is min(service_rate, 1000), since the
    agent files at most one packet per step.

    Raises ValueError unless device_budget is an integer of at least 1 and
    num_outputs an integer in [1, MAX_QUEUES].
    """
    _check_int(device_budget, "device budget", 1)
    _check_int(num_outputs, "output count", 1, MAX_QUEUES)
    return 1000 * device_budget // (1 + num_outputs)


@dataclass(frozen=True)
class LoadPointResult:
    offered_load: int
    delivered: int
    lost: int
    loss_fraction: float
    latency_p50: int
    latency_p99: int


def gen_traffic(count: int, size: int, seed: int) -> list[Frame]:
    """Deterministic frames whose first 8 bytes are a little-endian sequence number.

    The same seed, an integer >= 0, always gives the same payloads.
    """
    _check_int(count, "frame count", 0)
    _check_int(size, "packet size", 12, MAX_FRAME)
    _check_int(seed, "seed", 0)  # Random(None) is unseeded, and Random(-7) is Random(7)
    # one integer per payload: randbytes(n) is getrandbits(8 * n).to_bytes(n, "little"),
    # so this is seq.to_bytes(8, "little") + randbytes(size - 8) in one conversion
    draw = random.Random(seed).getrandbits
    bits = 8 * (size - 8)
    frames = []
    new = object.__new__
    for seq in range(count):
        payload = (draw(bits) << 64 | seq).to_bytes(size, "little")
        # slot by slot, not Frame(...): Nic.step_device's docstring says why
        frame = new(Frame)
        frame.payload = payload
        frame.inject_time = None
        frame.drain_time = None
        frame.order = None
        frames.append(frame)
    return frames


# -- pcap ingestion ----------------------------------------------------------

_PCAP_GLOBAL_BYTES = 24  # magic, major, minor, zone, sigfigs, snaplen, linktype
_PCAP_RECORD = "IIII"    # ts_sec, ts_frac, incl_len, orig_len
_PCAP_MAGICS = (0xA1B2C3D4, 0xA1B23C4D)  # microsecond, nanosecond timestamps


class PcapFormatError(Exception):
    """Capture file violates the classic pcap layout; the message names the
    record, as in "record 3: payload truncated", unless the global header is
    at fault."""


def parse_pcap(data: bytes) -> list[Frame]:
    """Frames from a classic pcap capture, in file order.

    Microsecond and nanosecond captures are accepted in either byte order,
    which the magic number gives; timestamps are ignored, so all four
    variants read the same way. Payloads longer than the buffer capacity
    are truncated to it.
    """
    if len(data) < _PCAP_GLOBAL_BYTES:
        raise PcapFormatError(f"global header needs {_PCAP_GLOBAL_BYTES} bytes, "
                              f"file has {len(data)}")
    for order in "<>":
        if struct.unpack_from(order + "I", data)[0] in _PCAP_MAGICS:
            break
    else:
        raise PcapFormatError(f"bad magic {struct.unpack_from('<I', data)[0]:#010x}")
    record = struct.Struct(order + _PCAP_RECORD)
    frames: list[Frame] = []
    offset = _PCAP_GLOBAL_BYTES
    while offset < len(data):
        if len(data) - offset < record.size:
            raise PcapFormatError(f"record {len(frames)}: truncated header")
        incl_len = record.unpack_from(data, offset)[2]
        offset += record.size
        if incl_len == 0:
            raise PcapFormatError(f"record {len(frames)}: empty capture record")
        if len(data) - offset < incl_len:
            raise PcapFormatError(f"record {len(frames)}: payload truncated")
        frames.append(Frame(bytes(data[offset:offset + min(incl_len, MAX_FRAME)])))
        offset += incl_len
    return frames


# -- measurement --------------------------------------------------------------

def _nearest_rank(ordered: Sequence[int], pct: int) -> int:
    """The pct-th percentile of an ascending list by nearest rank, for pct
    in (0, 100]: its ceil(pct * n / 100)-th smallest of n values, or 0 if
    it is empty."""
    return ordered[-(-pct * len(ordered) // 100) - 1] if ordered else 0


def _deadline_and_warm(offered_load: int, n: int) -> tuple[int, int]:
    """The step an n-frame load point stops at, and its warm-up frame count."""
    # the last frame's due step + 1 + the drain allowance
    return (n - 1) * 1000 // offered_load + 1 + DRAIN_ALLOWANCE, n // WARMUP_FRACTION


def run_load_point(offered_load: int, frames: Sequence[Frame], nf: Processor | str,
                   ring_size: int, num_outputs: int, *,
                   device_budget: int = DEVICE_BUDGET) -> LoadPointResult:
    """Measure one load point: inject frames at offered_load on a fresh pipeline.

    Raises ValueError, before it builds anything, for an offered_load that
    is not a positive integer, an empty trace, an unknown network function
    or a device_budget that is not an integer of at least 1, in that
    order. The ring geometry rule is the agent's: build_pipeline raises
    its ValueError for a bad ring size or output count before it builds
    anything, and before the schedule is made.
    """
    _check_int(offered_load, "offered load", 1)
    if not frames:
        raise ValueError("the trace is empty")
    processor = make_processor(nf) if isinstance(nf, str) else nf
    _check_int(device_budget, "device budget", 1)
    _env, nic, agent = build_pipeline(ring_size, num_outputs)
    n = len(frames)
    deadline, warm = _deadline_and_warm(offered_load, n)
    due = [k * 1000 // offered_load for k in range(n)]
    forward_trace(agent, frames, processor, device_budget, due=due, deadline=deadline)
    latencies = [f.drain_time - f.inject_time for f in nic.drain_tx(0) if f.order >= warm]
    latencies.sort()
    delivered = len(latencies)
    measured = n - warm
    lost = measured - delivered
    return LoadPointResult(offered_load, delivered, lost, lost / measured,
                           _nearest_rank(latencies, 50), _nearest_rank(latencies, 99))


class NoSustainableLoad(ValueError):
    """No load on the search grid keeps loss under the bound."""


def _rejected_at_step_0(offered_load: int, n: int, device_budget: int,
                        loss_bound: float) -> bool:
    """Whether an n-frame load point's loss is bound to reach loss_bound.

    Each measured frame output 0 emits spends a receive unit and a
    transmit unit, and needs its own poll to file it, at most one per step;
    none is on the wire before first, the due step of the first measured
    frame, so at most (deadline - first) * min(device_budget, 2) // 2 of
    them arrive before the deadline. The load is rejected when the loss
    even that leaves is at least loss_bound.
    """
    deadline, warm = _deadline_and_warm(offered_load, n)
    measured = n - warm
    first = warm * 1000 // offered_load
    return (measured - (deadline - first) * min(device_budget, 2) // 2) / measured >= loss_bound


def _search_max_throughput(trace: Sequence[Frame], nf: Processor | str,
                           ring_size: int, num_outputs: int, device_budget: int,
                           ) -> tuple[LoadPointResult, dict[int, LoadPointResult]]:
    """The knee's result, plus every load on the way that ran in full.

    A grid load _rejected_at_step_0 has failed and builds nothing; every
    other one is a run_load_point call, which checks the remaining
    arguments (an empty trace among them) before it builds anything. Load
    SEARCH_GRANULARITY is never rejected, and a search that finds nothing
    tries it, so a bad argument raises ValueError, not NoSustainableLoad.
    """
    _check_int(device_budget, "device budget", 1)
    measured: dict[int, LoadPointResult] = {}
    ceiling = MAX_LOAD_PER_BUDGET * device_budget
    lo, hi = 0, ceiling // SEARCH_GRANULARITY
    while lo < hi:
        mid = (lo + hi + 1) // 2
        load = mid * SEARCH_GRANULARITY
        if not (trace and _rejected_at_step_0(load, len(trace), device_budget, LOSS_BOUND)):
            res = measured[load] = run_load_point(load, trace, nf, ring_size, num_outputs,
                                                  device_budget=device_budget)
            if res.loss_fraction < LOSS_BOUND:
                lo = mid
                continue
        hi = mid - 1
    if lo == 0:
        raise NoSustainableLoad(f"no load on the {SEARCH_GRANULARITY}-wide grid up to "
                                f"{ceiling} keeps loss under {LOSS_BOUND}")
    return measured[lo * SEARCH_GRANULARITY], measured


def find_max_throughput(nf: Processor | str, ring_size: int, num_outputs: int, *,
                        packet_size: int = DEFAULT_PACKET_SIZE,
                        trace_length: int = DEFAULT_TRACE_LENGTH,
                        seed: int = 0, frames: Sequence[Frame] | None = None,
                        device_budget: int = DEVICE_BUDGET) -> LoadPointResult:
    """The measured result of a load on the SEARCH_GRANULARITY grid at which
    loss stays under LOSS_BOUND, as in run_sweep.

    The trace is frames, or else gen_traffic(trace_length, packet_size, seed).
    Binary search over the grid up to MAX_LOAD_PER_BUDGET * device_budget.
    It guarantees that the returned load was measured and passed, and that
    the next grid load up was shown to fail, either at the step-0 check or
    in a full run; a failed probe's row is never reported. The exception
    is a returned load at the top of the grid. Loss is not always
    non-decreasing in offered load, so a higher grid load may pass as
    well: with ("identity", 8, 2) and device_budget=2 the search returns
    592, loads 608 and 624 fail, and 640 to 672 lose nothing. Raises
    ValueError unless device_budget is an integer of at least 1, and
    NoSustainableLoad when even the lowest grid load loses too much.
    """
    trace = gen_traffic(trace_length, packet_size, seed) if frames is None else frames
    return _search_max_throughput(trace, nf, ring_size, num_outputs, device_budget)[0]


def run_sweep(nf: Processor | str, ring_size: int, num_outputs: int, step: int, *,
              packet_size: int = DEFAULT_PACKET_SIZE,
              trace_length: int = DEFAULT_TRACE_LENGTH,
              seed: int = 0, frames: Sequence[Frame] | None = None,
              device_budget: int = DEVICE_BUDGET) -> list[LoadPointResult]:
    """Load points from step up to the discovered maximum, inclusive.

    The trace is chosen as in find_max_throughput, and the further rows
    run on the same trace. The maximum is appended as a final point when
    it is not a multiple of the step. Points the search already measured
    are not run again.
    """
    _check_int(step, "sweep step", 1)
    trace = gen_traffic(trace_length, packet_size, seed) if frames is None else frames
    best, measured = _search_max_throughput(trace, nf, ring_size, num_outputs,
                                            device_budget)
    loads = list(range(step, best.offered_load + 1, step))
    if not loads or loads[-1] != best.offered_load:
        loads.append(best.offered_load)
    for load in loads:
        if load not in measured:
            measured[load] = run_load_point(load, trace, nf, ring_size, num_outputs,
                                            device_budget=device_budget)
    return [measured[load] for load in loads]


def write_csv(results: Iterable[LoadPointResult], destination: str | IO[str]) -> None:
    """Persist results: fixed header, one row per point, UTF-8, \\n endings.

    Loss fractions are rendered with six decimals so files compare bit-exact
    across runs.
    """
    lines = [CSV_HEADER]
    lines += [f"{r.offered_load},{r.delivered},{r.lost},"
              f"{r.loss_fraction:.6f},{r.latency_p50},{r.latency_p99}"
              for r in results]
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
