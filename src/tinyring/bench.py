"""Load generation, measurement, and persistence for the forwarding pipeline.

Loads are packets per 1000 simulated steps; the simulator has no physical
clock, so nothing here is a bit rate. The device retires at most
device_budget descriptor completions per step and a forwarded packet costs
1 + num_outputs completions (one receive, one per transmit ring, skips
included), so the sustainable rate is

    service_rate = 1000 * device_budget // (1 + num_outputs)

packets per 1000 steps.

A load point injects its trace on an even schedule (remainders spread
Bresenham-style), runs the pipeline until the schedule ends plus a short
drain allowance, and counts a measured frame as lost if it was not emitted
on output 0 by then; frames the device dropped for lack of receive
descriptors are lost the same way. The first 10% of the trace warms the
pipeline up and is excluded from all statistics. Latency is drain step
minus inject step; percentiles are nearest-rank (the 50th of [1, 2, 3, 4]
is 2). One deterministic trial per load point; all points share one trace.
The knee search stops a probe as soon as the frames output 0 could still
emit before the deadline cannot bring its loss under the bound. The first
such check needs only the trace length, so a probe that fails it costs no
set-up: no trace copy, no schedule and no pipeline.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .agent import Processor, _check_geometry, build_pipeline, forward_trace
from .mem import _check_int
from .netfuncs import make_processor
from .nic import MAX_FRAME, Frame

DEVICE_BUDGET = 1
DRAIN_ALLOWANCE = 64        # steps granted past the end of the injection schedule
SEARCH_GRANULARITY = 16     # load-grid resolution of find_max_throughput
LOSS_BOUND = 0.001          # loss fraction a sustainable load must stay under
MAX_LOAD_PER_BUDGET = 1000  # search ceiling: one packet per step per budget unit
DEFAULT_TRACE_LENGTH = 2000
DEFAULT_PACKET_SIZE = 64
WARMUP_FRACTION = 10        # the first tenth of the trace is not measured
_CHECK_INTERVAL = 256       # steps between a search probe's early-stop checks

CSV_HEADER = "offered_load,delivered,lost,loss_fraction,latency_p50,latency_p99"


def service_rate(device_budget: int = DEVICE_BUDGET, num_outputs: int = 1) -> int:
    """Sustainable packets per 1000 steps for a given budget and output count."""
    return 1000 * device_budget // (1 + num_outputs)


@dataclass(frozen=True)
class LoadPointResult:
    offered_load: int
    delivered: int
    lost: int
    loss_fraction: float
    latency_p50: int
    latency_p99: int


def percentile(values: Sequence[int], pct: float) -> int:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def gen_traffic(count: int, size: int, seed: int) -> list[Frame]:
    """Deterministic frames whose first 8 bytes are a little-endian sequence number."""
    _check_int(count, "frame count", 0)
    _check_int(size, "packet size", 12, MAX_FRAME)
    # one integer per payload: randbytes(n) is getrandbits(8 * n).to_bytes(n, "little"),
    # so this is seq.to_bytes(8, "little") + randbytes(size - 8) in one conversion
    draw = random.Random(seed).getrandbits
    bits = 8 * (size - 8)
    return [Frame((draw(bits) << 64 | seq).to_bytes(size, "little"))
            for seq in range(count)]


# -- pcap ingestion ----------------------------------------------------------

_PCAP_GLOBAL_BYTES = 24  # magic, major, minor, zone, sigfigs, snaplen, linktype
_PCAP_RECORD = "IIII"    # ts_sec, ts_frac, incl_len, orig_len
_PCAP_MAGICS = (0xA1B2C3D4, 0xA1B23C4D)  # microsecond, nanosecond timestamps


class PcapFormatError(Exception):
    """Capture file violates the classic pcap layout."""

    def __init__(self, message: str, record_index: int | None = None) -> None:
        super().__init__(message)
        self.record_index = record_index


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
    index = 0
    while offset < len(data):
        if len(data) - offset < record.size:
            raise PcapFormatError(f"record {index}: truncated header", record_index=index)
        incl_len = record.unpack_from(data, offset)[2]
        offset += record.size
        if incl_len == 0:
            raise PcapFormatError(f"record {index}: empty capture record", record_index=index)
        if len(data) - offset < incl_len:
            raise PcapFormatError(f"record {index}: payload truncated", record_index=index)
        frames.append(Frame(bytes(data[offset:offset + min(incl_len, MAX_FRAME)])))
        offset += incl_len
        index += 1
    return frames


# -- measurement --------------------------------------------------------------

def run_load_point(offered_load: int, frames: Sequence[Frame], nf: Processor | str,
                   ring_size: int, num_outputs: int, *,
                   device_budget: int = DEVICE_BUDGET) -> LoadPointResult:
    """Measure one load point: inject frames at offered_load on a fresh pipeline.

    Raises ValueError for an offered_load that is not a positive integer,
    an empty trace or a device_budget that is not an integer of at least 1.
    """
    result = _probe(offered_load, frames, nf, ring_size, num_outputs, device_budget)
    assert result is not None  # without a loss bound a probe always runs in full
    return result


def _probe(offered_load: int, frames: Sequence[Frame], nf: Processor | str,
           ring_size: int, num_outputs: int, device_budget: int,
           loss_bound: float | None = None) -> LoadPointResult | None:
    """run_load_point's result, or None once its loss is bound to reach loss_bound.

    With a loss bound the run goes in _CHECK_INTERVAL-step forward_trace
    segments, each resuming with the frames not yet injected. Before each
    segment it bounds the frames output 0 can still emit before the
    deadline: each emission spends a transmit unit, and every packet but
    the U received and not yet emitted on output 0 also spends a receive
    unit, so at most ((deadline - now) * device_budget + U) // 2 more
    frames arrive. When the loss even that leaves is at least loss_bound,
    the full run would fail, and the probe stops.

    The first check, at step 0, needs only the trace length, so it runs
    before any set-up: every argument is checked first, and a probe that
    fails it returns without copying the trace or building the schedule and
    the pipeline.
    """
    _check_int(offered_load, "offered load", 1)
    if not frames:
        raise ValueError("the trace is empty")
    processor = make_processor(nf) if isinstance(nf, str) else nf
    _check_geometry(ring_size, num_outputs)
    _check_int(device_budget, "device budget", 1)
    n = len(frames)
    deadline = (n - 1) * 1000 // offered_load + 1 + DRAIN_ALLOWANCE  # the last due step + 1 + ...
    warm = n // WARMUP_FRACTION
    measured = n - warm

    def doomed(now: int, received: int, emitted: int) -> bool:
        """The bound above, with U = received and emitted measured frames so far."""
        reachable = ((deadline - now) * device_budget + received) // 2
        return (measured - emitted - reachable) / measured >= loss_bound

    if loss_bound is not None and doomed(0, 0, 0):
        return None
    # fresh Frame objects: injection stamps them, runs must not alias
    trace = [Frame(f.payload) for f in frames]
    due = [k * 1000 // offered_load for k in range(n)]
    _env, nic, agent = build_pipeline(ring_size, num_outputs)
    if loss_bound is None:
        forward_trace(agent, trace, processor, device_budget, due=due, deadline=deadline)
    else:
        link = nic.link
        end = 0
        seen = emitted = 0  # frames on output 0 so far, and the measured ones among them
        while True:
            k = link.injected
            end = min(end + _CHECK_INTERVAL, deadline)
            forward_trace(agent, trace[k:], processor, device_budget,
                          due=due[k:], deadline=end)
            # a segment that stops short of its end finished the trace; one
            # that finishes exactly at its end costs the next one an idle
            # step, which emits nothing
            if not nic.now == end < deadline:
                break
            out0 = link.tx_emitted[0]
            emitted += sum(f.order >= warm for f in out0[seen:])
            seen = len(out0)
            if doomed(end, link.rx_delivered - seen, emitted):
                return None
    got = [f for f in nic.drain_tx(0) if f.order >= warm]
    delivered = len(got)
    lost = measured - delivered
    latencies = [f.drain_time - f.inject_time for f in got]
    return LoadPointResult(offered_load, delivered, lost, lost / measured,
                           percentile(latencies, 50), percentile(latencies, 99))


class NoSustainableLoad(ValueError):
    """No load on the search grid keeps loss under the bound."""


def _search_max_throughput(frames: Sequence[Frame], nf: Processor | str,
                           ring_size: int, num_outputs: int, loss_bound: float,
                           device_budget: int,
                           ) -> tuple[LoadPointResult, dict[int, LoadPointResult]]:
    """The knee's result, plus every probe on the way that ran in full, by load."""
    if not 0 < loss_bound <= 1:
        raise ValueError(f"loss bound must be in (0, 1], got {loss_bound}")
    _check_int(device_budget, "device budget", 1)
    measured: dict[int, LoadPointResult] = {}
    ceiling = MAX_LOAD_PER_BUDGET * device_budget
    lo, hi = 0, ceiling // SEARCH_GRANULARITY
    while lo < hi:
        mid = (lo + hi + 1) // 2
        load = mid * SEARCH_GRANULARITY
        res = _probe(load, frames, nf, ring_size, num_outputs, device_budget, loss_bound)
        if res is not None:
            measured[load] = res
            if res.loss_fraction < loss_bound:
                lo = mid
                continue
        hi = mid - 1
    if lo == 0:
        raise NoSustainableLoad(f"no load on the {SEARCH_GRANULARITY}-wide grid up to "
                                f"{ceiling} keeps loss under {loss_bound}")
    return measured[lo * SEARCH_GRANULARITY], measured


def find_max_throughput(nf: Processor | str, ring_size: int, num_outputs: int,
                        loss_bound: float = LOSS_BOUND, *,
                        packet_size: int = DEFAULT_PACKET_SIZE,
                        trace_length: int = DEFAULT_TRACE_LENGTH,
                        seed: int = 0, frames: Sequence[Frame] | None = None,
                        device_budget: int = DEVICE_BUDGET) -> LoadPointResult:
    """The measured result of a load on the SEARCH_GRANULARITY grid at which
    loss stays under the bound.

    The trace is frames, or else gen_traffic(trace_length, packet_size, seed).
    Binary search over the grid up to MAX_LOAD_PER_BUDGET * device_budget.
    It guarantees that the returned load was measured and passed, and that
    the next grid load up was shown to fail: a probe stops as soon as its
    loss can no longer stay under the bound, and a failed probe's row is
    never reported. The exception is a returned load at the top of the
    grid. Loss is not always non-decreasing in offered load, so a higher
    grid load may pass as well: with ("identity", 8, 2) and
    device_budget=2 the search returns 592, loads 608 and 624 fail, and
    640 to 672 lose nothing. Raises ValueError unless loss_bound is in
    (0, 1] and device_budget an integer of at least 1, and
    NoSustainableLoad when even the lowest grid load loses too much.
    """
    if frames is None:
        frames = gen_traffic(trace_length, packet_size, seed)
    return _search_max_throughput(frames, nf, ring_size, num_outputs, loss_bound,
                                  device_budget)[0]


def run_sweep(nf: Processor | str, ring_size: int, num_outputs: int, step: int, *,
              packet_size: int = DEFAULT_PACKET_SIZE,
              trace_length: int = DEFAULT_TRACE_LENGTH,
              seed: int = 0, frames: Sequence[Frame] | None = None,
              device_budget: int = DEVICE_BUDGET) -> list[LoadPointResult]:
    """Load points from step up to the discovered maximum, inclusive.

    The trace is chosen as in find_max_throughput. The maximum is appended
    as a final point when it is not a multiple of the step. Points the
    search already measured are not run again.
    """
    _check_int(step, "sweep step", 1)
    if frames is None:
        frames = gen_traffic(trace_length, packet_size, seed)
    best, measured = _search_max_throughput(frames, nf, ring_size, num_outputs,
                                            LOSS_BOUND, device_budget)
    loads = list(range(step, best.offered_load + 1, step))
    if not loads or loads[-1] != best.offered_load:
        loads.append(best.offered_load)
    for load in loads:
        if load not in measured:
            measured[load] = run_load_point(load, frames, nf, ring_size, num_outputs,
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
