"""Outside-in tracing: wrap tinyring's public functions and methods at run time.

Methods are replaced on the class, so calls a method makes on ``self`` (such
as ``poll`` calling ``receive``) and objects built inside tinyring (such as
the pipelines ``run_load_point`` builds) are caught too. Module functions
are replaced in every ``tinyring`` module that binds them, so internal calls
like ``run_sweep`` -> ``run_load_point`` -> ``gen_traffic`` are caught as
well. Processors are wrapped by wrapping the factories that make them.

Each call is a span. Spans are folded into per-name totals as they close:
calls, inclusive time, self time (inclusive minus the time of wrapped
children) and the packets processed under the span. The first
``SPAN_LOG_CAP`` spans are also kept in memory, with their parent, and
written out when the run ends. Nothing here runs unless ``install`` is
called, so untraced runs pay nothing.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

import tinyring as tr

SPAN_LOG_CAP = 50_000

# (span name, owner, attribute): methods are patched on their class.
METHODS = (
    ("nic.step_device", tr.Nic, "step_device"),
    ("nic.inject_rx", tr.Nic, "inject_rx"),
    ("nic.reg_read", tr.Nic, "reg_read"),
    ("nic.reg_write", tr.Nic, "reg_write"),
    ("nic.drain_tx", tr.Nic, "drain_tx"),
    ("agent.poll", tr.Agent, "poll"),
    ("agent.receive", tr.Agent, "receive"),
    ("agent.transmit", tr.Agent, "transmit"),
    ("agent.recycle", tr.Agent, "recycle"),
    ("agent.finish", tr.Agent, "finish"),
    ("agent.run", tr.Agent, "run"),
    ("mem.allocate_dma", tr.MemEnv, "allocate_dma"),
)
# (span name, public function): patched wherever a tinyring module binds it.
FUNCTIONS = (
    ("agent.forward_trace", "forward_trace"),
    ("bench.gen_traffic", "gen_traffic"),
    ("bench.run_load_point", "run_load_point"),
    ("bench.write_csv", "write_csv"),
)
PROCESSOR_FACTORIES = ("identity", "macswap", "policer")


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, inclusive ns, self ns, packets processed under it]
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, int] = dict.fromkeys(
            ("work_units", "idle_steps", "empty_polls", "recycle_rdt_writes",
             "packets", "output_slots", "skipped_slots", "frames_generated",
             "emit_bytes", "rx_dropped"), 0)
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._stack: list[list[Any]] = []  # [name, child ns, packets at entry, span id]
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        total = self.totals.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [name, 0, counts["packets"], span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                total[0] += 1
                total[1] += dur
                total[2] += dur - frame[1]
                total[3] += counts["packets"] - frame[2]
                if len(spans) < SPAN_LOG_CAP:
                    spans.append((span_id, name, start, end, stack[-1][3] if stack else -1))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, public: str, new: Any) -> None:
        original = getattr(tr, public)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if (modname == "tinyring" or modname.startswith("tinyring.")) \
                    and getattr(mod, public, None) is original:
                self._patch(mod, public, new)

    def install(self) -> None:
        c = self.counts
        stack = self._stack

        def step_after(args: tuple, units: int) -> None:
            c["work_units"] += units
            if not units:
                c["idle_steps"] += 1

        def poll_after(args: tuple, got: bool) -> None:
            if not got:
                c["empty_polls"] += 1

        def reg_write_after(args: tuple, _: None) -> None:
            if args[1] == "RDT" and stack and stack[-1][0] == "agent.recycle":
                c["recycle_rdt_writes"] += 1

        def drain_after(args: tuple, frames: list) -> None:
            c["emit_bytes"] += sum(len(f.payload) for f in frames)
            if (args[1] if len(args) > 1 else 0) == 0:
                c["rx_dropped"] += args[0].link.rx_dropped

        def gen_after(args: tuple, frames: list) -> None:
            c["frames_generated"] += len(frames)

        def proc_after(args: tuple, lengths: Any) -> None:
            c["output_slots"] += len(lengths)
            c["skipped_slots"] += sum(1 for n in lengths if not n)

        after = {"nic.step_device": step_after, "agent.poll": poll_after,
                 "nic.reg_write": reg_write_after, "nic.drain_tx": drain_after,
                 "bench.gen_traffic": gen_after}
        for name, cls, attr in METHODS:
            self._patch(cls, attr, self._wrap(name, getattr(cls, attr), after.get(name)))
        for name, public in FUNCTIONS:
            self._patch_everywhere(public, self._wrap(name, getattr(tr, public),
                                                      after.get(name)))

        def count_packet(args: tuple, lengths: Any) -> None:
            c["packets"] += 1
            proc_after(args, lengths)

        def traced_factory(factory: Callable) -> Callable:
            def make(*args: Any, **kwargs: Any) -> Callable:
                return self._wrap("netfuncs.proc", factory(*args, **kwargs), count_packet)
            return make

        for public in PROCESSOR_FACTORIES:
            self._patch_everywhere(public, traced_factory(getattr(tr, public)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")

    def layer_metrics(self, passes: int, slowdown: float) -> dict[str, tuple[float, str]]:
        """Per-layer figures: counts per traced pass, times in reference ns.

        ``slowdown`` is the host's slow-down factor over the traced passes
        (see calibrate.py); host nanoseconds are divided by it.
        """
        t, c = self.totals, self.counts

        def calls(name: str) -> float:
            return t.get(name, [0])[0] / passes

        def per_call(name: str, col: int) -> float:
            row = t.get(name, [0, 0, 0, 0])
            return row[col] / row[0] / slowdown if row[0] else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def self_per_pkt(name: str) -> float:
            row = t.get(name, [0, 0, 0, 0])
            return ratio(row[2], row[3]) / slowdown

        return {
            "nic.step_device.calls": (calls("nic.step_device"), "count"),
            "nic.step_device.self_ns": (per_call("nic.step_device", 2), "ns"),
            "nic.step_device.work_units": (c["work_units"] / passes, "count"),
            "nic.step_device.idle_frac": (ratio(c["idle_steps"], t["nic.step_device"][0]), "ratio"),
            "nic.emit_bytes_per_pkt": (ratio(c["emit_bytes"], c["packets"]), "B/pkt"),
            "nic.reg_read.calls": (calls("nic.reg_read"), "count"),
            "nic.reg_read.ns": (per_call("nic.reg_read", 1), "ns"),
            "nic.reg_write.calls": (calls("nic.reg_write"), "count"),
            "nic.reg_write.ns": (per_call("nic.reg_write", 1), "ns"),
            "nic.inject_rx.calls": (calls("nic.inject_rx"), "count"),
            "nic.inject_rx.ns": (per_call("nic.inject_rx", 1), "ns"),
            "nic.rx_dropped": (c["rx_dropped"] / passes, "count"),
            "agent.poll.calls": (calls("agent.poll"), "count"),
            "agent.poll.self_ns": (per_call("agent.poll", 2), "ns"),
            "agent.poll.empty_frac": (ratio(c["empty_polls"], t["agent.poll"][0]), "ratio"),
            "agent.recycle.calls": (calls("agent.recycle"), "count"),
            "agent.recycle.ns": (per_call("agent.recycle", 1), "ns"),
            "agent.recycle.effective_frac": (
                ratio(c["recycle_rdt_writes"], t["agent.recycle"][0]), "ratio"),
            "agent.receive.ns": (per_call("agent.receive", 1), "ns"),
            "agent.transmit.ns": (per_call("agent.transmit", 1), "ns"),
            "agent.run.self_ns_per_pkt": (self_per_pkt("agent.run"), "ns/pkt"),
            "agent.forward_trace.self_ns_per_pkt": (self_per_pkt("agent.forward_trace"), "ns/pkt"),
            "agent.finish.ns": (per_call("agent.finish", 1), "ns"),
            "netfuncs.proc.calls": (calls("netfuncs.proc"), "count"),
            "netfuncs.proc.ns": (per_call("netfuncs.proc", 1), "ns"),
            "netfuncs.skip_frac": (ratio(c["skipped_slots"], c["output_slots"]), "ratio"),
            "mem.allocate_dma.calls": (calls("mem.allocate_dma"), "count"),
            "mem.allocate_dma.ns": (per_call("mem.allocate_dma", 1), "ns"),
            "bench.gen_traffic.ns_per_frame": (
                ratio(t["bench.gen_traffic"][1], c["frames_generated"]) / slowdown, "ns/frame"),
            "bench.run_load_point.calls": (calls("bench.run_load_point"), "count"),
            "bench.run_load_point.self_ns_per_pkt": (self_per_pkt("bench.run_load_point"), "ns/pkt"),
            "bench.write_csv.ns": (per_call("bench.write_csv", 1), "ns"),
        }
