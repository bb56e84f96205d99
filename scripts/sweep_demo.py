#!/usr/bin/env python3
"""Quick look at the load/loss/latency curve for each built-in processor.

Runs a short sweep per network function and prints the table the CSV would
contain. Handy for eyeballing the knee without leaving the terminal.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tinyring import run_sweep, service_rate


def main() -> None:
    ring, outputs, step, trace = 256, 1, 100, 2000
    print(f"ring {ring}, outputs {outputs}, trace {trace} frames, "
          f"service rate {service_rate(1, outputs)} packets/1000 steps")
    # 128-byte frames so the policer's 100-byte threshold forwards them;
    # at the 64-byte default it drops every frame and no load is sustainable
    for nf, size in (("identity", 64), ("macswap", 64), ("policer", 128)):
        rows = run_sweep(nf, ring, outputs, step, trace_length=trace, packet_size=size)
        # the sweep ends at the knee search's maximum
        print(f"\n{nf} ({size}-byte frames): max sustainable load {rows[-1].offered_load}")
        print("  load  delivered  lost  loss      p50  p99")
        for r in rows:
            print(f"  {r.offered_load:4d}  {r.delivered:9d}  {r.lost:4d}  "
                  f"{r.loss_fraction:.6f}  {r.latency_p50:3d}  {r.latency_p99:3d}")


if __name__ == "__main__":
    main()
