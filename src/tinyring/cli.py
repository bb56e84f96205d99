"""Command-line benchmark front end.

Exit codes: 0 on success, 1 for malformed input or invalid arguments
(including capture-file format errors), 2 for I/O failures.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (DEFAULT_PACKET_SIZE, DEFAULT_TRACE_LENGTH, PcapFormatError,
                    find_max_throughput, parse_pcap, run_sweep, write_csv)
from .netfuncs import make_processor


class _Parser(argparse.ArgumentParser):
    # usage mistakes are invalid arguments: exit 1, not argparse's default 2,
    # which this tool reserves for I/O errors
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="bench",
                description="Sweep offered load through the simulated forwarding "
                            "pipeline and persist the results as CSV.")
    p.add_argument("--nf", choices=("identity", "macswap", "policer"),
                   default="identity", help="network function to run")
    p.add_argument("--ring-size", type=int, default=256,
                   help="descriptor ring size, a power of two (default 256)")
    p.add_argument("--outputs", type=int, default=1,
                   help="number of transmit outputs (default 1)")
    p.add_argument("--packets", type=int, default=DEFAULT_TRACE_LENGTH,
                   help="generated trace length (default %(default)s)")
    p.add_argument("--packet-size", type=int, default=DEFAULT_PACKET_SIZE,
                   help="generated frame size in bytes (default %(default)s)")
    p.add_argument("--step", type=int, default=100,
                   help="sweep increment in packets per 1000 steps (default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="trace generator seed (default 0)")
    p.add_argument("--csv", required=True, help="destination CSV path")
    p.add_argument("--pcap", help="replay this capture file instead of generated traffic")
    p.add_argument("--max-only", action="store_true",
                   help="only search for the maximum sustainable load")
    p.add_argument("--policer-min-len", type=int, default=100,
                   help="policer threshold in bytes (default 100)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        nf = make_processor(args.nf, min_len=args.policer_min_len)
        frames = None
        if args.pcap:
            with open(args.pcap, "rb") as fh:
                frames = parse_pcap(fh.read())

        common = dict(packet_size=args.packet_size, trace_length=args.packets,
                      seed=args.seed, frames=frames)
        if args.max_only:
            result = find_max_throughput(nf, args.ring_size, args.outputs, **common)
            write_csv([result], args.csv)
            print(f"max load {result.offered_load} packets per 1000 steps "
                  f"(loss {result.loss_fraction:.6f}, p50 {result.latency_p50}, "
                  f"p99 {result.latency_p99})")
        else:
            results = run_sweep(nf, args.ring_size, args.outputs, args.step, **common)
            write_csv(results, args.csv)
            print(f"{len(results)} load points written to {args.csv}")
        return 0
    except (ValueError, PcapFormatError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
