"""tinyring: a deterministic descriptor-ring device model with a
single-ring forwarding agent, a pool-based oracle, and a benchmark harness.
"""

from .mem import DEFAULT_PAGE_SIZE, MemEnv, OutOfMemory, TranslationFault
from .nic import (DESC_BYTES, MAX_FRAME, META_DD, META_EOP, META_LEN_MASK,
                  META_RS, Descriptor, Frame, InvalidRegisterError, Nic,
                  NotReadyError, RegisterWriteFault, decode_descriptor,
                  encode_descriptor, ownership)
from .agent import (Agent, PipelineStalled, Processor, ProtocolViolation,
                    build_pipeline, forward_trace)
from .reference import BufferPool, RefPipeline, ref_init
from .netfuncs import identity, macswap, make_processor, policer
from .bench import (CSV_HEADER, DEVICE_BUDGET, DRAIN_ALLOWANCE,
                    SEARCH_GRANULARITY, LoadPointResult,
                    NoSustainableLoad, PcapFormatError, find_max_throughput,
                    gen_traffic, parse_pcap, percentile, run_load_point,
                    run_sweep, service_rate, write_csv)

__version__ = "0.1.0"

__all__ = [
    "Agent", "BufferPool", "CSV_HEADER", "DEFAULT_PAGE_SIZE", "DESC_BYTES",
    "DEVICE_BUDGET", "DRAIN_ALLOWANCE", "Descriptor", "Frame",
    "InvalidRegisterError", "LoadPointResult", "MAX_FRAME", "META_DD",
    "META_EOP", "META_LEN_MASK", "META_RS", "MemEnv", "Nic",
    "NoSustainableLoad", "NotReadyError", "OutOfMemory", "PcapFormatError",
    "PipelineStalled", "Processor", "ProtocolViolation", "RefPipeline",
    "RegisterWriteFault", "SEARCH_GRANULARITY", "TranslationFault",
    "build_pipeline", "decode_descriptor", "encode_descriptor",
    "find_max_throughput", "forward_trace", "gen_traffic", "identity",
    "macswap", "make_processor", "ownership", "parse_pcap", "percentile",
    "policer", "ref_init", "run_load_point", "run_sweep", "service_rate",
    "write_csv",
]
