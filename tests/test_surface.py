"""The public surface: exactly the names in __all__, and perfbench needs no other."""

import ast
import pathlib

import tinyring

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC = {
    "Agent", "CSV_HEADER", "DEFAULT_PAGE_SIZE", "DESC_BYTES",
    "DEVICE_BUDGET", "DRAIN_ALLOWANCE", "Descriptor", "Frame",
    "InvalidRegisterError", "LoadPointResult", "MAX_FRAME", "META_DD",
    "META_EOP", "META_LEN_MASK", "META_RS", "MemEnv", "Nic",
    "NoSustainableLoad", "NotReadyError", "OutOfMemory", "PcapFormatError",
    "PipelineStalled", "Processor", "ProtocolViolation", "RefPipeline",
    "RegisterWriteFault", "SEARCH_GRANULARITY", "TranslationFault",
    "build_pipeline", "decode_descriptor", "encode_descriptor",
    "find_max_throughput", "forward_trace", "gen_traffic", "identity",
    "macswap", "make_processor", "ownership", "parse_pcap", "policer",
    "ref_init", "run_load_point", "run_sweep", "service_rate", "write_csv",
}


def test_all_is_pinned():
    # removing or adding a public name is a deliberate edit of this set
    assert len(tinyring.__all__) == len(PUBLIC)
    assert set(tinyring.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(tinyring, name)


def perfbench_uses():
    """(name, attribute) pairs perfbench takes from tinyring; attribute is None for a name.

    Every tr.<name> in perfbench/*.py, the names the tracer patches by
    string (FUNCTIONS and PROCESSOR_FACTORIES), and the methods METHODS
    patches on tinyring classes.
    """
    uses = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "tr"):
                uses.add((node.attr, None))
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = getattr(node.targets[0], "id", None)
                if target == "FUNCTIONS":
                    uses.update((name, None) for _span, name in ast.literal_eval(node.value))
                elif target == "PROCESSOR_FACTORIES":
                    uses.update((name, None) for name in ast.literal_eval(node.value))
                elif target == "METHODS":
                    for entry in node.value.elts:
                        _span, owner, attr = entry.elts
                        uses.add((owner.attr, attr.value))
    return uses


def test_perfbench_uses_only_public_names():
    uses = perfbench_uses()
    names = {name for name, _ in uses}
    # the tracer and the workloads are in there, not just run.py
    assert {"forward_trace", "policer", "ref_init", "Agent"} <= names
    assert names - {"__version__"} <= PUBLIC
    for name, attr in uses:
        if attr is not None:
            assert callable(getattr(getattr(tinyring, name), attr)), (name, attr)
