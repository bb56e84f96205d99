"""The public surface: exactly the names in __all__, perfbench needs no other,
and the modules above the agent take no private name but the shared rules."""

import ast
import pathlib

import tinyring

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "tinyring"

# the private helpers that each state one rule for every module that applies it
SHARED_RULES = {"_check_int", "_check_payload", "_reject_output_lengths"}

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


def test_upper_modules_take_only_the_shared_rules():
    # the bench, the CLI, the oracle and the network functions call the
    # module that states a check; a private name beyond the shared rules
    # means a copy of some other check, or a reach into its internals
    taken = {}
    for module in ("bench.py", "cli.py", "reference.py", "netfuncs.py"):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        taken.setdefault(alias.name, []).append(module)
    assert "reference.py" in taken.get("_reject_output_lengths", [])  # the walk sees imports
    assert set(taken) <= SHARED_RULES, taken
