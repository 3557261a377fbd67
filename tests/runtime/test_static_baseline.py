"""Pins the static framework to the paper's Table-1 baseline.

``ReactorServer`` is the flag-checking static assembly of section III,
kept as the baseline of the generated-vs-static ablation bench.  Every
plane beyond Table 1 exists only in generated frameworks; these checks
stop a second, hand-wired copy of those planes from growing back.
"""

import ast
import dataclasses
import pathlib

import repro.runtime.server as static_server
from repro.runtime import RuntimeConfig

#: the twelve Table-1 option flags (O1..O12, in order)
OPTION_FLAGS = [
    "dispatcher_threads", "use_processor_pool", "use_codec",
    "async_completions", "dynamic_threads", "cache_policy",
    "shutdown_long_idle", "event_scheduling", "overload_control",
    "debug_mode", "profiling", "logging",
]

#: the parameters those options read
OPTION_PARAMETERS = [
    "cache_capacity",                                   # O6
    "idle_limit",                                       # O7
    "scheduling_quotas",                                # O8
    "overload_high", "overload_low", "max_connections",  # O9
    "processor_threads",                                # O2/O5
    "file_io_threads", "document_root",                 # O4/O6
]

#: extension planes the static server must not wire (O13, O15, O16,
#: O17 and the always-on flight recorder's global ring and dumps; its
#: O10=Debug event ring is a FlightRecorder of its own)
FORBIDDEN_IMPORTS = {
    "repro.runtime.degradation",
    "repro.runtime.resilience",
    "repro.runtime.buffers",
    "repro.runtime.deployment",
    "repro.obs.flight.GLOBAL",
    "repro.obs.flight.dump_all",
    "repro.obs.flight.install_signal_dump",
}


def test_runtime_config_is_the_twelve_options_plus_their_parameters():
    fields = {field.name for field in dataclasses.fields(RuntimeConfig)}
    assert len(OPTION_FLAGS) == 12
    assert fields == set(OPTION_FLAGS) | set(OPTION_PARAMETERS)


def test_static_server_imports_no_extension_plane():
    tree = ast.parse(pathlib.Path(static_server.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
    assert not imported & FORBIDDEN_IMPORTS, imported & FORBIDDEN_IMPORTS
