"""Differential property fuzzing: random (machine, graph, property) triples.

The correctness backstop of ROADMAP open item 4: seeded generators sample
triples (:mod:`repro.fuzz.generators`) described by plain-JSON descriptors
(:mod:`repro.fuzz.descriptors`); the differential oracle
(:mod:`repro.fuzz.oracle`) runs each through every eligible engine rung and
the exact decision procedure; failures are minimised by the shrinker
(:mod:`repro.fuzz.shrink`) into replay documents (:mod:`repro.fuzz.replay`)
the test suite reruns verbatim.  ``python -m repro fuzz`` drives a campaign
(:mod:`repro.fuzz.runner`).
"""

from repro.fuzz.descriptors import (
    ALPHABET,
    build_graph,
    build_machine,
    build_property,
    build_triple,
    explicit_graph_descriptor,
)
from repro.fuzz.generators import sample_triple
from repro.fuzz.oracle import (
    EngineRung,
    Finding,
    OracleConfig,
    check_triple,
    default_rungs,
)
from repro.fuzz.replay import (
    REPLAY_VERSION,
    load_replay,
    replay_document,
    run_replay,
    write_replay,
)
from repro.fuzz.runner import FuzzReport, fuzz_run, render_json, render_text
from repro.fuzz.shrink import shrink_triple

__all__ = [
    "ALPHABET",
    "EngineRung",
    "Finding",
    "FuzzReport",
    "OracleConfig",
    "REPLAY_VERSION",
    "build_graph",
    "build_machine",
    "build_property",
    "build_triple",
    "check_triple",
    "default_rungs",
    "explicit_graph_descriptor",
    "fuzz_run",
    "load_replay",
    "render_json",
    "render_text",
    "replay_document",
    "run_replay",
    "sample_triple",
    "shrink_triple",
    "write_replay",
]
