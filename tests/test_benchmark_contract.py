"""The benchmark's contract with spaq: every name ``perfbench`` wraps
still resolves, its workloads still build their inputs, and every
property it evaluates still parses.

Without this, a moved or renamed name fails only in a traced or
all-workload benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np

import spaq
from spaq.properties import parse_property, property_to_text
from spaq.trace import _KIND_CODE, CALIBRATE, CHECK_DATA, PASS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layers import PATCHES, _sim_attrs  # noqa: E402
from workloads import WORKLOADS, PipelineXgate, property_suite  # noqa: E402


def test_every_wrapped_name_resolves_to_a_callable():
    missing = [
        f"{namespace}.{attribute}"
        for namespace, attribute, _, _ in PATCHES
        if not callable(getattr(importlib.import_module(namespace), attribute, None))
    ]
    assert missing == []


def test_exp1_workload_builds_its_config(tmp_path):
    inputs = WORKLOADS["exp1_hf_oracle"].setup(0, tmp_path)
    assert isinstance(inputs["cfg"], spaq.Exp1Config)
    assert inputs["cfg"].jobs == 1


def test_every_benchmark_property_parses_and_round_trips():
    texts = property_suite(spaq.load_graph(spaq.builtin_config_path("xgate")))
    texts += PipelineXgate.properties
    for text in texts:
        ast = parse_property(text)
        assert parse_property(property_to_text(ast)) == ast, text


def test_sim_span_counts_match_the_runs_columns():
    # a traced pass counts each simulated run's events through Run.events
    graph = spaq.load_graph(spaq.builtin_config_path("xgate"))
    run = spaq.run_simulation(graph, spaq.SimConfig(total_cycles=3_000, seed=3))
    kind = run.kind
    checks = np.isin(kind, list(_KIND_CODE[CHECK_DATA].values()))
    assert _sim_attrs((), {}, run) == {
        "cycles": 3_000,
        "events": len(kind),
        "checks": int(checks.sum()),
        "passed": int((kind == _KIND_CODE[CHECK_DATA][PASS]).sum()),
        "calibrations": int(np.isin(kind, list(_KIND_CODE[CALIBRATE].values())).sum()),
    }
    assert checks.any() and len(kind) > 100
