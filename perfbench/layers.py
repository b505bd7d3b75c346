"""Which spaq functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each function is patched in the namespace it is looked up from: the
benchmark's own calls go through the ``spaq`` package, and the library's
internal calls through the module that calls them (``run_batch`` finds
``run_simulation`` in ``spaq.experiments``, ``load_dataset`` finds
``read_trace`` in ``spaq.trace``, ``evaluate_property`` finds the
extractors and tests in ``spaq.extractors``).
"""

from __future__ import annotations

import importlib
import os
from pathlib import Path
from statistics import fmean, median

from spans import Recorder, Span, self_times

# the modelled statistics: a change that only speeds the code up leaves
# every one of them exactly as it was
MODELLED = (
    "sim.events",
    "sim.checks",
    "sim.calibrations",
    "sim.check_pass_frac",
    "sim.availability_mean",
    "experiments.scan_cells",
    "extractors.samples",
)


def _sim_attrs(args, kwargs, run) -> dict:
    checks = passed = calibrations = 0
    for e in run.events:
        if e.op == "check_data":
            checks += 1
            passed += e.outcome == "pass"
        elif e.op == "calibrate":
            calibrations += 1
    return {
        "cycles": run.meta.total_cycles,
        "events": len(run.events),
        "checks": checks,
        "passed": passed,
        "calibrations": calibrations,
    }


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _tree_bytes(args, kwargs, result) -> dict:
    root = Path(args[1])
    return {"bytes": sum(p.stat().st_size for p in root.rglob("*") if p.is_file())}


def _n_samples(args, kwargs, result) -> dict:
    return {"samples": len(result.values)}


def _verdict(args, kwargs, result) -> dict:
    return {"verdict": result.verdict}


def _availability(args, kwargs, result) -> dict:
    return {"value": result.availability}


def _cells(args, kwargs, result) -> dict:
    return {"cells": len(result.cells)}


# (namespace, attribute, span name, attribute function)
PATCHES = (
    ("spaq", "load_graph", "graph.load", None),
    ("spaq.experiments", "with_delays", "graph.rewrite", None),
    ("spaq.experiments", "merge_nodes", "graph.rewrite", None),
    ("spaq.experiments", "add_edge", "graph.rewrite", None),
    ("spaq.experiments", "run_simulation", "sim.run", _sim_attrs),
    ("spaq", "availability", "sim.availability", _availability),
    ("spaq.experiments", "availability", "sim.availability", _availability),
    ("spaq", "write_trace", "trace.write", _file_bytes),
    ("spaq.experiments", "write_trace", "trace.write", _file_bytes),
    ("spaq.trace", "read_trace", "trace.read", _file_bytes),
    ("spaq", "parse_property", "properties.parse", None),
    ("spaq.experiments", "parse_property", "properties.parse", None),
    ("spaq", "evaluate_property", "extractors.eval", None),
    ("spaq.experiments", "evaluate_property", "extractors.eval", None),
    ("spaq.extractors", "extract_metric", "extractors.metric", _n_samples),
    ("spaq.extractors", "extract_condition_samples", "extractors.cond", _n_samples),
    ("spaq.extractors", "exact_binomial_test", "smc", _verdict),
    ("spaq.extractors", "sprt_test", "smc", _verdict),
    ("spaq.extractors", "quantile_confidence_bound", "smc", _verdict),
    ("spaq.extractors", "quantile_confidence_interval", "smc", _verdict),
    ("spaq", "pairwise_cofailure_scan", "experiments.scan", _cells),
    ("spaq.experiments", "recommend_delay_details", "experiments.recommend", None),
    ("spaq", "write_report", "experiments.report_write", _tree_bytes),
)


def wrapped(recorder: Recorder):
    """(namespace, attribute, wrapper) triples for ``spans.patched``."""
    out = []
    for module_name, attr, name, attrs in PATCHES:
        fn = getattr(importlib.import_module(module_name), attr)
        out.append((module_name, attr, recorder.wrap(name, fn, attrs)))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: list[Span], timed: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one timed pass.

    ``graph.*`` also counts the set-up spans, because the graph is loaded
    there; every other metric covers the timed pass alone.
    """
    own = dict(zip(map(id, timed), self_times(timed)))

    def pick(name, spans=timed):
        return [s for s in spans if s.name == name]

    def dur(name, spans=timed):
        return sum(s.duration for s in pick(name, spans))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in pick(name))

    both = setup + timed
    runs = pick("sim.run")
    busy = sum(own[id(s)] for s in runs)
    cycles, events, checks = total("sim.run", "cycles"), total("sim.run", "events"), total("sim.run", "checks")
    avail = [s.attrs["value"] for s in pick("sim.availability")]
    write_s, read_s = dur("trace.write"), dur("trace.read")
    write_b, read_b = total("trace.write", "bytes"), total("trace.read", "bytes")
    smc = pick("smc")
    return {
        "graph.load_s": dur("graph.load", both),
        "graph.rewrite_s": dur("graph.rewrite", both),
        "sim.runs": len(runs),
        "sim.cycles": cycles,
        "sim.events": events,
        "sim.busy_s": busy,
        "sim.cycles_per_s": _ratio(cycles, busy),
        "sim.us_per_event": _ratio(busy * 1e6, events),
        "sim.run_p50_ms": median(s.duration for s in runs) * 1e3 if runs else 0.0,
        "sim.checks": checks,
        "sim.calibrations": total("sim.run", "calibrations"),
        "sim.check_pass_frac": _ratio(total("sim.run", "passed"), checks),
        "sim.availability_mean": fmean(avail) if avail else 0.0,
        "sim.availability_s": dur("sim.availability"),
        "sim.availability_calls": len(avail),
        "trace.files": len(pick("trace.write")) + len(pick("trace.read")),
        "trace.bytes": write_b + read_b,
        "trace.write_s": write_s,
        "trace.read_s": read_s,
        "trace.write_mb_per_s": _ratio(write_b / 1e6, write_s),
        "trace.read_mb_per_s": _ratio(read_b / 1e6, read_s),
        "properties.parse_s": dur("properties.parse"),
        "properties.parses": len(pick("properties.parse")),
        "extractors.metric_s": dur("extractors.metric"),
        "extractors.cond_s": dur("extractors.cond"),
        "extractors.eval_s": sum(own[id(s)] for s in pick("extractors.eval")),
        "extractors.samples": total("extractors.metric", "samples") + total("extractors.cond", "samples"),
        "extractors.triggers": total("extractors.cond", "samples"),
        "smc.s": sum(s.duration for s in smc),
        "smc.calls": len(smc),
        "smc.insufficient_frac": _ratio(sum(s.attrs.get("verdict") == "insufficient_data" for s in smc), len(smc)),
        "experiments.scan_s": dur("experiments.scan"),
        "experiments.scan_cells": total("experiments.scan", "cells"),
        "experiments.recommend_s": dur("experiments.recommend"),
        "experiments.report_write_s": dur("experiments.report_write"),
        "experiments.report_bytes": total("experiments.report_write", "bytes"),
    }
