"""Command-line entry point: simulate, check, scan, run experiments.

One executable, ``spaq``, wires the simulator, the property checker, the
pairwise co-failure scan, and the three packaged experiments. Exit codes
are a stable contract:

    0   property holds, or a confidence bound/interval was produced,
        or the command completed
    1   property does not hold (or a report failed reproduction)
    2   parse, config, or I/O error (syntax errors include a caret
        diagnostic on stderr)
    3   insufficient data for a verdict

Every subcommand prints human-readable lines first; the final stdout
line is always a single JSON record of the outcome, for scripting.
``SPAQ_SEED`` supplies the seed when ``--seed`` is absent. ``--jobs``
parallelizes independent simulation runs only; results are identical
for any value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from statistics import fmean

from .errors import (
    InsufficientDataError,
    NoSamplesError,
    PropertySyntaxError,
    SpaqError,
)
from .experiments import (
    DELAYED_CHECKS,
    HIDDEN_DEPENDENCY,
    INTERNODE_COUPLING,
    Exp1Config,
    Exp2Config,
    Exp3Config,
    matrix_rows,
    pairwise_cofailure_scan,
    run_batch,
    run_delayed_checks_experiment,
    run_hidden_dependency_experiment,
    run_internode_experiment,
    smc_result_to_dict,
    write_matrix_csv,
    write_report,
)
from .graph import builtin_config_path, graph_hash, load_graph
from .properties import parse_property
from .extractors import evaluate_property
from .sim import ADAPTIVE, BASELINE, HIGH_FREQUENCY, availability
from .smc import DOES_NOT_HOLD, HOLDS, INSUFFICIENT_DATA, LOWER, TWO_SIDED, UPPER
from .trace import load_dataset, write_trace

_BUILTINS = ("xgate", "internode", "hidden")

# which stored dataset each scenario's property strings were evaluated on
_REPRO_SOURCE = {
    DELAYED_CHECKS: "high_frequency",
    INTERNODE_COUPLING: "unmerged",
    HIDDEN_DEPENDENCY: "baseline",
}


# --- shared helpers ---


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("SPAQ_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"SPAQ_SEED must be an integer, got {env!r}") from None


def _load_graph_arg(config: str | None, builtin: str):
    if config is not None:
        return load_graph(config)
    return load_graph(builtin_config_path(builtin))


def _trace_files(paths) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.jsonl")))
        elif p.is_file():
            files.append(p)
        else:
            raise FileNotFoundError(f"no such trace file or directory: {p}")
    if not files:
        raise FileNotFoundError("no .jsonl trace files found")
    return files


def _apply_overrides(cfg, pairs):
    """Apply ``--set key=value`` overrides to an experiment config, typed per field."""
    names = {f.name for f in fields(cfg)}
    kwargs = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in names:
            raise ValueError(f"unknown config field {key!r} for {type(cfg).__name__}")
        current = getattr(cfg, key)
        if isinstance(current, bool):
            if raw.lower() not in ("true", "false"):
                raise ValueError(f"{key} expects true/false, got {raw!r}")
            kwargs[key] = raw.lower() == "true"
        elif isinstance(current, int):
            kwargs[key] = int(raw)
        elif isinstance(current, float):
            kwargs[key] = float(raw)
        else:
            kwargs[key] = raw
    return replace(cfg, **kwargs)


def _experiment_cfg(cls, ns, **own):
    """Experiment config from the shared run flags, the command's own
    flags and its ``--set`` overrides."""
    cfg = cls(total_cycles=ns.cycles, n_runs=ns.runs, seed=_resolve_seed(ns.seed), jobs=ns.jobs, **own)
    return _apply_overrides(cfg, ns.overrides)


def _emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _verdict_exit(verdict: str | None) -> int:
    if verdict is None or verdict == HOLDS:
        return 0
    if verdict == DOES_NOT_HOLD:
        return 1
    if verdict == INSUFFICIENT_DATA:
        return 3
    raise ValueError(f"unknown verdict {verdict!r}")


# --- simulate ---


def cmd_simulate(ns) -> int:
    graph = _load_graph_arg(ns.config, ns.builtin)
    seed = _resolve_seed(ns.seed)
    seeds = range(seed, seed + ns.runs)
    ds = run_batch(
        graph,
        ns.cycles,
        seeds,
        mode=ns.mode,
        hf_timeout=ns.hf_timeout,
        oracle=not ns.no_oracle,
        jobs=ns.jobs,
    )
    outdir = Path(ns.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for run in ds.runs:
        path = outdir / f"{run.meta.run_id}.jsonl"
        write_trace(path, run)
        rep = availability(run, graph=graph)
        rows.append(
            {
                "run_id": run.meta.run_id,
                "seed": run.meta.seed,
                "trace": str(path),
                "availability": rep.availability,
                "events": len(run.events),
            }
        )
        print(
            f"{run.meta.run_id}: {ns.cycles} cycles, {len(run.events)} events, "
            f"availability {rep.availability:.4f}"
        )
    mean = fmean(r["availability"] for r in rows)
    print(f"mean availability over {len(rows)} run(s): {mean:.4f}")
    record = {
        "command": "simulate",
        "graph_hash": graph_hash(graph),
        "mode": ns.mode,
        "cycles": ns.cycles,
        "outdir": str(outdir),
        "runs": rows,
        "availability_mean": mean,
    }
    (outdir / "summary.json").write_text(json.dumps(record, indent=2) + "\n")
    _emit_json(record)
    return 0


# --- check ---


def cmd_check(ns) -> int:
    text = ns.property_text
    if ns.property_file is not None:
        text = Path(ns.property_file).read_text().strip()
    files = _trace_files(ns.traces)
    dataset = load_dataset(files)
    ast = parse_property(text)
    try:
        result = evaluate_property(dataset, ast, delta=ns.delta, interval_side=ns.side)
    except (NoSamplesError, InsufficientDataError) as exc:
        print(f"property: {text}")
        print(f"verdict: {INSUFFICIENT_DATA} ({exc})")
        _emit_json(
            {
                "command": "check",
                "property": text,
                "files": len(files),
                "result": {"verdict": INSUFFICIENT_DATA, "n_used": 0},
                "exit_code": 3,
            }
        )
        return 3
    code = _verdict_exit(result.verdict)
    print(f"property: {text}")
    print(f"runs: {len(dataset.runs)}  samples used: {result.n_used}")
    if result.verdict is not None:
        line = f"verdict: {result.verdict}"
        if result.p_value is not None:
            line += f"  (p-value {result.p_value:.4g})"
        print(line)
    if result.bound is not None:
        print(f"bound: {result.bound:g}  (rank {result.rank}, coverage {result.coverage:.4f})")
    if result.interval is not None:
        lo, hi = result.interval
        print(f"interval: [{lo:g}, {hi:g}]  (coverage {result.coverage:.4f})")
    _emit_json(
        {
            "command": "check",
            "property": text,
            "files": len(files),
            "result": smc_result_to_dict(result),
            "exit_code": code,
        }
    )
    return code


# --- scan ---


def cmd_scan(ns) -> int:
    if ns.traces:
        dataset = load_dataset(_trace_files(ns.traces))
        source = {"traces": [str(p) for p in ns.traces]}
    else:
        graph = _load_graph_arg(ns.config, ns.builtin)
        seed = _resolve_seed(ns.seed)
        dataset = run_batch(
            graph, ns.cycles, range(seed, seed + ns.runs), jobs=ns.jobs
        )
        source = {"graph_hash": graph_hash(graph), "cycles": ns.cycles, "seed": seed, "runs": ns.runs}
    matrix = pairwise_cofailure_scan(dataset, ns.window, ns.p0, ns.confidence)

    holds = [list(pair) for pair, cell in sorted(matrix.cells.items()) if cell.verdict == HOLDS]
    for y, z in holds:
        cell = matrix.cells[(y, z)]
        print(
            f"holds: fail({z}) -> fail({y}) within {ns.window}  "
            f"(n={cell.result.n_used}, p={cell.result.p_value:.3g})"
        )
    if not holds:
        print("no ordered pair holds at the requested threshold")
    print(f"mutual pairs: {matrix.mutual_holds() or 'none'}")

    outdir = Path(ns.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(matrix, outdir / "matrix.csv")
    record = {
        "command": "scan",
        "window": ns.window,
        "p0": ns.p0,
        "confidence": ns.confidence,
        "source": source,
        "holds": holds,
        "mutual": [list(p) for p in matrix.mutual_holds()],
        "matrix_csv": str(outdir / "matrix.csv"),
        "cells": matrix_rows(matrix),
    }
    (outdir / "scan.json").write_text(json.dumps(record, indent=2) + "\n")
    _emit_json(record)
    return 0


# --- experiments ---


def _print_report_summary(report) -> None:
    print(f"scenario: {report.scenario}")
    print(
        f"availability: {report.availability_before:.4f} -> "
        f"{report.availability_after:.4f} "
        f"({(report.availability_after - report.availability_before) * 100:+.2f} pp)"
    )
    for label, values in report.availability_per_run.items():
        print(f"  {label}: mean {fmean(values):.4f} over {len(values)} run(s)")
    if report.shift_test is not None:
        st = report.shift_test
        print(f"shift test: {st.verdict} (n={st.n_used}, p={st.p_value:.3g})")
        if st.control is not None:
            print(f"  control: {st.control.verdict} (n={st.control.n_used})")
    if report.matrix is not None:
        print(f"mutual co-failure pairs: {report.matrix.mutual_holds() or 'none'}")
    if report.recommendations:
        for rec in report.recommendations:
            print(f"recommendation: {rec.kind} {rec.target} {rec.payload}")
    else:
        print("recommendation: none")


def _finish_experiment(report, outdir: str, command: str) -> int:
    paths = write_report(report, outdir)
    _print_report_summary(report)
    print(f"report: {paths['report']}")
    _emit_json(
        {
            "command": command,
            "scenario": report.scenario,
            "outdir": str(outdir),
            "report": str(paths["report"]),
            "availability_before": report.availability_before,
            "availability_after": report.availability_after,
            "recommendations": [
                {"kind": r.kind, "target": r.target} for r in report.recommendations
            ],
        }
    )
    return 0


def cmd_exp1(ns) -> int:
    graph = _load_graph_arg(ns.config, "xgate")
    cfg = _experiment_cfg(Exp1Config, ns, hf_timeout=ns.hf_timeout, confidence=ns.confidence)
    return _finish_experiment(run_delayed_checks_experiment(graph, cfg), ns.outdir, "exp1")


def cmd_exp2(ns) -> int:
    graph = load_graph(ns.config) if ns.config is not None else None
    cfg = _experiment_cfg(
        Exp2Config, ns,
        rel_shift=ns.rel_shift, p0=ns.p0, confidence=ns.confidence, coupling=not ns.no_coupling,
    )
    return _finish_experiment(run_internode_experiment(cfg, graph=graph), ns.outdir, "exp2")


def cmd_exp3(ns) -> int:
    graph = load_graph(ns.config) if ns.config is not None else None
    cfg = _experiment_cfg(Exp3Config, ns, window=ns.window, p0=ns.p0, confidence=ns.confidence)
    return _finish_experiment(run_hidden_dependency_experiment(cfg, graph=graph), ns.outdir, "exp3")


# --- report ---


def _load_report(path: Path) -> tuple[dict, Path]:
    if path.is_dir():
        path = path / "report.json"
    if not path.is_file():
        raise FileNotFoundError(f"no report document at {path}")
    return json.loads(path.read_text()), path.parent


def _load_stored_dataset(doc: dict, label: str, root: Path):
    rows = doc.get("datasets", {}).get(label)
    if not rows:
        raise ValueError(f"report has no stored dataset {label!r}")
    paths = []
    for row in rows:
        if "trace" not in row:
            raise ValueError(f"stored run {row.get('run_id')!r} lacks a trace path")
        paths.append(root / row["trace"])
    return load_dataset(paths)


def _results_match(recorded: dict, fresh) -> bool:
    live = smc_result_to_dict(fresh)
    for key in ("verdict", "n_used", "rank"):
        if recorded.get(key) != live.get(key):
            return False
    for key in ("p_value", "bound", "coverage"):
        a, b = recorded.get(key), live.get(key)
        if (a is None) != (b is None):
            return False
        if a is not None and not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
            return False
    return True


def _reproduce(doc: dict, root: Path) -> list[str]:
    """Re-evaluate every embedded property on the stored traces."""
    scenario = doc.get("scenario")
    label = _REPRO_SOURCE.get(scenario)
    if label is None:
        raise ValueError(f"unknown scenario {scenario!r} in report")
    dataset = _load_stored_dataset(doc, label, root)
    mismatches: list[str] = []

    def check_one(name: str, text: str, recorded: dict) -> None:
        ast = parse_property(text)
        # a recorded bare bound means the one-sided lower form was used
        side = LOWER if "bound" in recorded and "interval" not in recorded else TWO_SIDED
        try:
            fresh = evaluate_property(dataset, ast, interval_side=side)
        except (NoSamplesError, InsufficientDataError):
            if recorded.get("verdict") == INSUFFICIENT_DATA:
                print(f"ok: {name}")
                return
            mismatches.append(f"{name}: fresh evaluation has no samples")
            return
        if _results_match(recorded, fresh):
            print(f"ok: {name}")
        else:
            mismatches.append(f"{name}: recorded {recorded} != fresh {smc_result_to_dict(fresh)}")

    for rec in doc.get("recommendations", []):
        check_one(f"recommendation {rec['kind']} {rec['target']}", rec["property"], rec["result"])
    for cell in doc.get("matrix", []):
        check_one(
            f"matrix {cell['response']}<-{cell['trigger']}", cell["property"], cell["result"]
        )
    st = doc.get("shift_test")
    if st is not None:
        check_one("shift_test", st["property"], st)
    return mismatches


def cmd_report(ns) -> int:
    doc, root = _load_report(Path(ns.path))
    print(f"scenario: {doc.get('scenario')}")
    print(
        f"availability: {doc.get('availability_before'):.4f} -> "
        f"{doc.get('availability_after'):.4f}"
    )
    for label, values in doc.get("availability_per_run", {}).items():
        print(f"  {label}: mean {fmean(values):.4f} over {len(values)} run(s)")
    recs = doc.get("recommendations", [])
    for rec in recs:
        print(f"recommendation: {rec['kind']} {rec['target']} {rec.get('payload', {})}")
    if not recs:
        print("recommendation: none")

    mismatches: list[str] = []
    if ns.reproduce:
        mismatches = _reproduce(doc, root)
        for m in mismatches:
            print(f"MISMATCH {m}", file=sys.stderr)
        print("reproduction: " + ("ok" if not mismatches else f"{len(mismatches)} mismatch(es)"))
    code = 1 if mismatches else 0
    _emit_json(
        {
            "command": "report",
            "scenario": doc.get("scenario"),
            "availability_before": doc.get("availability_before"),
            "availability_after": doc.get("availability_after"),
            "recommendations": [
                {"kind": r["kind"], "target": r["target"]} for r in recs
            ],
            "reproduced": ns.reproduce,
            "mismatches": mismatches,
            "exit_code": code,
        }
    )
    return code


# --- argument parsing ---


def _add_sim_args(p, *, runs_default: int, cycles_default: int) -> None:
    p.add_argument("--cycles", type=int, default=cycles_default, help="cycles per run")
    p.add_argument("--runs", type=int, default=runs_default, help="number of independent runs")
    p.add_argument("--seed", type=int, default=None, help="base seed; runs use seed..seed+N-1 (default: $SPAQ_SEED or 0)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for independent runs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spaq",
        description=__doc__.splitlines()[0],
        epilog="The last stdout line of every subcommand is a JSON record.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run the scheduler simulator and write traces")
    p.add_argument("--config", help="graph config YAML (default: packaged --builtin)")
    p.add_argument("--builtin", choices=_BUILTINS, default="xgate", help="packaged graph config")
    _add_sim_args(p, runs_default=1, cycles_default=10_000)
    p.add_argument("--mode", choices=(BASELINE, HIGH_FREQUENCY, ADAPTIVE), default=BASELINE)
    p.add_argument("--hf-timeout", type=int, default=4, help="timeout override in high_frequency mode")
    p.add_argument("--no-oracle", action="store_true", help="skip ground-truth oracle events")
    p.add_argument("-o", "--outdir", default="spaq_traces", help="trace output directory")

    p = sub.add_parser("check", help="evaluate one property against trace files")
    p.add_argument("--traces", nargs="+", required=True, help="trace files or directories")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--property", dest="property_text", help="property text")
    grp.add_argument("--property-file", help="file containing the property text")
    p.add_argument("--delta", type=float, default=None, help="indifference half-width (sequential test)")
    p.add_argument("--side", choices=(LOWER, UPPER, TWO_SIDED), default=TWO_SIDED, help="ci-mode bound side")

    p = sub.add_parser("scan", help="pairwise co-failure scan over traces or fresh runs")
    p.add_argument("--traces", nargs="*", default=(), help="existing trace files or directories")
    p.add_argument("--config", help="graph config YAML to simulate when no traces given")
    p.add_argument("--builtin", choices=_BUILTINS, default="hidden")
    _add_sim_args(p, runs_default=5, cycles_default=10_000)
    p.add_argument("--window", type=int, default=25)
    p.add_argument("--p0", type=float, default=0.33)
    p.add_argument("--confidence", type=float, default=0.90)
    p.add_argument("-o", "--outdir", default="spaq_scan", help="output directory")

    p = sub.add_parser("exp1", help="delayed-checks experiment (baseline/hf/adaptive)")
    p.add_argument("--config", help="graph config YAML (default: packaged xgate)")
    _add_sim_args(p, runs_default=20, cycles_default=10_000)
    p.add_argument("--hf-timeout", type=int, default=4)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                   help="config field override, repeatable")
    p.add_argument("-o", "--outdir", default="spaq_exp1")

    p = sub.add_parser("exp2", help="inter-node coupling experiment (shift test + merge)")
    p.add_argument("--config", help="graph config YAML (default: packaged internode)")
    _add_sim_args(p, runs_default=20, cycles_default=10_000)
    p.add_argument("--rel-shift", type=float, default=0.10)
    p.add_argument("--p0", type=float, default=0.33)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--no-coupling", action="store_true", help="strip cross-node observable terms")
    p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
    p.add_argument("-o", "--outdir", default="spaq_exp2")

    p = sub.add_parser("exp3", help="hidden-dependency experiment (scan + added edge)")
    p.add_argument("--config", help="graph config YAML (default: packaged hidden)")
    _add_sim_args(p, runs_default=20, cycles_default=10_000)
    p.add_argument("--window", type=int, default=25)
    p.add_argument("--p0", type=float, default=0.33)
    p.add_argument("--confidence", type=float, default=0.90)
    p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
    p.add_argument("-o", "--outdir", default="spaq_exp3")

    p = sub.add_parser("report", help="print a stored experiment report; optionally re-verify it")
    p.add_argument("path", help="report directory or report.json path")
    p.add_argument("--reproduce", action="store_true",
                   help="re-evaluate every embedded property on the stored traces")
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "scan": cmd_scan,
    "exp1": cmd_exp1,
    "exp2": cmd_exp2,
    "exp3": cmd_exp3,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return _HANDLERS[ns.subcommand](ns)
    except PropertySyntaxError as exc:
        print(exc.caret_diagnostic(), file=sys.stderr)
        return 2
    except (SpaqError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
