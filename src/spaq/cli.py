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
    ConfigError,
    InsufficientDataError,
    NoSamplesError,
    PropertySyntaxError,
    SchemaError,
    SpaqError,
)
from .experiments import (
    EVIDENCE_DATASET,
    Exp1Config,
    Exp2Config,
    Exp3Config,
    _SeedBlock,
    matrix_rows,
    mutual_pairs,
    pairwise_cofailure_scan,
    param_shift_failure_test,
    report_to_dict,
    run_delayed_checks_experiment,
    run_hidden_dependency_experiment,
    run_internode_experiment,
    smc_result_to_dict,
    write_json,
    write_matrix_csv,
    write_report,
)
from .graph import builtin_config_path, graph_hash, load_graph
from .properties import CondQuery, parse_property
from .extractors import evaluate_property
from .sim import _MODES, BASELINE, availability
from .smc import DOES_NOT_HOLD, HOLDS, INSUFFICIENT_DATA, LOWER, TWO_SIDED, UPPER, SmcResult
from .trace import load_dataset, write_trace

_BUILTINS = ("xgate", "internode", "hidden")


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


# the value ``--set`` expects for a field of each type
_EXPECTS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _apply_overrides(cfg, pairs):
    """Apply ``--set key=value`` overrides to an experiment config, typed per field."""
    names = {f.name for f in fields(cfg)}
    kwargs = {}
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in names:
            raise ConfigError(f"unknown config field {key!r} for {type(cfg).__name__}")
        kind = type(getattr(cfg, key))
        try:
            kwargs[key] = {"true": True, "false": False}[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"--set {key} expects {_EXPECTS[kind]}, got {raw!r}") from None
    return replace(cfg, **kwargs)


def _seed_block(cls, ns, *, seeded: bool = True):
    """A ``cls`` config from the flags given, named by its fields (a flag
    not given takes its field's default), then the ``--set`` overrides.
    Unless ``seeded`` nothing reads the seed, nor ``$SPAQ_SEED``."""
    names = {f.name for f in fields(cls)} - {"seed"}
    given = {key: value for key, value in vars(ns).items() if key in names}
    if seeded:
        given["seed"] = _resolve_seed(ns.seed)
    return _apply_overrides(cls(**given), getattr(ns, "overrides", None))


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
    block = _seed_block(_SeedBlock, ns)
    ds = block.batch(graph, "run", mode=ns.mode, hf_timeout=ns.hf_timeout, oracle=ns.oracle)
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
                "events": len(run.time),
            }
        )
        print(
            f"{run.meta.run_id}: {block.total_cycles} cycles, {len(run.time)} events, "
            f"availability {rep.availability:.4f}"
        )
    mean = fmean(r["availability"] for r in rows)
    print(f"mean availability over {len(rows)} run(s): {mean:.4f}")
    record = {
        "command": "simulate",
        "graph_hash": graph_hash(graph),
        "mode": ns.mode,
        "cycles": block.total_cycles,
        "outdir": str(outdir),
        "runs": rows,
        "availability_mean": mean,
    }
    write_json(outdir / "summary.json", record)
    _emit_json(record)
    return 0


# --- check ---


def cmd_check(ns) -> int:
    text = ns.property_text
    if ns.property_file is not None:
        text = Path(ns.property_file).read_text().strip()
    ast = parse_property(text)
    files = _trace_files(ns.traces)
    dataset = load_dataset(files)
    reason = ""
    try:
        result = evaluate_property(dataset, ast, delta=ns.delta, interval_side=ns.side)
    except (NoSamplesError, InsufficientDataError) as exc:
        result = SmcResult(verdict=INSUFFICIENT_DATA, n_used=0)
        reason = f" ({exc})"
    code = _verdict_exit(result.verdict)
    print(f"property: {text}")
    print(f"runs: {len(dataset.runs)}  samples used: {result.n_used}")
    if result.verdict is not None:
        line = f"verdict: {result.verdict}{reason}"
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
    # the scan half of exp3: its window, p0 and confidence, and its runs
    # when no traces are given
    cfg = _seed_block(Exp3Config, ns, seeded=not ns.traces)
    if ns.traces:
        dataset = load_dataset(_trace_files(ns.traces))
        source = {"traces": [str(p) for p in ns.traces]}
    else:
        graph = _load_graph_arg(ns.config, ns.builtin)
        dataset = cfg.batch(graph, "run")
        source = {"graph_hash": graph_hash(graph), "cycles": cfg.total_cycles, "seed": cfg.seed, "runs": cfg.n_runs}
    matrix = pairwise_cofailure_scan(dataset, cfg.window, cfg.p0, cfg.confidence)

    holds = [list(pair) for pair, cell in sorted(matrix.cells.items()) if cell.verdict == HOLDS]
    for y, z in holds:
        cell = matrix.cells[(y, z)]
        print(
            f"holds: fail({z}) -> fail({y}) within {cfg.window}  "
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
        "window": cfg.window,
        "p0": cfg.p0,
        "confidence": cfg.confidence,
        "source": source,
        "holds": holds,
        "mutual": [list(p) for p in matrix.mutual_holds()],
        "matrix_csv": str(outdir / "matrix.csv"),
        "cells": matrix_rows(matrix),
    }
    write_json(outdir / "scan.json", record)
    _emit_json(record)
    return 0


# --- experiments ---


def _print_summary(doc: dict) -> None:
    """The summary of a report document, as ``report_to_dict`` builds it."""
    before, after = doc["availability_before"], doc["availability_after"]
    print(f"scenario: {doc['scenario']}")
    print(f"availability: {before:.4f} -> {after:.4f} ({(after - before) * 100:+.2f} pp)")
    for label, values in doc["availability_per_run"].items():
        print(f"  {label}: mean {fmean(values):.4f} over {len(values)} run(s)")
    st = doc.get("shift_test")
    if st is not None:
        print(f"shift test: {st['verdict']} (n={st['n_used']}, p={st['p_value']:.3g})")
        if "control" in st:
            print(f"  control: {st['control']['verdict']} (n={st['control']['n_used']})")
    if "matrix" in doc:
        held = [(c["response"], c["trigger"]) for c in doc["matrix"] if c["verdict"] == HOLDS]
        print(f"mutual co-failure pairs: {mutual_pairs(held) or 'none'}")
    for rec in doc["recommendations"]:
        print(f"recommendation: {rec['kind']} {rec['target']} {rec['payload']}")
    if not doc["recommendations"]:
        print("recommendation: none")


def _report_record(command: str, doc: dict, **extra) -> dict:
    """The final JSON record of a command that prints a report document."""
    return {
        "command": command,
        "scenario": doc["scenario"],
        "availability_before": doc["availability_before"],
        "availability_after": doc["availability_after"],
        "recommendations": [{"kind": r["kind"], "target": r["target"]} for r in doc["recommendations"]],
        **extra,
    }


def cmd_experiment(ns) -> int:
    cls, builtin, run, *_ = _EXPERIMENTS[ns.subcommand]
    report = run(_seed_block(cls, ns), _load_graph_arg(ns.config, builtin))
    paths = write_report(report, ns.outdir)
    doc = report_to_dict(report)
    _print_summary(doc)
    print(f"report: {paths['report']}")
    _emit_json(_report_record(ns.subcommand, doc, outdir=str(ns.outdir), report=str(paths["report"])))
    return 0


# --- report ---


# what ``spaq report`` reads of a report document, as JSON types: a dict
# is an object with those fields ("?" marks one that may be absent),
# ``{str: X}`` an object of Xs, and a one-item list an array of its item;
# a number (float) may be written as an integer
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}
_VERDICT = (str, type(None))
_SMC = {"verdict": _VERDICT, "n_used": int, "p_value?": float, "bound?": float, "rank?": int, "coverage?": float}
_RESULT = {**_SMC, "control?": _SMC}
_REPORT = {
    "scenario": str,
    "availability_before": float,
    "availability_after": float,
    "availability_per_run": {str: [float]},
    "recommendations": [{"kind": str, "target": str, "payload": dict, "property": str, "result": _RESULT}],
    "datasets": {str: [{"trace?": str}]},
    "matrix?": [{"response": str, "trigger": str, "verdict": _VERDICT, "property": str, "result": _RESULT}],
    "shift_test?": {"verdict": _VERDICT, "n_used": int, "p_value": float, "property": str, "control?": _SMC},
}


def _check_doc(value, spec, path: Path, where: str = "") -> None:
    """SchemaError, naming ``path`` and the field at ``where``, unless
    ``value`` has the shape of ``spec`` (see ``_REPORT``)."""
    at = f"{path}: {where}" if where else str(path)
    kinds = dict if isinstance(spec, dict) else list if isinstance(spec, list) else spec
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if type(value) not in kinds and not (float in kinds and type(value) is int):
        expected = " or ".join(_JSON_NAMES[k] for k in kinds)
        raise SchemaError(f"{at}: expected {expected}, got {_JSON_NAMES[type(value)]}")
    if isinstance(spec, list):
        for i, item in enumerate(value):
            _check_doc(item, spec[0], path, f"{where}[{i}]")
    elif isinstance(spec, dict) and str in spec:
        for key, item in value.items():
            _check_doc(item, spec[str], path, f"{where}.{key}")
    elif isinstance(spec, dict):
        for field, item_spec in spec.items():
            name = field.rstrip("?")
            if name in value:
                _check_doc(value[name], item_spec, path, f"{where}.{name}" if where else name)
            elif name == field:
                raise SchemaError(f"{at}: missing field {name!r}")


def _load_report(path: Path) -> tuple[dict, Path]:
    if path.is_dir():
        path = path / "report.json"
    if not path.is_file():
        raise FileNotFoundError(f"no report document at {path}")
    doc = json.loads(path.read_text())
    _check_doc(doc, _REPORT, path)
    for label, values in doc["availability_per_run"].items():
        if not values:
            raise SchemaError(f"{path}: availability_per_run.{label}: expected a non-empty array")
    return doc, path.parent


def _load_stored_dataset(doc: dict, label: str, root: Path):
    rows = doc["datasets"].get(label)
    if not rows:
        raise ValueError(f"report has no stored dataset {label!r}")
    paths = []
    for row in rows:
        if "trace" not in row:
            raise ValueError(f"stored run {row.get('run_id')!r} lacks a trace path")
        paths.append(root / row["trace"])
    return load_dataset(paths)


def _differences(recorded: dict, fresh) -> list[str]:
    """Each field on which a recorded result and a fresh one differ, as
    ``field: recorded != fresh``; floats compare to a relative 1e-9."""
    live = smc_result_to_dict(fresh)
    out = []
    for key in ("verdict", "n_used", "rank", "p_value", "bound", "coverage"):
        a, b = recorded.get(key), live.get(key)
        if key in ("verdict", "n_used", "rank") or a is None or b is None:
            same = a == b
        else:
            same = math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        if not same:
            out.append(f"{key}: {a} != {b}")
    return out


def _shift_test(dataset, ast, name: str):
    """The shift test, with its small-shift control group, of a property
    ``shift(A, param=P, by=X) -> fail(B) within next_check`` at ``> p0``."""
    query = ast.body
    if not (isinstance(query, CondQuery) and query.trigger.kind == "shift"):
        raise SchemaError(f"{name}: only a shift test has a control group")
    trigger = query.trigger
    return param_shift_failure_test(
        dataset, trigger.node, trigger.arg("param"), trigger.arg("by"), query.response.node, query.probability, ast.C
    )


def _reproduce(doc: dict, root: Path) -> list[str]:
    """Re-evaluate every embedded property on the stored traces."""
    scenario = doc["scenario"]
    label = EVIDENCE_DATASET.get(scenario)
    if label is None:
        raise ValueError(f"unknown scenario {scenario!r} in report")
    dataset = _load_stored_dataset(doc, label, root)
    mismatches: list[str] = []
    # each distinct evaluation's fresh result, None when it has no samples:
    # exp2's merge recommendation and its shift test store one property
    results: dict[tuple[str, str, bool], object] = {}

    def check_one(name: str, text: str, recorded: dict) -> None:
        # a recorded bare bound means the one-sided lower form was used
        side = LOWER if "bound" in recorded and "interval" not in recorded else TWO_SIDED
        key = (text, side, "control" in recorded)
        if key not in results:
            ast = parse_property(text)
            try:
                if "control" in recorded:
                    results[key] = _shift_test(dataset, ast, name)
                else:
                    results[key] = evaluate_property(dataset, ast, interval_side=side)
            except (NoSamplesError, InsufficientDataError):
                results[key] = None
        fresh = results[key]
        if fresh is None:
            if recorded.get("verdict") == INSUFFICIENT_DATA:
                print(f"ok: {name}")
                return
            mismatches.append(f"{name}: fresh evaluation has no samples")
            return
        compared = [(name, _differences(recorded, fresh))]
        if "control" in recorded:
            compared.append((f"{name}.control", _differences(recorded["control"], fresh.control)))
        found = [f"{where}: {'; '.join(diffs)}" for where, diffs in compared if diffs]
        mismatches.extend(found)
        if not found:
            print(f"ok: {name}")

    for rec in doc["recommendations"]:
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
    _print_summary(doc)
    mismatches: list[str] = []
    if ns.reproduce:
        mismatches = _reproduce(doc, root)
        for m in mismatches:
            print(f"MISMATCH {m}", file=sys.stderr)
        print("reproduction: " + ("ok" if not mismatches else f"{len(mismatches)} mismatch(es)"))
    code = 1 if mismatches else 0
    _emit_json(_report_record("report", doc, reproduced=ns.reproduce, mismatches=mismatches, exit_code=code))
    return code


# --- argument parsing ---


def _positive_int(text: str) -> int:
    """argparse type of the counts: ``--cycles``, ``--runs``, ``--jobs``,
    ``--window`` and ``--hf-timeout``."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _open_interval(lo: float, hi: float):
    """argparse type of a number in (lo, hi): ``--p0`` in (0, 1), and
    ``--confidence`` in (0.5, 1), the range of a property's ``C``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"expected a number in ({lo:g}, {hi:g}), got {text!r}")
        return value

    return parse


_probability = _open_interval(0.0, 1.0)
_confidence = _open_interval(0.5, 1.0)


# each experiment command: its config class, packaged graph, runner, help
# line and own flags; a flag's dest is the config field it sets, and
# scan takes exp3's scan flags
_SET = {"dest": "overrides", "action": "append", "metavar": "KEY=VALUE"}
_P0, _CONFIDENCE = ("--p0", {"type": _probability}), ("--confidence", {"type": _confidence})
_SCAN_FLAGS = (("--window", {"type": _positive_int}), _P0, _CONFIDENCE)
_EXPERIMENTS = {
    "exp1": (Exp1Config, "xgate", lambda cfg, graph: run_delayed_checks_experiment(graph, cfg),
             "delayed-checks experiment (baseline/hf/adaptive)",
             (("--hf-timeout", {"type": _positive_int}), _CONFIDENCE,
              ("--set", {**_SET, "help": "config field override, repeatable"}))),
    "exp2": (Exp2Config, "internode", run_internode_experiment,
             "inter-node coupling experiment (shift test + merge)",
             (("--rel-shift", {"type": float}), _P0, _CONFIDENCE,
              ("--no-coupling", {"dest": "coupling", "action": "store_false", "help": "strip cross-node observable terms"}),
              ("--set", _SET))),
    "exp3": (Exp3Config, "hidden", run_hidden_dependency_experiment,
             "hidden-dependency experiment (scan + added edge)", (*_SCAN_FLAGS, ("--set", _SET))),
}


def _add_sim_args(p) -> None:
    """The seed block's flags; their dests are its field names."""
    p.add_argument("--cycles", dest="total_cycles", metavar="CYCLES", type=_positive_int, help="cycles per run")
    p.add_argument("--runs", dest="n_runs", metavar="RUNS", type=_positive_int, help="number of independent runs")
    p.add_argument("--seed", type=int, default=None, help="base seed; runs use seed..seed+N-1 (default: $SPAQ_SEED or 0)")
    p.add_argument("--jobs", type=_positive_int, help="parallel workers for independent runs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spaq",
        description=__doc__.splitlines()[0],
        epilog="The last stdout line of every subcommand is a JSON record.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # a command that builds a seed block takes a config field's default
    # for each flag it is not given
    seeded = {"argument_default": argparse.SUPPRESS}

    p = sub.add_parser("simulate", help="run the scheduler simulator and write traces", **seeded)
    p.add_argument("--config", default=None, help="graph config YAML (default: packaged --builtin)")
    p.add_argument("--builtin", choices=_BUILTINS, default="xgate", help="packaged graph config")
    _add_sim_args(p)
    p.set_defaults(n_runs=1)
    p.add_argument("--mode", choices=_MODES, default=BASELINE)
    p.add_argument("--hf-timeout", type=_positive_int, default=4, help="timeout override in high_frequency mode")
    p.add_argument("--no-oracle", dest="oracle", action="store_false", default=True, help="skip ground-truth oracle events")
    p.add_argument("-o", "--outdir", default="spaq_traces", help="trace output directory")

    p = sub.add_parser("check", help="evaluate one property against trace files")
    p.add_argument("--traces", nargs="+", required=True, help="trace files or directories")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--property", dest="property_text", help="property text")
    grp.add_argument("--property-file", help="file containing the property text")
    p.add_argument("--delta", type=float, default=None, help="indifference half-width (sequential test)")
    p.add_argument("--side", choices=(LOWER, UPPER, TWO_SIDED), default=TWO_SIDED, help="ci-mode bound side")

    p = sub.add_parser("scan", help="pairwise co-failure scan over traces or fresh runs", **seeded)
    p.add_argument("--traces", nargs="*", default=(), help="existing trace files or directories")
    p.add_argument("--config", default=None, help="graph config YAML to simulate when no traces given")
    p.add_argument("--builtin", choices=_BUILTINS, default="hidden")
    _add_sim_args(p)
    p.set_defaults(n_runs=5)
    for flag, kwargs in _SCAN_FLAGS:
        p.add_argument(flag, **kwargs)
    p.add_argument("-o", "--outdir", default="spaq_scan", help="output directory")

    for name, (_, builtin, _, summary, flags) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=summary, **seeded)
        p.add_argument("--config", default=None, help=f"graph config YAML (default: packaged {builtin})")
        _add_sim_args(p)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("-o", "--outdir", default=f"spaq_{name}")

    p = sub.add_parser("report", help="print a stored experiment report; optionally re-verify it")
    p.add_argument("path", help="report directory or report.json path")
    p.add_argument("--reproduce", action="store_true",
                   help="re-evaluate every embedded property on the stored traces; a mismatch "
                        "lists each differing field as 'field: recorded != fresh'")
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "scan": cmd_scan,
    **dict.fromkeys(_EXPERIMENTS, cmd_experiment),
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
