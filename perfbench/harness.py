"""Set-up, timed passes, tracing and reporting for one benchmark run.

Imported by ``run.py`` once spaq has been loaded from this checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy

from checks import Gate
from layers import MODELLED, layer_metrics, wrapped
from spans import Recorder, beyond, patched, percentile, tail_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
SETUPS = 3  # set-up repetitions; setup_s is the import time plus their median


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


class CheckProbe:
    """Latency of each property check, its parse plus its evaluation,
    grouped by timed pass."""

    NAMESPACES = ("spaq", "spaq.experiments")

    def __init__(self) -> None:
        self.passes: list[list[float]] = [[]]
        self._parse_s = 0.0

    def next_pass(self) -> None:
        self.passes.append([])

    def percentile(self, q: float) -> float:
        """Median over passes of each pass's q-th percentile: the machine's
        speed drifts over seconds, so a percentile pooled across passes
        would mostly tell which pass ran in the slowest phase."""
        return median(percentile(p, q) for p in self.passes if p)

    def patches(self):
        out = []
        for ns in self.NAMESPACES:
            module = importlib.import_module(ns)
            out.append((ns, "parse_property", self._parse(module.parse_property)))
            out.append((ns, "evaluate_property", self._evaluate(module.evaluate_property)))
        return out

    def _parse(self, fn):
        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._parse_s += time.perf_counter() - t

        return timed

    def _evaluate(self, fn):
        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.passes[-1].append(self._parse_s + time.perf_counter() - t)
                self._parse_s = 0.0

        return timed


class Bench:
    """One workload at one seed: set-up, timed passes, correctness gate."""

    def __init__(self, workload, seed: int, seconds: float, reference: dict | None, work: Path) -> None:
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.gate = Gate(reference)
        self.inputs = None
        self.setup_s: list[float] = []

    def setup(self, repeats: int, patches=()) -> None:
        for i in range(repeats):
            with patched(patches):
                t = time.perf_counter()
                self.inputs = self.wl.setup(self.seed, self.work / f"setup{i}")
                self.setup_s.append(time.perf_counter() - t)
        self.wl.check_setup(self.gate, self.inputs)

    def passes(self, seconds: float, patches=(), after=None) -> list[float]:
        """Timed passes until about ``seconds`` of pass time; at least one.
        The last pass starts only if at least half of it fits."""
        times: list[float] = []
        while not times or sum(times) + times[-1] / 2 < seconds:
            outdir = self.work / "pass"
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir(parents=True)
            try:
                with patched(patches):
                    t = time.perf_counter()
                    out = self.wl.run_pass(self.inputs, outdir)
                    times.append(time.perf_counter() - t)
            except Exception as exc:  # a failed operation is reported, not fatal
                self.gate.raised(f"pass {len(times) + 1}", exc)
                break
            if after is not None:
                after()
            self.wl.check(self.gate, self.inputs, out)
            del out  # so that two passes' outputs never share the peak
        return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(bench: Bench, import_s: float) -> tuple[dict, dict, list[str]]:
    """The gated end-to-end metrics, plus check latencies that are only
    printed: a workload making few checks per pass gives them no steady
    value (see ``mapping.json``)."""
    bench.setup(SETUPS)
    probe = CheckProbe()
    times = bench.passes(bench.seconds, probe.patches(), after=probe.next_pass)
    n = len(probe.passes[0])
    setup_med = median(bench.setup_s)
    tail = f"p{tail_percentile(n):g}" if tail_percentile(n) else "none"
    metrics = {
        "wall_s": _metric(median(times), "s"),
        "setup_s": _metric(import_s + setup_med, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    printed = {
        "check_p50_ms": _metric(probe.percentile(50) * 1e3, "ms"),
        "check_p90_ms": _metric(probe.percentile(90) * 1e3, "ms"),
    }
    notes = [
        f"wall_s: median of {len(times)} timed passes: {', '.join(f'{t:.3f}' for t in times)} s",
        f"setup_s: import {import_s:.3f} s + median of {len(bench.setup_s)} set-ups ({setup_med:.3f} s)",
        "peak_rss_mb: peak resident set of this process, set-up included",
        f"check_p50_ms, check_p90_ms: parse + evaluate, median over {len(times)} passes of {n} checks each;"
        f" {beyond(n, 90)} lie beyond a pass's p90, and the highest percentile with ten beyond it is {tail}",
    ]
    return metrics, printed, notes


def run_traced(bench: Bench) -> tuple[dict, list[str], list]:
    """Per-layer metrics: median over traced passes. Untraced passes
    alternate with them, as the baseline of the tracing overhead."""
    rec = Recorder()
    bench.setup(1, wrapped(rec))
    setup_spans = rec.take()
    per_pass: list[dict] = []
    spans: list = []

    def collect():
        pass_spans = rec.take()
        spans.append(pass_spans)
        per_pass.append(layer_metrics(setup_spans, pass_spans) | {"tracing.spans": len(pass_spans)})

    plain: list[float] = []
    traced: list[float] = []
    while not traced or sum(plain) + sum(traced) + (plain[-1] + traced[-1]) / 2 < bench.seconds:
        plain += bench.passes(0)
        traced += bench.passes(0, wrapped(rec), after=collect)
        if bench.gate.failed:
            break
    values = {k: median(p[k] for p in per_pass) for k in per_pass[0]} if per_pass else {}
    values["tracing.overhead_s"] = median(traced) - median(plain) if traced and plain else 0.0
    notes = [f"per-layer metrics: median of {len(per_pass)} traced passes, alternating with {len(plain)} untraced ones"]
    for key in MODELLED:
        seen = sorted({p[key] for p in per_pass})
        if seen:
            problem = f"differs between passes: {seen}" if len(seen) > 1 else None
            bench.gate.op(f"modelled:{key}", seen[0], problem)
    return values, notes, [setup_spans] + spans


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_one(args, import_s: float) -> int:
    mapping = json.loads((HERE / "mapping.json").read_text())
    ref_path = HERE / "references.json"
    refs = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    wl = WORKLOADS[args.workload]
    at_default = args.seed == mapping["default_seed"]
    ref = refs.get(wl.name, {}) if at_default and not args.write_references else None
    reference = None
    if ref is not None:
        reference = dict(ref.get("ops", {}))
        if args.trace:
            reference.update({f"modelled:{k}": v for k, v in ref.get("modelled", {}).items()})

    work = WORK / f"{wl.name}-{os.getpid()}"
    bench = Bench(wl, args.seed, args.seconds, reference, work)
    spans = None
    printed: dict = {}
    try:
        if args.trace:
            values, notes, spans = run_traced(bench)
            units = per_layer_units()
            metrics = {name: _metric(values.get(name, 0.0), unit) for name, unit in units.items()}
        else:
            metrics, printed, notes = run_untraced(bench, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    gate = bench.gate
    gate.finish()

    if args.write_references:
        refs[wl.name] = {
            "ops": {k: v for k, v in gate.seen.items() if not k.startswith("modelled:")},
            "modelled": {k: metrics[k]["value"] for k in MODELLED},
        }
        ref_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    env = environment()
    correct = gate.failed == 0
    result = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = result | {"printed": printed, "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                       "env": env, "notes": notes, "failures": gate.failures}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        rows = [[[s.name, s.start, s.end, s.parent] for s in group] for group in spans]
        (OUT / f"{stem}-spans.json").write_text(json.dumps({"setup": rows[0], "passes": rows[1:]}))

    for line in gate.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{wl.name} seed={args.seed} trace={args.trace}  env {json.dumps(env)}")
    for name, m in (metrics | printed).items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"  {'failed_frac':28s} {frac:14.6g}  ({gate.failed} of {gate.attempted} operations)")
    for note in notes:
        print(f"  {note}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(import_s: float, argv=None) -> int:
    mapping = json.loads((HERE / "mapping.json").read_text())
    p = argparse.ArgumentParser(description="spaq benchmark; see run.py")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=mapping["default_seed"])
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-references", action="store_true", help="store the outputs at the default seed as the new references")
    args = p.parse_args(argv)
    if args.write_references:
        args.trace = 1  # the references hold the modelled statistics too
    if args.workload == "all":
        return run_all(args)
    return run_one(args, import_s)
