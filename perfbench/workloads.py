"""The three workloads. Each loads a different layer of spaq.

Every call into spaq goes through an attribute of the ``spaq`` package,
looked up at call time, so the traced run can wrap it.

* ``pipeline_xgate``: the release-gate pipeline (simulate with tracking
  off, write every trace, read the pool back, a ttf bound, one
  conditional, the 30-pair scan, availability). Long clock jumps in the
  simulator do most of the work.
* ``exp1_hf_oracle``: the delayed-checks experiment with ground-truth
  tracking on, then its report. The high-frequency phase makes many short
  clock advances, so a simulator change that helps long jumps but costs
  short advances shows here and not in the pipeline.
* ``analysis_replay``: set-up simulates and writes a pool; the timed pass
  only reads it back and analyses it, so a simulator change should move
  only this workload's set-up time.
"""

from __future__ import annotations

from pathlib import Path

import spaq
from checks import Gate, file_sha, result_fingerprint, roundtrip_problem, run_digest, verdict_problem

XGATE = "xgate"
# run seeds of workload seed s are s*SEED_STRIDE, s*SEED_STRIDE+1, ...
SEED_STRIDE = 1000


def _seeds(seed: int, n: int) -> range:
    return range(seed * SEED_STRIDE, seed * SEED_STRIDE + n)


def _load_xgate():
    return spaq.load_graph(spaq.builtin_config_path(XGATE))


def _evaluate(dataset, text: str):
    # parsing is part of what a `spaq check` user waits for
    return spaq.evaluate_property(dataset, spaq.parse_property(text), interval_side=spaq.LOWER)


def _check_results(gate: Gate, results) -> None:
    for text, result in results:
        gate.op(f"eval:{text}", result_fingerprint(result), verdict_problem(text, result))


def _check_scan(gate: Gate, matrix) -> None:
    _check_results(gate, [(cell.property_text, cell.result) for cell in matrix.cells.values()])


class PipelineXgate:
    name = "pipeline_xgate"
    why = "release-gate pipeline: simulate with tracking off and long clock jumps, write and read every trace, then analyse"
    n_runs = 6
    cycles = 15_000
    properties = (
        "ci ttf(x_gate, anchor=calibration) @ F=0.05 C=0.95",
        "test prob[fail(drive_frequency) -> fail(x_gate) within 25] > 0.1 @ C=0.9",
    )

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"graph": _load_xgate(), "seeds": _seeds(seed, self.n_runs)}

    def run_pass(self, inputs: dict, outdir: Path) -> dict:
        graph = inputs["graph"]
        ds = spaq.run_batch(graph, self.cycles, inputs["seeds"], oracle=False, run_prefix="pipe")
        paths = []
        for run in ds.runs:
            path = outdir / f"{run.meta.run_id}.jsonl"
            spaq.write_trace(path, run)
            paths.append(path)
        pooled = spaq.load_dataset(paths)
        results = [(text, _evaluate(pooled, text)) for text in self.properties]
        matrix = spaq.pairwise_cofailure_scan(pooled, window=25, p0=0.33, C=0.90)
        avail = [spaq.availability(run, graph=graph).availability for run in pooled.runs]
        return {"ds": ds, "paths": paths, "pooled": pooled, "results": results, "matrix": matrix, "avail": avail}

    def check_setup(self, gate: Gate, inputs: dict) -> None:
        pass

    def check(self, gate: Gate, inputs: dict, out: dict) -> None:
        for run, path, back, avail in zip(out["ds"].runs, out["paths"], out["pooled"].runs, out["avail"]):
            rid = run.meta.run_id
            gate.op(f"sim:{rid}", {"digest": run_digest(run), "availability": avail})
            gate.op(f"write:{rid}", file_sha(path))
            gate.op(f"read:{rid}", run_digest(back), None if back == run else "read differs from the run written")
        _check_results(gate, out["results"])
        _check_scan(gate, out["matrix"])


class Exp1HfOracle:
    name = "exp1_hf_oracle"
    why = "delayed-checks experiment with ground-truth tracking on: many short clock advances, then the report write"
    # short passes, so that a run's median spans many of them; at this size
    # no node has the 59 ttf samples a bound needs, and every delay is 0
    n_runs = 2
    cycles = 5_000

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = spaq.Exp1Config(total_cycles=self.cycles, n_runs=self.n_runs, seed=seed * SEED_STRIDE, jobs=1)
        return {"graph": _load_xgate(), "cfg": cfg}

    def run_pass(self, inputs: dict, outdir: Path) -> dict:
        report = spaq.run_delayed_checks_experiment(inputs["graph"], inputs["cfg"])
        spaq.write_report(report, outdir)
        return {"report": report, "outdir": outdir}

    def check_setup(self, gate: Gate, inputs: dict) -> None:
        pass

    def check(self, gate: Gate, inputs: dict, out: dict) -> None:
        report, outdir = out["report"], out["outdir"]
        for label, ds in report.datasets.items():
            for run, avail in zip(ds.runs, report.availability_per_run[label]):
                rid = f"{label}/{run.meta.run_id}"
                path = outdir / "traces" / label / f"{run.meta.run_id}.jsonl"
                gate.op(f"sim:{rid}", {"digest": run_digest(run), "availability": avail})
                gate.op(f"write:{rid}", file_sha(path), roundtrip_problem(path, run))
        gate.op("write:report.json", file_sha(outdir / "report.json"))
        for rec in report.recommendations:
            fp = result_fingerprint(rec.result) | {"delay": rec.payload["delay"]}
            gate.op(f"eval:{rec.property_text}", fp, verdict_problem(rec.property_text, rec.result))


METRIC_FORMS = (
    "ci ttf({n}) @ F=0.05 C=0.95",
    "ci ttf({n}, anchor=calibration) @ F=0.05 C=0.95",
    "ci ttf({n}, oracle=true) @ F=0.05 C=0.95",
    "test failures({n}, window=500) < 2 @ F=0.5 C=0.9",
    "ci param({n}, name={p}, when=after) @ F=0.5 C=0.9",
    "test time_between({n}, event=calibrate) > 100 @ F=0.1 C=0.9",
    "test time_between({n}, event=fail) > 100 @ F=0.1 C=0.9",
    "test pct_time({n}, op=check_data) < 0.05 @ F=0.5 C=0.9",
    "test pct_time({n}, op=calibrate) < 0.05 @ F=0.5 C=0.9",
)
PAIR_FORMS = (
    "test prob[fail({z}) -> fail({y}) within next_check] > 0.33 @ C=0.9",
    "test prob[shift({z}, param={p}, by=0.1) -> fail({y}) within next_check] > 0.33 @ C=0.9",
)


def property_suite(graph) -> list[str]:
    """Every metric kind per node, and both conditionals per ordered pair."""
    param = {n.id: sorted(n.param_map)[0] for n in graph.nodes}
    nodes = sorted(param)
    suite = [form.format(n=n, p=param[n]) for n in nodes for form in METRIC_FORMS]
    suite += [
        form.format(z=z, y=y, p=param[z])
        for z in nodes for y in nodes if y != z for form in PAIR_FORMS
    ]
    return suite


class AnalysisReplay:
    name = "analysis_replay"
    why = "set-up simulates and writes an oracle-on pool; the timed pass only reads it and runs 114 properties, the scan and availability"
    n_runs = 4
    cycles = 10_000

    def setup(self, seed: int, workdir: Path) -> dict:
        graph = _load_xgate()
        ds = spaq.run_batch(graph, self.cycles, _seeds(seed, self.n_runs), oracle=True, run_prefix="pool")
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for run in ds.runs:
            path = workdir / f"{run.meta.run_id}.jsonl"
            spaq.write_trace(path, run)
            paths.append(path)
        return {"graph": graph, "runs": ds.runs, "paths": paths, "suite": property_suite(graph)}

    def run_pass(self, inputs: dict, outdir: Path) -> dict:
        graph = inputs["graph"]
        pooled = spaq.load_dataset(inputs["paths"])
        results = [(text, _evaluate(pooled, text)) for text in inputs["suite"]]
        matrix = spaq.pairwise_cofailure_scan(pooled, window=25, p0=0.33, C=0.90)
        avail = [spaq.availability(run, graph=graph).availability for run in pooled.runs]
        return {"pooled": pooled, "results": results, "matrix": matrix, "avail": avail}

    def check_setup(self, gate: Gate, inputs: dict) -> None:
        for run, path in zip(inputs["runs"], inputs["paths"]):
            rid = run.meta.run_id
            gate.op(f"sim:{rid}", run_digest(run))
            gate.op(f"write:{rid}", file_sha(path))

    def check(self, gate: Gate, inputs: dict, out: dict) -> None:
        for run, back, avail in zip(inputs["runs"], out["pooled"].runs, out["avail"]):
            problem = None if back == run else "read differs from the run written"
            gate.op(f"read:{run.meta.run_id}", {"digest": run_digest(back), "availability": avail}, problem)
        _check_results(gate, out["results"])
        _check_scan(gate, out["matrix"])


WORKLOADS = {w.name: w for w in (PipelineXgate(), Exp1HfOracle(), AnalysisReplay())}
