"""End-to-end maintenance experiments: run, analyse, rewrite, compare.

Three workflows share one recipe: simulate a graph over a block of
seeds, pool the traces, evaluate properties against the pool, rewrite
the graph accordingly, and rerun the same seeds to measure the
availability change.

* delayed checks: a high-frequency phase collects time-to-failure
  samples; each node's recommended post-calibration delay is the lower
  confidence bound on its 5th-percentile TTF, and the rewritten graph
  defers post-calibration checks by that amount.
* inter-node coupling: tests whether large calibration shifts of one
  node's parameter make a second node fail its next check, with a
  small-shift control group to rule out generic failure, then merges
  the pair into one jointly calibrated node.
* hidden dependencies: scans every ordered node pair for co-failure
  within a window and adds a dependency edge from the flagged pair's
  longer-timeout node to its shorter-timeout one.

Scenario comparisons are matched by seed: parameter drift, calibration
residuals, and measurement noise come from per-node substreams keyed
only by (seed, stream tag), so availability deltas are paired
differences, not resampling noise. Reports carry the datasets they
were computed from plus the property string behind every
recommendation, making each verdict reproducible offline.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

from .errors import CycleError, NoSamplesError
from .extractors import _condition_samples, _matches, calibration_shift, evaluate_property
from .graph import (
    GraphSpec,
    NodeSpec,
    add_edge,
    builtin_config_path,
    load_graph,
    merge_nodes,
    merged_node_spec,
    validate_graph,
    with_delays,
)
from .properties import parse_property
from .sim import ADAPTIVE, BASELINE, HIGH_FREQUENCY, SimConfig, availability, run_simulation
from .smc import HOLDS, INSUFFICIENT_DATA, LOWER, UPPER, SmcConfig, SmcResult, exact_binomial_test
from .trace import CALIBRATE, Dataset, Run, merge_runs, write_trace

# the delay recommendation targets the 5th-percentile time to failure
RECOMMEND_F = 0.05

DELAYED_CHECKS = "delayed_checks"
INTERNODE_COUPLING = "internode_coupling"
HIDDEN_DEPENDENCY = "hidden_dependency"


# --- configs ---


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _check_common(cfg) -> None:
    _require(cfg.total_cycles >= 1, f"total_cycles must be >= 1, got {cfg.total_cycles}")
    _require(cfg.n_runs >= 1, f"n_runs must be >= 1, got {cfg.n_runs}")
    _require(cfg.jobs >= 1, f"jobs must be >= 1, got {cfg.jobs}")
    _require(0.5 < cfg.confidence < 1.0, f"confidence must be in (0.5, 1), got {cfg.confidence}")


@dataclass(frozen=True)
class Exp1Config:
    """Delayed-checks experiment: sampling phase plus rewrite."""

    total_cycles: int = 10_000
    n_runs: int = 20
    seed: int = 0
    jobs: int = 1
    hf_timeout: int = 4
    confidence: float = 0.95

    def __post_init__(self) -> None:
        _check_common(self)
        _require(self.hf_timeout >= 1, f"hf_timeout must be >= 1, got {self.hf_timeout}")


@dataclass(frozen=True)
class Exp2Config:
    """Inter-node shift-coupling experiment on an isolated node pair."""

    total_cycles: int = 10_000
    n_runs: int = 20
    seed: int = 0
    jobs: int = 1
    node_a: str = "A"
    param: str = "param_A"
    node_b: str = "B"
    rel_shift: float = 0.10
    p0: float = 0.33
    confidence: float = 0.95
    coupling: bool = True

    def __post_init__(self) -> None:
        _check_common(self)
        _require(self.rel_shift > 0.0, f"rel_shift must be > 0, got {self.rel_shift}")
        _require(0.0 < self.p0 < 1.0, f"p0 must be in (0,1), got {self.p0}")


@dataclass(frozen=True)
class Exp3Config:
    """Hidden-dependency experiment: co-failure scan plus added edge."""

    total_cycles: int = 10_000
    n_runs: int = 20
    seed: int = 0
    jobs: int = 1
    window: int = 25
    p0: float = 0.33
    confidence: float = 0.90

    def __post_init__(self) -> None:
        _check_common(self)
        _require(self.window >= 1, f"window must be >= 1, got {self.window}")
        _require(0.0 < self.p0 < 1.0, f"p0 must be in (0,1), got {self.p0}")


# --- batched simulation ---


def _sim_job(args: tuple[GraphSpec, SimConfig, str]) -> Run:
    graph, cfg, run_id = args
    return run_simulation(graph, cfg, run_id=run_id)


def run_batch(
    graph: GraphSpec,
    total_cycles: int,
    seeds,
    *,
    mode: str = BASELINE,
    hf_timeout: int | None = None,
    oracle: bool = True,
    run_prefix: str = "run",
    jobs: int = 1,
) -> Dataset:
    """Simulate one graph over many seeds and pool the runs.

    Run ids are ``{run_prefix}-{seed}``; only independent runs execute
    in parallel, so results are identical for any ``jobs`` value.
    """
    args = [
        (
            graph,
            SimConfig(
                total_cycles=total_cycles,
                seed=s,
                mode=mode,
                hf_timeout=hf_timeout,
                oracle_ttf=oracle,
            ),
            f"{run_prefix}-{s}",
        )
        for s in seeds
    ]
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(_sim_job, args))
    else:
        runs = [_sim_job(a) for a in args]
    return merge_runs(runs)


def _availability_stats(ds: Dataset, graph: GraphSpec) -> tuple[tuple[float, ...], dict]:
    """Per-run availabilities plus mean per-node cost cycles per run."""
    per_run: list[float] = []
    totals: dict[str, dict[str, int]] = {}
    for run in ds.runs:
        rep = availability(run, graph=graph)
        per_run.append(rep.availability)
        for node, row in rep.per_node_cost.items():
            acc = totals.setdefault(node, {"check_cycles": 0, "calibrate_cycles": 0})
            for k, v in row.items():
                acc[k] += v
    n = max(len(ds.runs), 1)
    mean_cost = {
        node: {k: v / n for k, v in row.items()} for node, row in sorted(totals.items())
    }
    return tuple(per_run), mean_cost


# --- report types ---


@dataclass(frozen=True)
class Recommendation:
    """One proposed scheme change and the statistical evidence for it."""

    kind: str  # "delay" | "merge" | "edge"
    target: str
    payload: dict
    property_text: str
    result: SmcResult


@dataclass(frozen=True)
class MatrixCell:
    verdict: str
    property_text: str
    result: SmcResult


@dataclass(frozen=True)
class VerdictMatrix:
    """Ordered-pair co-failure verdicts, diagonal excluded.

    ``cells[(y, z)]`` answers "does y fail within the window after a
    failure of z"; (y, z) and (z, y) are independent queries.
    """

    nodes: tuple[str, ...]
    cells: dict[tuple[str, str], MatrixCell]

    def __post_init__(self) -> None:
        known = set(self.nodes)
        for y, z in self.cells:
            if y == z:
                raise ValueError(f"diagonal pair ({y!r}, {z!r}) is excluded")
            if y not in known or z not in known:
                raise ValueError(f"pair ({y!r}, {z!r}) references unknown nodes")

    def verdict(self, y: str, z: str) -> str:
        return self.cells[(y, z)].verdict

    def mutual_holds(self) -> list[tuple[str, str]]:
        """Unordered pairs flagged in both directions, sorted."""
        out = []
        for x, y in self.cells:
            if x < y and self.cells[(x, y)].verdict == HOLDS:
                rev = self.cells.get((y, x))
                if rev is not None and rev.verdict == HOLDS:
                    out.append((x, y))
        return sorted(out)


@dataclass(frozen=True)
class ShiftFailureResult(SmcResult):
    """Shift-coupling verdict plus its small-shift control group."""

    control: SmcResult | None = None
    property_text: str = ""
    control_description: str = ""

    @property
    def supports_merge(self) -> bool:
        """True iff large shifts predict failure and small ones do not."""
        return self.verdict == HOLDS and (self.control is None or self.control.verdict != HOLDS)


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment: availabilities, costs, evidence.

    ``availability_per_run`` and ``per_node_cost`` are keyed by scenario
    label; run order within a scenario follows the seed block, so equal
    indices across scenarios are matched pairs.
    """

    scenario: str
    availability_before: float
    availability_after: float
    availability_per_run: dict[str, tuple[float, ...]]
    per_node_cost: dict[str, dict[str, dict[str, float]]]
    recommendations: tuple[Recommendation, ...]
    datasets: dict[str, Dataset]
    matrix: VerdictMatrix | None = None
    shift_test: ShiftFailureResult | None = None

    def __post_init__(self) -> None:
        for label, value in (("before", self.availability_before), ("after", self.availability_after)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"availability_{label} must be in [0,1], got {value}")
        for rec in self.recommendations:
            if not isinstance(rec.result, SmcResult):
                raise ValueError(f"recommendation {rec.kind}:{rec.target} lacks a backing result")


# --- delay recommendation (experiment 1) ---


def recommend_delay_details(dataset: Dataset, C: float) -> tuple[Recommendation, ...]:
    """Per-node delay recommendation plus the bound (or insufficient-data
    note) behind it; ``payload["delay"]`` is the delay in cycles."""
    out = []
    for node in dataset.nodes():
        text = f"ci ttf({node}, anchor=calibration) @ F={RECOMMEND_F:g} C={C:g}"
        try:
            result = evaluate_property(dataset, parse_property(text), interval_side=LOWER)
        except NoSamplesError:
            result = SmcResult(verdict=INSUFFICIENT_DATA, n_used=0)
        delay = 0
        if result.verdict is None and result.bound is not None:
            delay = max(int(result.bound), 0)
        out.append(
            Recommendation(
                kind="delay", target=node, payload={"delay": delay}, property_text=text, result=result
            )
        )
    return tuple(out)


def recommend_delays(dataset: Dataset, C: float) -> dict[str, int]:
    """Post-calibration delay per node: the lower confidence bound on
    the 5th-percentile time to failure anchored at calibrations, floored
    to whole cycles; 0 where the bound cannot be formed."""
    return {r.target: r.payload["delay"] for r in recommend_delay_details(dataset, C)}


def run_delayed_checks_experiment(graph: GraphSpec, cfg: Exp1Config) -> ExperimentReport:
    """Baseline vs high-frequency vs delay-informed scheduling.

    The high-frequency phase supplies TTF samples; the rewritten graph
    applies ``recommend_delays`` as each node's post-calibration delay.
    All three scenarios run the same seed block.
    """
    seeds = range(cfg.seed, cfg.seed + cfg.n_runs)
    hf = run_batch(
        graph, cfg.total_cycles, seeds,
        mode=HIGH_FREQUENCY, hf_timeout=cfg.hf_timeout, run_prefix="hf", jobs=cfg.jobs,
    )
    recs = recommend_delay_details(hf, cfg.confidence)
    delayed_graph = with_delays(graph, {r.target: r.payload["delay"] for r in recs})

    base = run_batch(graph, cfg.total_cycles, seeds, run_prefix="baseline", jobs=cfg.jobs)
    adaptive = run_batch(
        delayed_graph, cfg.total_cycles, seeds,
        mode=ADAPTIVE, run_prefix="adaptive", jobs=cfg.jobs,
    )

    base_avail, base_cost = _availability_stats(base, graph)
    hf_avail, hf_cost = _availability_stats(hf, graph)
    adap_avail, adap_cost = _availability_stats(adaptive, delayed_graph)

    return ExperimentReport(
        scenario=DELAYED_CHECKS,
        availability_before=fmean(base_avail),
        availability_after=fmean(adap_avail),
        availability_per_run={
            "baseline": base_avail,
            "high_frequency": hf_avail,
            "adaptive": adap_avail,
        },
        per_node_cost={
            "baseline": base_cost,
            "high_frequency": hf_cost,
            "adaptive": adap_cost,
        },
        recommendations=recs,
        datasets={"baseline": base, "high_frequency": hf, "adaptive": adaptive},
    )


# --- shift coupling (experiment 2) ---


def param_shift_failure_test(
    dataset: Dataset,
    node_a: str,
    param: str,
    rel_shift: float,
    node_b: str,
    p0: float,
    C: float,
) -> ShiftFailureResult:
    """Do large calibration shifts of ``node_a.param`` make ``node_b``
    fail its next check with probability above ``p0``?

    The main test conditions on calibrations whose relative change in
    the parameter exceeds ``rel_shift``. A control group runs the same
    response query conditioned on the complementary small-shift
    calibrations; if the control also holds, failures of ``node_b``
    track calibrations of ``node_a`` generally rather than the shift.
    Raises NoSamplesError when the dataset has no calibrations of
    ``node_a`` at all.
    """
    has_cals = any(
        e.node == node_a and e.op == CALIBRATE for r in dataset.runs for e in r.events
    )
    if not has_cals:
        raise NoSamplesError(f"no calibrations of {node_a!r} in the dataset")
    text = (
        f"test prob[shift({node_a}, param={param}, by={rel_shift:g}) "
        f"-> fail({node_b}) within next_check] > {p0:g} @ C={C:g}"
    )
    ast = parse_property(text)
    main = evaluate_property(dataset, ast)
    query = ast.body

    def small_shift(e) -> bool:
        shift = calibration_shift(e, param) if e.node == node_a else None
        return shift is not None and shift <= rel_shift

    control_samples = _condition_samples(
        dataset, small_shift, node_b, lambda e: _matches(e, query.response), query.window
    )
    control = exact_binomial_test(
        list(control_samples.values), SmcConfig(F=p0, C=C, side=UPPER)
    )
    return ShiftFailureResult(
        verdict=main.verdict,
        n_used=main.n_used,
        p_value=main.p_value,
        control=control,
        property_text=text,
        control_description=(
            f"calibrate({node_a}) triggers with relative {param} change <= {rel_shift:g}, "
            f"same response and window, tested at F={p0:g} C={C:g}"
        ),
    )


def strip_cross_node_terms(graph: GraphSpec) -> GraphSpec:
    """Copy of the graph with every cross-node observable term removed.

    Disturbances and dependency edges stay; only the physical coupling
    channels between observables are cut, which is the control
    configuration for coupling experiments.
    """

    def strip(node: NodeSpec) -> NodeSpec:
        return node.map_terms(
            lambda terms: tuple(t for t in terms if t.node is None or t.node == node.id)
        )

    out = GraphSpec(nodes=tuple(strip(n) for n in graph.nodes), disturbances=graph.disturbances)
    validate_graph(out)
    return out


def run_internode_experiment(cfg: Exp2Config, graph: GraphSpec | None = None) -> ExperimentReport:
    """Shift-coupling test on an isolated pair, then a matched-seed
    comparison of the pair merged into one node.

    With ``cfg.coupling`` false the cross-node observable terms are
    stripped first; the merge recommendation is withheld unless the
    main test holds and the small-shift control does not.
    """
    if graph is None:
        graph = load_graph(builtin_config_path("internode"))
    if not cfg.coupling:
        graph = strip_cross_node_terms(graph)
    seeds = range(cfg.seed, cfg.seed + cfg.n_runs)

    before = run_batch(graph, cfg.total_cycles, seeds, run_prefix="unmerged", jobs=cfg.jobs)
    shift = param_shift_failure_test(
        before, cfg.node_a, cfg.param, cfg.rel_shift, cfg.node_b, cfg.p0, cfg.confidence
    )

    merged_id = f"{cfg.node_a}_{cfg.node_b}"
    merged_graph = merge_nodes(
        graph,
        cfg.node_a,
        cfg.node_b,
        merged_node_spec(graph.node(cfg.node_a), graph.node(cfg.node_b), merged_id),
    )
    after = run_batch(merged_graph, cfg.total_cycles, seeds, run_prefix="merged", jobs=cfg.jobs)

    before_avail, before_cost = _availability_stats(before, graph)
    after_avail, after_cost = _availability_stats(after, merged_graph)

    recs = ()
    if shift.supports_merge:
        recs = (
            Recommendation(
                kind="merge",
                target=f"{cfg.node_a}+{cfg.node_b}",
                payload={"nodes": [cfg.node_a, cfg.node_b], "merged_id": merged_id},
                property_text=shift.property_text,
                result=shift,
            ),
        )
    return ExperimentReport(
        scenario=INTERNODE_COUPLING,
        availability_before=fmean(before_avail),
        availability_after=fmean(after_avail),
        availability_per_run={"unmerged": before_avail, "merged": after_avail},
        per_node_cost={"unmerged": before_cost, "merged": after_cost},
        recommendations=recs,
        datasets={"unmerged": before, "merged": after},
        shift_test=shift,
    )


# --- hidden dependencies (experiment 3) ---


def pairwise_cofailure_scan(dataset: Dataset, window: int, p0: float, C: float) -> VerdictMatrix:
    """Test every ordered node pair: does the row node fail within
    ``window`` cycles of a column-node failure with probability above
    ``p0``? Diagonal excluded; directions are independent queries."""
    nodes = dataset.nodes()
    cells: dict[tuple[str, str], MatrixCell] = {}
    for y in nodes:
        for z in nodes:
            if y == z:
                continue
            text = f"test prob[fail({z}) -> fail({y}) within {window}] > {p0:g} @ C={C:g}"
            result = evaluate_property(dataset, parse_property(text))
            cells[(y, z)] = MatrixCell(verdict=result.verdict, property_text=text, result=result)
    return VerdictMatrix(nodes=nodes, cells=cells)


def run_hidden_dependency_experiment(cfg: Exp3Config, graph: GraphSpec | None = None) -> ExperimentReport:
    """Scan a baseline run block for co-failing pairs, mirror each
    flagged pair as a dependency edge, and rerun the same seeds.

    For a pair flagged in both directions the shorter-timeout node
    becomes the dependency (the longer-timeout node gains the edge);
    duplicate edges and edges that would create a cycle are withheld.
    """
    if graph is None:
        graph = load_graph(builtin_config_path("hidden"))
    seeds = range(cfg.seed, cfg.seed + cfg.n_runs)

    before = run_batch(graph, cfg.total_cycles, seeds, run_prefix="baseline", jobs=cfg.jobs)
    matrix = pairwise_cofailure_scan(before, cfg.window, cfg.p0, cfg.confidence)

    rewritten = graph
    recs: list[Recommendation] = []
    for x, y in matrix.mutual_holds():
        shorter, longer = sorted((x, y), key=lambda nid: (graph.node(nid).timeout, nid))
        try:
            rewritten = add_edge(rewritten, longer, shorter)
        except (ValueError, CycleError):
            continue
        cell = matrix.cells[(longer, shorter)]
        recs.append(
            Recommendation(
                kind="edge",
                target=f"{longer}->{shorter}",
                payload={
                    "dependent": longer,
                    "dependency": shorter,
                    "reverse_property": matrix.cells[(shorter, longer)].property_text,
                    "reverse_verdict": matrix.cells[(shorter, longer)].verdict,
                },
                property_text=cell.property_text,
                result=cell.result,
            )
        )

    after = run_batch(rewritten, cfg.total_cycles, seeds, run_prefix="with_edge", jobs=cfg.jobs)
    before_avail, before_cost = _availability_stats(before, graph)
    after_avail, after_cost = _availability_stats(after, rewritten)

    return ExperimentReport(
        scenario=HIDDEN_DEPENDENCY,
        availability_before=fmean(before_avail),
        availability_after=fmean(after_avail),
        availability_per_run={"baseline": before_avail, "with_edge": after_avail},
        per_node_cost={"baseline": before_cost, "with_edge": after_cost},
        recommendations=tuple(recs),
        datasets={"baseline": before, "with_edge": after},
        matrix=matrix,
    )


# --- serialization ---


def smc_result_to_dict(r: SmcResult) -> dict:
    out: dict = {"verdict": r.verdict, "n_used": r.n_used}
    for key in ("p_value", "bound", "rank", "coverage"):
        v = getattr(r, key)
        if v is not None:
            out[key] = v
    for key in ("interval", "ranks"):
        v = getattr(r, key)
        if v is not None:
            out[key] = list(v)
    if isinstance(r, ShiftFailureResult):
        out["property"] = r.property_text
        out["control_description"] = r.control_description
        if r.control is not None:
            out["control"] = smc_result_to_dict(r.control)
    return out


def _dataset_to_meta(ds: Dataset, paths: dict[str, str] | None) -> list[dict]:
    out = []
    for run in ds.runs:
        m = run.meta
        row = {
            "run_id": m.run_id,
            "seed": m.seed,
            "graph_hash": m.graph_hash,
            "mode": m.mode,
            "total_cycles": m.total_cycles,
        }
        if paths and m.run_id in paths:
            row["trace"] = paths[m.run_id]
        out.append(row)
    return out


def matrix_rows(matrix: VerdictMatrix) -> list[dict]:
    """One JSON record per ordered pair, sorted by (response, trigger)."""
    return [
        {
            "response": y,
            "trigger": z,
            "verdict": cell.verdict,
            "property": cell.property_text,
            "result": smc_result_to_dict(cell.result),
        }
        for (y, z), cell in sorted(matrix.cells.items())
    ]


def write_matrix_csv(matrix: VerdictMatrix, path: Path) -> None:
    """Plot-ready verdict table, one row per ordered pair, sorted."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["response", "trigger", "verdict", "n_used", "p_value"])
        for (y, z), cell in sorted(matrix.cells.items()):
            p = cell.result.p_value
            w.writerow([y, z, cell.verdict, cell.result.n_used, "" if p is None else f"{p:.6g}"])


def report_to_dict(report: ExperimentReport, trace_paths: dict[str, dict[str, str]] | None = None) -> dict:
    out: dict = {
        "scenario": report.scenario,
        "availability_before": report.availability_before,
        "availability_after": report.availability_after,
        "availability_per_run": {k: list(v) for k, v in report.availability_per_run.items()},
        "per_node_cost": report.per_node_cost,
        "recommendations": [
            {
                "kind": rec.kind,
                "target": rec.target,
                "payload": rec.payload,
                "property": rec.property_text,
                "result": smc_result_to_dict(rec.result),
            }
            for rec in report.recommendations
        ],
        "datasets": {
            label: _dataset_to_meta(ds, (trace_paths or {}).get(label))
            for label, ds in report.datasets.items()
        },
    }
    if report.matrix is not None:
        out["matrix"] = matrix_rows(report.matrix)
    if report.shift_test is not None:
        out["shift_test"] = smc_result_to_dict(report.shift_test)
    return out


def write_report(report: ExperimentReport, outdir: str | Path) -> dict[str, Path]:
    """Write the report document, its traces, and plot-ready CSV tables.

    Layout: ``report.json``, ``availability.csv`` (scenario, run, seed,
    availability), ``node_costs.csv`` (scenario, node, mean cycles), and
    for scan experiments ``matrix.csv``; traces go to
    ``traces/<scenario>/<run_id>.jsonl``.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    trace_paths: dict[str, dict[str, str]] = {}
    for label, ds in report.datasets.items():
        d = outdir / "traces" / label
        d.mkdir(parents=True, exist_ok=True)
        for run in ds.runs:
            p = d / f"{run.meta.run_id}.jsonl"
            write_trace(p, run)
            trace_paths.setdefault(label, {})[run.meta.run_id] = str(p.relative_to(outdir))

    report_path = outdir / "report.json"
    report_path.write_text(json.dumps(report_to_dict(report, trace_paths), indent=2) + "\n")
    paths["report"] = report_path

    avail_path = outdir / "availability.csv"
    with avail_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "run_id", "seed", "availability"])
        for label, values in report.availability_per_run.items():
            runs = report.datasets[label].runs
            for run, value in zip(runs, values):
                w.writerow([label, run.meta.run_id, run.meta.seed, f"{value:.6f}"])
    paths["availability"] = avail_path

    cost_path = outdir / "node_costs.csv"
    with cost_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "node", "check_cycles", "calibrate_cycles"])
        for label, table in report.per_node_cost.items():
            for node, row in table.items():
                w.writerow([label, node, f"{row['check_cycles']:.2f}", f"{row['calibrate_cycles']:.2f}"])
    paths["node_costs"] = cost_path

    if report.matrix is not None:
        paths["matrix"] = outdir / "matrix.csv"
        write_matrix_csv(report.matrix, paths["matrix"])
    return paths
