"""End-to-end maintenance experiments: run, analyse, rewrite, compare.

Three workflows share one recipe: simulate a graph over a block of
seeds, pool the traces, evaluate properties against the pool, rewrite
the graph accordingly, and rerun the same seeds to measure the
availability change. The recipe is written once: every config is a
seed block whose ``batch`` runs one scenario, and ``_report`` turns the
ordered scenarios into availabilities, costs and a before/after pair.

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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

from .errors import ConfigError, CycleError, NoSamplesError
from .extractors import _calibrated, _condition_samples, calibration_shifts, evaluate_property
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
from .trace import Dataset, Run, atomic_write, merge_runs, write_trace

# the delay recommendation targets the 5th-percentile time to failure
RECOMMEND_F = 0.05

DELAYED_CHECKS = "delayed_checks"
INTERNODE_COUPLING = "internode_coupling"
HIDDEN_DEPENDENCY = "hidden_dependency"

# the scenario whose dataset each experiment's properties are evaluated on
EVIDENCE_DATASET = {
    DELAYED_CHECKS: "high_frequency",
    INTERNODE_COUPLING: "unmerged",
    HIDDEN_DEPENDENCY: "baseline",
}


# --- configs ---


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@dataclass(frozen=True)
class _SeedBlock:
    """What every experiment shares: each scenario simulates the seeds
    ``seed..seed+n_runs-1`` for ``total_cycles`` cycles on up to ``jobs``
    worker processes, and every test runs at ``confidence``."""

    total_cycles: int = 10_000
    n_runs: int = 20
    seed: int = 0
    jobs: int = 1
    confidence: float = 0.95

    def __post_init__(self) -> None:
        _require(self.total_cycles >= 1, f"total_cycles must be >= 1, got {self.total_cycles}")
        _require(self.n_runs >= 1, f"n_runs must be >= 1, got {self.n_runs}")
        _require(self.jobs >= 1, f"jobs must be >= 1, got {self.jobs}")
        _require(0.5 < self.confidence < 1.0, f"confidence must be in (0.5, 1), got {self.confidence}")

    def batch(self, graph: GraphSpec, run_prefix: str, **kw) -> Dataset:
        """One scenario's runs over the seed block (``kw`` goes to ``run_batch``)."""
        seeds = range(self.seed, self.seed + self.n_runs)
        return run_batch(graph, self.total_cycles, seeds, run_prefix=run_prefix, jobs=self.jobs, **kw)


@dataclass(frozen=True)
class Exp1Config(_SeedBlock):
    """Delayed-checks experiment: sampling phase plus rewrite."""

    hf_timeout: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.hf_timeout >= 1, f"hf_timeout must be >= 1, got {self.hf_timeout}")


@dataclass(frozen=True)
class Exp2Config(_SeedBlock):
    """Inter-node shift-coupling experiment on an isolated node pair."""

    node_a: str = "A"
    param: str = "param_A"
    node_b: str = "B"
    rel_shift: float = 0.10
    p0: float = 0.33
    coupling: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.rel_shift > 0.0, f"rel_shift must be > 0, got {self.rel_shift}")
        _require(0.0 < self.p0 < 1.0, f"p0 must be in (0,1), got {self.p0}")


@dataclass(frozen=True)
class Exp3Config(_SeedBlock):
    """Hidden-dependency experiment: co-failure scan plus added edge."""

    window: int = 25
    p0: float = 0.33
    confidence: float = 0.90

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.window >= 1, f"window must be >= 1, got {self.window}")
        _require(0.0 < self.p0 < 1.0, f"p0 must be in (0,1), got {self.p0}")


# --- batched simulation ---


def _pool_context():
    """The start-method context of a parallel batch's workers.

    Workers fork where the platform allows it, as Linux pools did by
    default before Python 3.14, and spawn elsewhere: named, the start
    method no longer changes with the interpreter's default. Only a
    parallel batch calls it, and only such a batch imports the pool
    machinery (``multiprocessing``, ``concurrent.futures.process``), so
    a serial process never loads it.
    """
    import multiprocessing

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


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
    cfgs = [
        SimConfig(total_cycles=total_cycles, seed=s, mode=mode, hf_timeout=hf_timeout, oracle_ttf=oracle)
        for s in seeds
    ]
    args = [(graph, c, f"{run_prefix}-{c.seed}") for c in cfgs]
    if jobs > 1 and len(args) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs, mp_context=_pool_context()) as pool:
            runs = list(pool.map(_sim_job, args))
    else:
        runs = [_sim_job(a) for a in args]
    return merge_runs(runs)


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
        return mutual_pairs(pair for pair, cell in self.cells.items() if cell.verdict == HOLDS)


def mutual_pairs(held) -> list[tuple[str, str]]:
    """The pairs ``(x, y)``, ``x < y``, held in both directions, sorted."""
    held = set(held)
    return sorted((x, y) for x, y in held if x < y and (y, x) in held)


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
    indices across scenarios are matched pairs. ``availability_before``
    and ``availability_after`` are the means of the first and last
    scenario.
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


def _report(
    scenario: str, table: dict[str, tuple[GraphSpec, Dataset]], recommendations, **evidence
) -> ExperimentReport:
    """Report on ``table``'s scenarios, in order: each label maps to the
    graph it ran and its dataset. A node's cost is its mean cycles per run."""
    per_run, per_node_cost = {}, {}
    for label, (graph, ds) in table.items():
        reps = [availability(run, graph=graph) for run in ds.runs]
        totals: dict[str, Counter] = {}
        for rep in reps:
            for node, row in rep.per_node_cost.items():
                totals.setdefault(node, Counter()).update(row)
        per_run[label] = tuple(rep.availability for rep in reps)
        per_node_cost[label] = {
            node: {k: v / len(reps) for k, v in row.items()} for node, row in sorted(totals.items())
        }
    means = [fmean(values) for values in per_run.values()]
    return ExperimentReport(
        scenario=scenario,
        availability_before=means[0],
        availability_after=means[-1],
        availability_per_run=per_run,
        per_node_cost=per_node_cost,
        recommendations=tuple(recommendations),
        datasets={label: ds for label, (_, ds) in table.items()},
        **evidence,
    )


# --- delay recommendation (experiment 1) ---


def recommend_delay_details(dataset: Dataset, C: float) -> tuple[Recommendation, ...]:
    """Per-node delay recommendation plus the bound (or insufficient-data
    note) behind it. ``payload["delay"]`` is the delay in cycles: the
    lower confidence bound on the 5th-percentile time to failure anchored
    at calibrations, floored to whole cycles; 0 where the bound cannot be
    formed."""
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


def run_delayed_checks_experiment(graph: GraphSpec, cfg: Exp1Config) -> ExperimentReport:
    """Baseline vs high-frequency vs delay-informed scheduling.

    The high-frequency phase supplies TTF samples; the rewritten graph
    applies each ``recommend_delay_details`` delay as that node's
    post-calibration delay.
    All three scenarios run the same seed block.
    """
    hf = cfg.batch(graph, "hf", mode=HIGH_FREQUENCY, hf_timeout=cfg.hf_timeout)
    recs = recommend_delay_details(hf, cfg.confidence)
    delayed_graph = with_delays(graph, {r.target: r.payload["delay"] for r in recs})
    return _report(
        DELAYED_CHECKS,
        {
            "baseline": (graph, cfg.batch(graph, "baseline")),
            "high_frequency": (graph, hf),
            "adaptive": (delayed_graph, cfg.batch(delayed_graph, "adaptive", mode=ADAPTIVE)),
        },
        recs,
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
    if not _calibrated(dataset, node_a):
        raise NoSamplesError(f"no calibrations of {node_a!r} in the dataset")
    text = (
        f"test prob[shift({node_a}, param={param}, by={rel_shift:g}) "
        f"-> fail({node_b}) within next_check] > {p0:g} @ C={C:g}"
    )
    ast = parse_property(text)
    main = evaluate_property(dataset, ast)
    query = ast.body

    small_shifts = []
    for run in dataset.runs:
        times, shifts = calibration_shifts(run, node_a, param)
        small_shifts.append(times[shifts <= rel_shift])
    control_samples = _condition_samples(dataset, small_shifts, query.response, query.window)
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
    before = cfg.batch(graph, "unmerged")
    shift = param_shift_failure_test(
        before, cfg.node_a, cfg.param, cfg.rel_shift, cfg.node_b, cfg.p0, cfg.confidence
    )

    merged_id = f"{cfg.node_a}_{cfg.node_b}"
    spec = merged_node_spec(graph.node(cfg.node_a), graph.node(cfg.node_b), merged_id)
    merged_graph = merge_nodes(graph, cfg.node_a, cfg.node_b, spec)
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
    return _report(
        INTERNODE_COUPLING,
        {"unmerged": (graph, before), "merged": (merged_graph, cfg.batch(merged_graph, "merged"))},
        recs,
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
    before = cfg.batch(graph, "baseline")
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

    return _report(
        HIDDEN_DEPENDENCY,
        {"baseline": (graph, before), "with_edge": (rewritten, cfg.batch(rewritten, "with_edge"))},
        recs,
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
        row = {key: getattr(m, key) for key in ("run_id", "seed", "graph_hash", "mode", "total_cycles")}
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
    with atomic_write(path, newline="") as fh:
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


def write_json(path: str | Path, doc: dict) -> None:
    """Write a JSON document, indented, as one atomic replace."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


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

    paths["report"] = outdir / "report.json"
    write_json(paths["report"], report_to_dict(report, trace_paths))

    avail_path = outdir / "availability.csv"
    with atomic_write(avail_path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "run_id", "seed", "availability"])
        for label, values in report.availability_per_run.items():
            runs = report.datasets[label].runs
            for run, value in zip(runs, values):
                w.writerow([label, run.meta.run_id, run.meta.seed, f"{value:.6f}"])
    paths["availability"] = avail_path

    cost_path = outdir / "node_costs.csv"
    with atomic_write(cost_path, newline="") as fh:
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
