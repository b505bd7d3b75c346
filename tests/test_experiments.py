"""Experiment workflows: batched runs, delay recommendation, shift
coupling, co-failure scans, and report serialization. Statistical
strength at full scale is asserted in test_acceptance; these tests pin
structure and bookkeeping at small scale."""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import pytest

from spaq.drift import LogisticDriftCfg
from spaq.errors import NoSamplesError
from spaq.experiments import (
    Exp1Config,
    Exp2Config,
    Exp3Config,
    ExperimentReport,
    MatrixCell,
    Recommendation,
    ShiftFailureResult,
    VerdictMatrix,
    pairwise_cofailure_scan,
    param_shift_failure_test,
    recommend_delay_details,
    recommend_delays,
    report_to_dict,
    run_batch,
    run_delayed_checks_experiment,
    run_hidden_dependency_experiment,
    run_internode_experiment,
    smc_result_to_dict,
    strip_cross_node_terms,
    write_report,
)
from spaq.extractors import evaluate_property, extract_metric
from spaq.graph import GraphSpec, Term, builtin_config_path, load_graph
from spaq.properties import MetricRef, parse_property
from spaq.sim import ADAPTIVE, HIGH_FREQUENCY
from spaq.smc import HOLDS, INSUFFICIENT_DATA, LOWER, SmcResult, quantile_confidence_bound
from spaq.trace import CALIBRATE, Run, RunMeta, TraceEvent, merge_runs, read_trace

from tests.conftest import make_graph, make_node


@pytest.fixture(scope="module")
def small_pair_ds():
    """A couple of runs on the packaged two-node coupling graph."""
    graph = load_graph(builtin_config_path("internode"))
    return graph, run_batch(graph, 2_000, range(4), run_prefix="t")


class TestConfigValidation:
    @pytest.mark.parametrize("cls", [Exp1Config, Exp2Config, Exp3Config])
    @pytest.mark.parametrize("confidence", [0.3, 0.5, 1.0])
    def test_confidence_outside_range_rejected(self, cls, confidence):
        # C <= 0.5 cannot be tested: the statistics need C in (0.5, 1)
        with pytest.raises(ValueError, match="confidence"):
            cls(confidence=confidence)


class TestRunBatch:
    def test_run_ids_and_seeds(self):
        g = make_graph(make_node("a", sigma=0.0, timeout=50))
        ds = run_batch(g, 200, [3, 9], run_prefix="blk")
        assert ds.run_ids == ("blk-3", "blk-9")
        assert [r.meta.seed for r in ds.runs] == [3, 9]

    def test_jobs_do_not_change_results(self):
        g = make_graph(make_node("a", timeout=20), make_node("b", deps=("a",), timeout=30))
        one = run_batch(g, 500, range(2), jobs=1)
        two = run_batch(g, 500, range(2), jobs=2)
        assert one.runs == two.runs

    def test_mode_and_flags_propagate(self):
        g = make_graph(make_node("a", timeout=40))
        ds = run_batch(g, 300, [0], mode=HIGH_FREQUENCY, hf_timeout=5, oracle=False)
        assert ds.runs[0].meta.mode == HIGH_FREQUENCY
        checks = [e for e in ds.runs[0].events if e.op == "check_data"]
        assert len(checks) > 300 / 40  # hf cadence, not the node's own


class TestDelayRecommendation:
    def test_delay_matches_direct_bound(self, small_pair_ds):
        graph, ds = small_pair_ds
        details = {d.target: d for d in recommend_delay_details(ds, 0.95)}
        samples = extract_metric(
            ds, MetricRef(name="ttf", node="A", args=(("anchor", "calibration"),))
        )
        direct = quantile_confidence_bound(list(samples.values), 0.05, 0.95, side=LOWER)
        if direct.verdict is None:
            assert details["A"].payload == {"delay": int(direct.bound)}
        else:
            assert details["A"].payload == {"delay": 0}

    def test_insufficient_data_gives_zero_delay(self):
        g = make_graph(make_node("a", sigma=0.0, timeout=30))  # never fails
        ds = run_batch(g, 400, range(2))
        details = recommend_delay_details(ds, 0.95)
        assert [(d.kind, d.target, d.payload) for d in details] == [("delay", "a", {"delay": 0})]
        assert details[0].result.verdict == INSUFFICIENT_DATA
        assert recommend_delays(ds, 0.95) == {"a": 0}

    def test_property_text_parses_back(self, small_pair_ds):
        _, ds = small_pair_ds
        for d in recommend_delay_details(ds, 0.95):
            parse_property(d.property_text)  # canonical text round-trips


class TestShiftFailureTest:
    def test_requires_calibrations_of_source(self):
        meta = RunMeta(run_id="r", seed=0, graph_hash="x", total_cycles=10)
        run = Run(meta=meta, events=(
            TraceEvent("r", 1, "B", "check_data", "fail", 1, ep=1),
        ))
        with pytest.raises(NoSamplesError):
            param_shift_failure_test(merge_runs([run]), "A", "p", 0.1, "B", 0.33, 0.95)

    def test_main_and_control_partition_triggers(self, small_pair_ds):
        _, ds = small_pair_ds
        res = param_shift_failure_test(ds, "A", "param_A", 0.10, "B", 0.33, 0.95)
        cals = sum(
            1 for r in ds.runs for e in r.events
            if e.node == "A" and e.op == CALIBRATE and e.outcome == "success"
        )
        # every successful calibration lands in exactly one group
        assert res.n_used + res.control.n_used == cals
        assert res.property_text.startswith("test prob[shift(A, param=param_A")
        parse_property(res.property_text)
        assert "relative param_A change <= 0.1" in res.control_description

    def test_supports_merge_requires_control_rejection(self):
        base = dict(n_used=60, p_value=1e-6)
        holds = SmcResult(verdict=HOLDS, **base)
        sf = ShiftFailureResult(verdict=HOLDS, control=holds, **base)
        assert not sf.supports_merge
        sf = ShiftFailureResult(
            verdict=HOLDS, control=SmcResult(verdict="does_not_hold", n_used=9), **base
        )
        assert sf.supports_merge


class TestStripCrossNodeTerms:
    def test_removes_only_cross_terms(self):
        g = load_graph(builtin_config_path("internode"))
        stripped = strip_cross_node_terms(g)
        before = g.node("B").checks[0].observable.terms
        after = stripped.node("B").checks[0].observable.terms
        assert any(t.node == "A" for t in before)
        assert all(t.node is None for t in after)
        assert len(after) == len(before) - 1
        # own terms and everything else untouched
        assert stripped.node("A") == g.node("A")


class TestVerdictMatrix:
    def test_diagonal_rejected(self):
        cell = MatrixCell("holds", "p", SmcResult(verdict=HOLDS, n_used=1))
        with pytest.raises(ValueError):
            VerdictMatrix(nodes=("a",), cells={("a", "a"): cell})

    def test_unknown_node_rejected(self):
        cell = MatrixCell("holds", "p", SmcResult(verdict=HOLDS, n_used=1))
        with pytest.raises(ValueError):
            VerdictMatrix(nodes=("a", "b"), cells={("a", "z"): cell})

    def test_mutual_holds_needs_both_directions(self):
        def cell(v):
            return MatrixCell(v, "p", SmcResult(verdict=v, n_used=1))

        m = VerdictMatrix(
            nodes=("a", "b", "c"),
            cells={
                ("a", "b"): cell(HOLDS),
                ("b", "a"): cell(HOLDS),
                ("a", "c"): cell(HOLDS),
                ("c", "a"): cell("does_not_hold"),
            },
        )
        assert m.mutual_holds() == [("a", "b")]
        assert m.verdict("c", "a") == "does_not_hold"

    def test_scan_covers_all_ordered_pairs(self, small_pair_ds):
        _, ds = small_pair_ds
        m = pairwise_cofailure_scan(ds, window=10, p0=0.33, C=0.9)
        assert set(m.cells) == {("A", "B"), ("B", "A")}
        for (y, z), cell in m.cells.items():
            ast = parse_property(cell.property_text)
            again = evaluate_property(ds, ast)
            assert again == cell.result


class TestReportValidation:
    def test_availability_range_checked(self):
        with pytest.raises(ValueError):
            ExperimentReport(
                scenario="s", availability_before=1.2, availability_after=0.5,
                availability_per_run={}, per_node_cost={}, recommendations=(),
                datasets={},
            )

    def test_recommendation_needs_result(self):
        rec = Recommendation("delay", "a", {}, "text", result="nope")
        with pytest.raises(ValueError):
            ExperimentReport(
                scenario="s", availability_before=0.5, availability_after=0.5,
                availability_per_run={}, per_node_cost={}, recommendations=(rec,),
                datasets={},
            )


class TestExperimentRunners:
    def test_delayed_checks_structure(self):
        g = load_graph(builtin_config_path("xgate"))
        rep = run_delayed_checks_experiment(g, Exp1Config(total_cycles=1_500, n_runs=2, seed=11))
        assert set(rep.datasets) == {"baseline", "high_frequency", "adaptive"}
        assert all(len(v) == 2 for v in rep.availability_per_run.values())
        # matched seed blocks across scenarios
        seeds = {k: [r.meta.seed for r in ds.runs] for k, ds in rep.datasets.items()}
        assert seeds["baseline"] == seeds["high_frequency"] == seeds["adaptive"] == [11, 12]
        assert rep.datasets["adaptive"].runs[0].meta.mode == ADAPTIVE
        assert {r.target for r in rep.recommendations} == {n.id for n in g.nodes}
        assert all(r.kind == "delay" for r in rep.recommendations)

    def test_internode_structure_and_merge(self):
        cfg = Exp2Config(total_cycles=2_500, n_runs=3, seed=7)
        rep = run_internode_experiment(cfg)
        assert set(rep.datasets) == {"unmerged", "merged"}
        assert rep.shift_test is not None
        assert rep.datasets["merged"].nodes() == ("A_B",)
        if rep.recommendations:
            assert rep.recommendations[0].kind == "merge"
            assert rep.shift_test.supports_merge

    def test_internode_coupling_off_withholds_merge(self):
        cfg = Exp2Config(total_cycles=2_500, n_runs=3, seed=7, coupling=False)
        rep = run_internode_experiment(cfg)
        assert rep.shift_test.verdict != HOLDS
        assert rep.recommendations == ()

    def test_hidden_dependency_structure(self):
        cfg = Exp3Config(total_cycles=2_000, n_runs=2, seed=3)
        rep = run_hidden_dependency_experiment(cfg)
        assert set(rep.datasets) == {"baseline", "with_edge"}
        assert rep.matrix is not None
        nodes = rep.datasets["baseline"].nodes()
        assert len(rep.matrix.cells) == len(nodes) * (len(nodes) - 1)
        for rec in rep.recommendations:
            assert rec.kind == "edge"
            assert rec.payload["dependent"] != rec.payload["dependency"]


class TestSerialization:
    def test_smc_result_dict_shapes(self):
        r = SmcResult(verdict=HOLDS, n_used=5, p_value=0.01)
        assert smc_result_to_dict(r) == {"verdict": "holds", "n_used": 5, "p_value": 0.01}
        sf = ShiftFailureResult(
            verdict=HOLDS, n_used=5, p_value=0.01,
            control=SmcResult(verdict=INSUFFICIENT_DATA, n_used=1),
            property_text="t", control_description="c",
        )
        d = smc_result_to_dict(sf)
        assert d["property"] == "t" and d["control"]["n_used"] == 1

    def test_write_report_layout_and_round_trip(self, tmp_path):
        cfg = Exp2Config(total_cycles=1_500, n_runs=2, seed=1)
        rep = run_internode_experiment(cfg)
        paths = write_report(rep, tmp_path / "out")
        doc = json.loads(paths["report"].read_text())
        assert doc["scenario"] == "internode_coupling"
        assert set(doc["datasets"]) == {"unmerged", "merged"}

        # every stored trace path resolves and parses back to its run
        for label, rows in doc["datasets"].items():
            assert tuple(r["run_id"] for r in rows) == rep.datasets[label].run_ids
            for row in rows:
                run = read_trace(tmp_path / "out" / row["trace"])
                assert run.meta.seed == row["seed"]

        with paths["availability"].open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 scenarios x 2 runs
        assert {r["scenario"] for r in rows} == {"unmerged", "merged"}
        for row in rows:
            assert 0.0 <= float(row["availability"]) <= 1.0

        with paths["node_costs"].open() as fh:
            cost_rows = list(csv.DictReader(fh))
        assert {r["node"] for r in cost_rows if r["scenario"] == "merged"} == {"A_B"}

    def test_matrix_csv_written_for_scans(self, tmp_path):
        cfg = Exp3Config(total_cycles=1_200, n_runs=2, seed=5)
        rep = run_hidden_dependency_experiment(cfg)
        paths = write_report(rep, tmp_path / "out")
        with paths["matrix"].open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(rep.matrix.cells)
        assert {(r["response"], r["trigger"]) for r in rows} == set(rep.matrix.cells)

    def test_report_dict_embeds_property_texts(self):
        cfg = Exp3Config(total_cycles=1_200, n_runs=2, seed=5)
        rep = run_hidden_dependency_experiment(cfg)
        doc = report_to_dict(rep)
        for cell in doc["matrix"]:
            parse_property(cell["property"])
        for rec in doc["recommendations"]:
            parse_property(rec["property"])
