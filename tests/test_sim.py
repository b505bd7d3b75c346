"""Scheduler behavior: episode structure, diagnosis order, drift/oracle
bookkeeping, determinism, and availability accounting."""

from __future__ import annotations

import math
import random

import pytest

import spaq.drift
import spaq.sim
from spaq import builtin_config_path, load_graph
from spaq.drift import ExponentialDriftCfg, LogisticDriftCfg
from spaq.errors import UnknownNodeError
from spaq.graph import (
    CheckSpec,
    DisturbanceSpec,
    GraphSpec,
    NodeSpec,
    ObservableSpec,
    ParamSpec,
    Rule,
    Term,
    topological_order,
)
from spaq.sim import (
    ADAPTIVE,
    HIGH_FREQUENCY,
    RECALIBRATED,
    SKIPPED,
    VERIFIED,
    SimConfig,
    Simulator,
    availability,
    run_simulation,
)
from spaq.trace import (
    CALIBRATE,
    CHECK_DATA,
    DRIFT_SAMPLE,
    FAIL,
    FAILED,
    ORACLE_OUT_OF_SPEC,
    PASS,
    SUCCESS,
    Run,
    RunMeta,
    TraceEvent,
    run_from_rows,
    write_trace,
)

from datagen import random_dataset
from oracles import ReferenceSimulator, oracle_availability
from trace_checks import (
    check_all,
    check_depth_first,
    check_memoization,
    check_post_cal_delay,
    episodes,
    random_graph,
)


def frozen_param(optimal=0.0, tol=0.5):
    return ParamSpec(optimal=optimal, tolerance=tol, drift=LogisticDriftCfg(sigma=0.0), cal_noise=0.0)


def simple_node(nid, deps=(), *, timeout=1000, check_cost=1, cal_cost=2, delay=0,
                tol=0.5, param=None, offset=0.0):
    p = param if param is not None else frozen_param(tol=tol)
    obs = ObservableSpec(terms=(Term(param="p"),), offset=offset)
    return NodeSpec(
        id=nid, check_cost=check_cost, calibrate_cost=cal_cost, timeout=timeout,
        post_cal_delay=delay, dependencies=tuple(deps), params=(("p", p),),
        checks=(CheckSpec(obs, Rule(op="abs_le", bound=tol)),),
    )


def set_now(sim, nid, pname, value):
    """Set a parameter's value as of the current cycle.

    The poke is a calibration to ``value`` now: the drift tracker writes
    the parameter's row, anchor and cycles since calibration at the
    current cycle, and the next read recomputes the block from there.
    """
    tr = sim._tracker
    tr.reset(tr.column[(nid, pname)], value, sim.t)


def emitted(sim):
    """The events the simulator has emitted so far, in emission order."""
    return run_from_rows(RunMeta(run_id=sim.run_id, seed=sim.cfg.seed, graph_hash=""), sim._rows).events


def ops(run, since_ep=1):
    return [(e.op, e.node, e.outcome) for e in run.events if e.ep >= since_ep]


class TestEpisodeStructure:
    def test_failed_sink_diagnoses_through_passing_dependency(self):
        graph = GraphSpec(nodes=(
            simple_node("a"),
            simple_node("b", deps=("a",)),
            simple_node("c", deps=("b",), timeout=1),
        ))
        sim = Simulator(graph, SimConfig(total_cycles=100, seed=1))
        sim.initial_calibration()
        set_now(sim, "a", "p", 10.0)
        set_now(sim, "c", "p", 10.0)
        sim.step()
        evs = [e for e in emitted(sim) if e.ep == 1]
        assert [(e.op, e.node, e.outcome) for e in evs] == [
            (CHECK_DATA, "c", FAIL),
            (CHECK_DATA, "b", PASS),
            (CHECK_DATA, "a", FAIL),
            (CALIBRATE, "a", SUCCESS),
            (CALIBRATE, "c", SUCCESS),
            (CHECK_DATA, "c", PASS),
        ]
        times = [e.time for e in evs]
        assert times == sorted(times)

    def test_shared_dependency_calibrated_once(self):
        graph = GraphSpec(nodes=(
            simple_node("a", timeout=1),
            simple_node("b", deps=("a",), timeout=1),
            simple_node("c", deps=("a",), timeout=1),
            simple_node("d", deps=("b", "c"), timeout=1),
        ))
        sim = Simulator(graph, SimConfig(total_cycles=100, seed=1))
        sim.initial_calibration()
        for nid in "abcd":
            set_now(sim, nid, "p", 10.0)
        sim.step()
        evs = [e for e in emitted(sim) if e.ep == 1]
        cals = [e.node for e in evs if e.op == CALIBRATE]
        assert cals == ["a", "b", "c", "d"]
        assert sum(1 for e in evs if e.op == CHECK_DATA and e.node == "a") == 2
        run = sim.finish()
        check_depth_first(run, graph)
        check_memoization(run)

    def test_all_due_in_spec_one_check_each_no_calibration(self):
        graph = GraphSpec(nodes=(
            simple_node("a", timeout=1),
            simple_node("b", deps=("a",), timeout=1),
            simple_node("c", deps=("b",), timeout=1),
        ))
        sim = Simulator(graph, SimConfig(total_cycles=100, seed=1))
        sim.initial_calibration()
        sim.step()
        evs = [e for e in emitted(sim) if e.ep == 1]
        assert [(e.op, e.node, e.outcome) for e in evs] == [
            (CHECK_DATA, "a", PASS),
            (CHECK_DATA, "b", PASS),
            (CHECK_DATA, "c", PASS),
        ]

    def test_fresh_nodes_skip_without_events(self):
        graph = GraphSpec(nodes=(
            simple_node("a"),
            simple_node("b", deps=("a",)),
            simple_node("c", deps=("b",)),
        ))
        sim = Simulator(graph, SimConfig(total_cycles=100, seed=1))
        sim.initial_calibration()
        n_events = len(emitted(sim))
        sim.step()
        assert sim.maintain("c") == SKIPPED
        assert len(emitted(sim)) == n_events

    def test_maintain_outcomes(self):
        graph = GraphSpec(nodes=(simple_node("a", timeout=1),))
        sim = Simulator(graph, SimConfig(total_cycles=100, seed=1))
        sim.initial_calibration()
        sim._advance(1)
        assert sim.maintain("a") == VERIFIED
        sim._advance(1)
        set_now(sim, "a", "p", 10.0)
        assert sim.maintain("a") == RECALIBRATED
        assert sim.maintain("a") == SKIPPED

    def test_initial_calibration_topological_episode_zero(self):
        graph = GraphSpec(nodes=(
            simple_node("d", deps=("b", "c")),
            simple_node("b", deps=("a",)),
            simple_node("c", deps=("a",)),
            simple_node("a"),
        ))
        sim = Simulator(graph, SimConfig(total_cycles=10, seed=1))
        sim.initial_calibration()
        cals = [e for e in emitted(sim) if e.op == CALIBRATE]
        assert [e.node for e in cals] == topological_order(graph) == ["a", "b", "c", "d"]
        assert all(e.ep == 0 for e in cals)

    def test_unknown_node_rejected(self):
        graph = GraphSpec(nodes=(simple_node("a"),))
        sim = Simulator(graph, SimConfig(total_cycles=10, seed=1))
        with pytest.raises(UnknownNodeError):
            sim.maintain("zz")
        with pytest.raises(UnknownNodeError):
            sim.diagnose("zz")

    def test_empty_graph_runs_to_completion(self):
        run = run_simulation(GraphSpec(nodes=()), SimConfig(total_cycles=25, seed=3))
        assert run.events == ()
        assert run.meta.total_cycles == 25
        assert availability(run).availability == 1.0


class TestSchedulingGates:
    def test_stale_interior_node_checked_while_sink_stays_fresh(self):
        graph = GraphSpec(nodes=(
            simple_node("a", timeout=5),
            simple_node("b", deps=("a",), timeout=10_000),
        ))
        run = run_simulation(graph, SimConfig(total_cycles=40, seed=1))
        a_checks = [e for e in run.events if e.node == "a" and e.op == CHECK_DATA]
        b_checks = [e for e in run.events if e.node == "b" and e.op == CHECK_DATA]
        assert len(a_checks) >= 4
        assert b_checks == []

    def test_post_cal_delay_window_has_no_demand_checks(self):
        p = ParamSpec(0.0, 0.5, ExponentialDriftCfg(rate=1.0, limit=10.0), cal_noise=0.0)
        graph = GraphSpec(nodes=(
            simple_node("n", timeout=1, check_cost=1, cal_cost=2, delay=10, param=p),
        ))
        run = run_simulation(graph, SimConfig(total_cycles=120, seed=1))
        cals = [e for e in run.events if e.op == CALIBRATE]
        assert len(cals) >= 3
        check_post_cal_delay(run, graph, nodes=("n",))
        ends = {e.time + e.duration for e in cals if e.outcome == SUCCESS}
        reverify_times = {e.time for e in run.events if e.op == CHECK_DATA} & ends
        assert reverify_times, "verification re-check should land exactly at the calibration end"

    def test_check_measures_state_at_operation_start(self):
        p = ParamSpec(0.0, 0.5, ExponentialDriftCfg(rate=0.005, limit=10.0), cal_noise=0.0)
        graph = GraphSpec(nodes=(
            simple_node("n", timeout=1, check_cost=20, cal_cost=1, param=p),
        ))
        run = run_simulation(graph, SimConfig(total_cycles=60, seed=1))
        checks = [e for e in run.events if e.op == CHECK_DATA]
        # value is 10*(1-exp(-0.005*tau)): inside tolerance at tau=1 where the
        # first check starts, far outside by the time its 20 cycles are paid
        assert checks[0].outcome == PASS
        assert checks[1].outcome == FAIL

    def test_exhausted_calibration_backs_off_for_a_timeout(self):
        node = NodeSpec(
            id="n", check_cost=1, calibrate_cost=2, timeout=10,
            params=(("p", frozen_param()),),
            checks=(CheckSpec(
                ObservableSpec(terms=(Term(param="p"),), offset=10.0),
                Rule(op="abs_le", bound=0.5),
            ),),
        )
        graph = GraphSpec(nodes=(node,))
        sim = Simulator(graph, SimConfig(total_cycles=80, seed=1))
        run = sim.run()
        cals = [e for e in run.events if e.op == CALIBRATE]
        assert all(e.outcome == FAILED for e in cals)
        check_memoization(run)
        for evs in episodes(run).values():
            assert sum(1 for e in evs if e.op == CALIBRATE) == 3
        first_checks = sorted(e.time for e in run.events if e.op == CHECK_DATA and e.ep >= 1)
        assert first_checks[0] == 16
        demand_times = sorted(
            min(e.time for e in evs) for ep, evs in episodes(run).items() if ep >= 1
        )
        assert demand_times == [16, 33, 50, 67]
        assert [t for t, _ in sim.calibration_failures] == [6, 23, 40, 57, 74]
        assert availability(run).availability == pytest.approx(10 / 80)

    def test_high_frequency_mode_checks_more_often(self):
        graph = GraphSpec(nodes=(simple_node("a", timeout=30),))
        base = run_simulation(graph, SimConfig(total_cycles=200, seed=5))
        hf = run_simulation(
            graph, SimConfig(total_cycles=200, seed=5, mode=HIGH_FREQUENCY, hf_timeout=3)
        )
        n_base = sum(1 for e in base.events if e.op == CHECK_DATA)
        n_hf = sum(1 for e in hf.events if e.op == CHECK_DATA)
        assert n_hf > n_base
        assert hf.meta.mode == HIGH_FREQUENCY

    def test_adaptive_mode_is_a_label_not_a_behavior_change(self):
        graph = GraphSpec(nodes=(simple_node("a", timeout=7),))
        base = run_simulation(graph, SimConfig(total_cycles=100, seed=5))
        adaptive = run_simulation(graph, SimConfig(total_cycles=100, seed=5, mode=ADAPTIVE))
        assert adaptive.meta.mode == ADAPTIVE
        assert adaptive.events == base.events


class TestCompensation:
    def test_calibration_offsets_external_contribution(self):
        a = simple_node("a", tol=1.0)
        obs = ObservableSpec(
            terms=(Term(param="off"), Term(param="p", node="a", weight=2.0)),
            compensate="off",
        )
        d = NodeSpec(
            id="d", check_cost=1, calibrate_cost=2, timeout=3, dependencies=("a",),
            params=(("off", frozen_param(tol=5.0)),),
            checks=(CheckSpec(obs, Rule(op="abs_le", bound=0.3)),),
        )
        graph = GraphSpec(nodes=(a, d))
        sim = Simulator(graph, SimConfig(total_cycles=40, seed=1))
        sim.initial_calibration()
        set_now(sim, "a", "p", 0.4)
        run = sim.run()
        evs = [e for e in run.events if e.ep == 1]
        assert [(e.op, e.node, e.outcome) for e in evs] == [
            (CHECK_DATA, "d", FAIL),
            (CHECK_DATA, "a", PASS),
            (CALIBRATE, "d", SUCCESS),
            (CHECK_DATA, "d", PASS),
        ]
        cal = next(e for e in evs if e.op == CALIBRATE)
        assert dict(cal.params_after)["off"] == pytest.approx(-0.8)
        later_checks = [e for e in run.events if e.ep > 1 and e.op == CHECK_DATA and e.node == "d"]
        assert later_checks and all(e.outcome == PASS for e in later_checks)


class TestGroundTruthTracking:
    def test_oracle_marks_exact_onset_and_recovery_cycles(self):
        p = ParamSpec(0.0, 0.5, ExponentialDriftCfg(rate=0.01, limit=10.0), cal_noise=0.0)
        graph = GraphSpec(nodes=(
            simple_node("n", timeout=40, check_cost=1, cal_cost=1, param=p),
        ))
        run = run_simulation(graph, SimConfig(total_cycles=60, seed=1, oracle_ttf=True))
        # 10*(1-exp(-0.01*tau)) crosses 0.5 between tau=5 and tau=6
        onsets = [e.time for e in run.events if e.op == ORACLE_OUT_OF_SPEC]
        recoveries = [e.time for e in run.events if e.op == DRIFT_SAMPLE]
        assert onsets == [7, 49]
        assert recoveries == [43]
        rec = next(e for e in run.events if e.op == DRIFT_SAMPLE)
        assert rec.outcome == PASS and rec.value == pytest.approx(0.0)

    def test_drift_sample_grid_is_unconditional(self):
        graph = GraphSpec(nodes=(simple_node("n"),))
        run = run_simulation(
            graph, SimConfig(total_cycles=30, seed=2, drift_sample_every=7)
        )
        samples = [e for e in run.events if e.op == DRIFT_SAMPLE]
        assert [e.time for e in samples] == [7, 14, 21, 28]
        assert all(e.outcome == PASS and e.value == pytest.approx(0.0) for e in samples)
        assert not any(e.op == ORACLE_OUT_OF_SPEC for e in run.events)


def noisy_graph():
    lg = lambda s: LogisticDriftCfg(r_max=1.0, tau_mid=8.0, tau_scale=3.0, sigma=s)
    a = NodeSpec(
        id="a", check_cost=2, calibrate_cost=5, timeout=17,
        params=(("p", ParamSpec(0.0, 0.3, lg(0.05), cal_noise=0.01)),),
        checks=(CheckSpec(
            ObservableSpec(terms=(Term(param="p"),), noise=0.02),
            Rule(op="abs_le", bound=0.3),
        ),),
    )
    b = NodeSpec(
        id="b", check_cost=1, calibrate_cost=4, timeout=23, dependencies=("a",),
        params=(
            ("f", ParamSpec(0.0, 0.4, lg(0.08), cal_noise=0.02)),
            ("tau", ParamSpec(0.0, 0.2, lg(0.03), cal_noise=0.01)),
        ),
        checks=(CheckSpec(
            ObservableSpec(
                kind="transition",
                detuning_terms=(Term(param="f"), Term(param="p", node="a", weight=0.5)),
                time_terms=(Term(param="tau"),),
                noise=0.01,
            ),
            Rule(op="ge", bound=0.85),
        ),),
    )
    c = NodeSpec(
        id="c", check_cost=2, calibrate_cost=3, timeout=31, dependencies=("b",),
        params=(("phi", ParamSpec(0.0, 0.5, lg(0.06), cal_noise=0.02)),),
        checks=(CheckSpec(
            ObservableSpec(
                kind="gate",
                phase_terms=(Term(param="phi"),),
                detuning_terms=(Term(param="f", node="b", weight=0.3),),
                noise=0.01,
            ),
            Rule(op="ge", bound=0.8),
        ),),
    )
    d = NodeSpec(
        id="d", check_cost=1, calibrate_cost=2, timeout=13, dependencies=("a",),
        post_cal_delay=4,
        params=(("off", ParamSpec(0.0, 0.6, lg(0.04), cal_noise=0.01)),),
        checks=(CheckSpec(
            ObservableSpec(
                terms=(Term(param="off"), Term(param="p", node="a", weight=0.7)),
                compensate="off",
                noise=0.02,
            ),
            Rule(op="abs_le", bound=0.4),
        ),),
    )
    dist = DisturbanceSpec(
        tag="latent", affected=("d",), strength=0.8,
        drift=LogisticDriftCfg(r_max=1.0, tau_mid=20.0, tau_scale=5.0, sigma=0.1),
    )
    return GraphSpec(nodes=(a, b, c, d), disturbances=(dist,))


class TestDeterminism:
    def test_same_seed_identical_run_and_bytes(self, tmp_path):
        graph = noisy_graph()
        cfg = SimConfig(total_cycles=300, seed=7, oracle_ttf=True)
        r1 = run_simulation(graph, cfg)
        r2 = run_simulation(graph, cfg)
        assert r1 == r2
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        write_trace(p1, r1)
        write_trace(p2, r2)
        assert p1.read_bytes() == p2.read_bytes()
        other = run_simulation(graph, SimConfig(total_cycles=300, seed=8, oracle_ttf=True))
        assert other.events != r1.events

    def test_stepwise_execution_matches_batched_run(self):
        graph = noisy_graph()
        cfg = SimConfig(total_cycles=300, seed=11, oracle_ttf=True)
        batched = run_simulation(graph, cfg)
        stepwise = Simulator(graph, cfg).run_stepwise()
        assert stepwise == batched

    def test_fuzzed_graphs_hold_all_invariants(self, tmp_path):
        # ground-truth tracking evaluates the observables over whole drift
        # paths, so stepwise == batched must hold with it on as well
        tracking = ({}, {"oracle_ttf": True}, {"drift_sample_every": 7})
        for i, graph in enumerate(fuzzed_graphs()):
            for extra in tracking:
                cfg = SimConfig(total_cycles=400, seed=1000 + i, **extra)
                run1 = run_simulation(graph, cfg)
                run2 = run_simulation(graph, cfg)
                assert run1 == run2
                stepwise = Simulator(graph, cfg).run_stepwise()
                assert stepwise == run1
                check_all(run1, graph)
                rep = availability(run1, graph=graph)
                assert 0.0 <= rep.availability <= 1.0
                assert set(rep.per_node_cost) == {n.id for n in graph.nodes}


TRACKING_OPS = (ORACLE_OUT_OF_SPEC, DRIFT_SAMPLE)


def fuzzed_graphs():
    """The random graphs of ``test_fuzzed_graphs_hold_all_invariants``."""
    rng = random.Random(20260814)
    return [random_graph(rng) for _ in range(25)]


def untracked(run):
    return Run(meta=run.meta, events=tuple(e for e in run.events if e.op not in TRACKING_OPS))


def rich_graph():
    """Both observable families, every rule op, two checks on one node,
    background and phase terms on a transition, an exponential parameter
    and a disturbance shared by two nodes."""
    lg = LogisticDriftCfg(r_max=1.0, tau_mid=5.0, tau_scale=2.0, sigma=0.08)
    a = NodeSpec(
        id="a", check_cost=1, calibrate_cost=2, timeout=9,
        params=(
            ("f", ParamSpec(0.0, 0.5, lg, cal_noise=0.02)),
            ("g", ParamSpec(0.1, 0.5, ExponentialDriftCfg(rate=0.02, limit=0.9), cal_noise=0.01)),
        ),
        checks=(
            CheckSpec(
                ObservableSpec(
                    kind="transition", omega=2.0,
                    detuning_terms=(Term(param="f"),),
                    time_terms=(Term(param="g", weight=0.5),),
                    phase_terms=(Term(param="f"),),
                    background_terms=(Term(param="g", weight=0.05),),
                ),
                Rule(op="ge", bound=0.7),
            ),
            CheckSpec(
                ObservableSpec(offset=0.1, terms=(Term(param="g"), Term(param="f", weight=-0.5))),
                Rule(op="le", bound=0.6),
            ),
        ),
    )
    b = NodeSpec(
        id="b", check_cost=2, calibrate_cost=3, timeout=14, dependencies=("a",),
        params=(("phi", ParamSpec(0.0, 0.4, lg, cal_noise=0.02)),),
        checks=(
            CheckSpec(
                ObservableSpec(
                    kind="gate", omega=3.0, t_nominal=1.1,
                    phase_terms=(Term(param="phi"),),
                    detuning_terms=(Term(param="f", node="a", weight=0.3),),
                ),
                Rule(op="ge", bound=0.5),
            ),
            CheckSpec(ObservableSpec(terms=(Term(param="phi"),)), Rule(op="abs_le", bound=0.4, center=0.05)),
        ),
    )
    dist = DisturbanceSpec(
        tag="latent", affected=("a", "b"), strength=0.5,
        drift=LogisticDriftCfg(r_max=1.0, tau_mid=10.0, tau_scale=3.0, sigma=0.05),
    )
    return GraphSpec(nodes=(a, b), disturbances=(dist,))


class TestDriftEngine:
    """Drift is computed a block ahead of the clock and read off the block;
    ground-truth tracking only adds the block's events. Neither may change
    what the schedule sees."""

    @pytest.mark.parametrize("config", ["xgate", "internode", "hidden"])
    def test_tracking_leaves_the_schedule_unchanged_on_packaged_configs(self, config):
        graph = load_graph(builtin_config_path(config))
        for seed in range(4):
            lazy = run_simulation(graph, SimConfig(total_cycles=3000, seed=seed))
            for extra in ({"oracle_ttf": True}, {"drift_sample_every": 37}):
                tracked = run_simulation(graph, SimConfig(total_cycles=3000, seed=seed, **extra))
                assert untracked(tracked) == lazy, (seed, extra)

    def test_tracking_leaves_the_schedule_unchanged_on_fuzzed_graphs(self):
        for i, graph in enumerate([*fuzzed_graphs(), rich_graph(), noisy_graph()]):
            lazy = run_simulation(graph, SimConfig(total_cycles=400, seed=1000 + i))
            for extra in ({"oracle_ttf": True}, {"drift_sample_every": 37}):
                tracked = run_simulation(graph, SimConfig(total_cycles=400, seed=1000 + i, **extra))
                assert untracked(tracked) == lazy, (i, extra)

    def test_extra_reads_between_steps_leave_the_trace_unchanged(self):
        rng = random.Random(5)
        for i, graph in enumerate([rich_graph(), noisy_graph(), *fuzzed_graphs()[:10]]):
            cfg = SimConfig(total_cycles=300, seed=i)
            expected = run_simulation(graph, cfg)
            sim = Simulator(graph, cfg)
            sim.initial_calibration()
            tr = sim._tracker
            cols = list(tr.column.values())
            while sim.t < cfg.total_cycles:
                sim.step()
                for col in rng.sample(cols, rng.randint(0, len(cols))):
                    tr.value(col, sim.t)
            assert sim.finish() == expected, i

    def test_tracked_paths_equal_readings_at_every_cycle(self):
        # the stacked evaluation over whole paths against the scalar reading
        # of the literal reference model, bit for bit, over resets and
        # compensation
        rng = random.Random(8)
        for i, graph in enumerate([rich_graph(), noisy_graph(), *fuzzed_graphs()[:10]]):
            cfg = SimConfig(total_cycles=10_000, seed=i, drift_sample_every=1)
            sim, ref = Simulator(graph, cfg), ReferenceSimulator(graph, cfg)
            sim.initial_calibration()
            ref.initial_calibration()
            for step in range(40):
                k = rng.randint(1, 30)
                sim._advance(k)
                ref.wait(k)
                now = {e.node: e for e in emitted(sim) if e.op == DRIFT_SAMPLE and e.time == sim.t}
                for n in graph.nodes:
                    assert now[n.id].value == ref.reading(n.id, n.checks[0]), (i, step, n.id)
                    assert (now[n.id].outcome == PASS) == ref.in_spec(n.id), (i, step, n.id)
                if step % 5 == 0:
                    nid = rng.choice([n.id for n in graph.nodes])
                    sim._calibrate(nid)
                    ref.calibrate(nid)

    def test_drift_calls_follow_reads_not_advances(self, monkeypatch):
        # deterministic cost guard without tracking: one stacked drift call
        # per block, rebuilt after each calibration or when a read passes
        # the block's end, not one per parameter read or clock advance
        real = spaq.drift.logistic_drift_path
        calls = []
        count = lambda *a: calls.append(1) or real(*a)
        monkeypatch.setattr(spaq.drift, "logistic_drift_path", count)
        monkeypatch.setattr(spaq.sim, "logistic_drift_path", count)
        total = 15_000
        run = run_simulation(load_graph(builtin_config_path("xgate")), SimConfig(total_cycles=total, seed=0))
        cals = sum(1 for e in run.events if e.op == CALIBRATE)
        assert 0 < len(calls) <= cals + math.ceil(total / spaq.sim._BLOCK) + 1

    def test_a_calibration_walks_from_the_ramp_without_a_drift_call(self, monkeypatch):
        # deterministic cost guard: the drift path is computed once per
        # block, and each calibration redoes its states by one walk over
        # the ramp its plan keeps
        paths, walks = [], []
        real_path, real_walk = spaq.sim.logistic_drift_path, spaq.sim.drift_walk
        monkeypatch.setattr(spaq.sim, "logistic_drift_path", lambda *a: paths.append(1) or real_path(*a))
        monkeypatch.setattr(spaq.sim, "drift_walk", lambda *a: walks.append(1) or real_walk(*a))
        total = 15_000
        run = run_simulation(load_graph(builtin_config_path("xgate")), SimConfig(total_cycles=total, seed=0))
        cals = sum(1 for e in run.events if e.op == CALIBRATE)
        assert 0 < len(paths) <= math.ceil(total / spaq.sim._BLOCK) + 1
        assert 0 < len(walks) <= cals

    def test_tracking_drift_calls_follow_blocks_not_advances(self, monkeypatch):
        # deterministic cost guard: one stacked drift call per block of
        # ground truth, rebuilt after each calibration or at the block's
        # end, not one per clock advance
        real = spaq.drift.logistic_drift_path
        calls = []
        count = lambda *a: calls.append(1) or real(*a)
        monkeypatch.setattr(spaq.drift, "logistic_drift_path", count)
        monkeypatch.setattr(spaq.sim, "logistic_drift_path", count)
        total = 15_000
        run = run_simulation(
            load_graph(builtin_config_path("xgate")), SimConfig(total_cycles=total, seed=0, oracle_ttf=True)
        )
        cals = sum(1 for e in run.events if e.op == CALIBRATE)
        assert 0 < len(calls) <= cals + math.ceil(total / spaq.sim._BLOCK) + 1


class CountingEpisodes(Simulator):
    """A simulator that counts the maintenance episodes it starts."""

    started = depth = 0

    def _maintain(self, nid, resolved):
        self.started += self.depth == 0
        self.depth += 1
        try:
            return super()._maintain(nid, resolved)
        finally:
            self.depth -= 1


class TestRunLoopCost:
    @pytest.mark.parametrize("config", ["xgate", "internode", "hidden"])
    def test_the_run_loop_starts_only_episodes_that_work(self, config):
        # deterministic cost guard: the loop wakes a sink only when a node
        # of its ancestry is due, so every episode it starts emits events
        # (the episode counter counts the episodes that emitted)
        graph = load_graph(builtin_config_path(config))
        sim = CountingEpisodes(graph, SimConfig(total_cycles=5000, seed=1))
        run = sim.run()
        assert sim.started == sim._ep == int(run.ep.max()) > 0


class TestReferenceSimulator:
    """The batched run and the stepwise run against a literal model that
    steps every cycle on scalars (``oracles.ReferenceSimulator``)."""

    @pytest.mark.parametrize(
        "extra",
        [{}, {"oracle_ttf": True}, {"drift_sample_every": 7}, {"oracle_ttf": True, "drift_sample_every": 7}],
        ids=["untracked", "oracle_ttf", "drift_sample", "both"],
    )
    def test_runs_and_trace_bytes_equal_the_reference(self, tmp_path, monkeypatch, extra):
        for i, graph in enumerate([*fuzzed_graphs(), rich_graph(), noisy_graph()]):
            cfg = SimConfig(total_cycles=400, seed=1000 + i, **extra)
            ref = ReferenceSimulator(graph, cfg)
            expected = ref.run()
            write_trace(tmp_path / "ref.jsonl", expected)
            # one block spans a run by default; blocks of 49 cycles end
            # eight times, each time on a drift_sample_every=7 grid cycle
            for block in (spaq.sim._BLOCK, 49):
                with monkeypatch.context() as m:
                    m.setattr(spaq.sim, "_BLOCK", block)
                    sim = Simulator(graph, cfg)
                    assert sim.run() == expected, (i, block)
                    assert sim.calibration_failures == ref.calibration_failures, (i, block)
                    assert Simulator(graph, cfg).run_stepwise() == expected, (i, block)
                write_trace(tmp_path / "sim.jsonl", sim.finish())
                assert (tmp_path / "sim.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes(), (i, block)


TRACKING_MODES = (
    {},
    {"oracle_ttf": True},
    {"drift_sample_every": 37},
    {"oracle_ttf": True, "drift_sample_every": 37},
    {"oracle_ttf": True, "mode": HIGH_FREQUENCY, "hf_timeout": 40},
)


def with_block(monkeypatch, block, graph, cfg):
    with monkeypatch.context() as m:
        m.setattr(spaq.sim, "_BLOCK", block)
        return run_simulation(graph, cfg)


class TestBlockLength:
    """Drift and ground truth are computed a block of cycles ahead of the
    clock, with tracking on or off; the block's length may change the cost
    of a run, never its trace."""

    @pytest.mark.parametrize("block", [1, 2, 7, None])
    @pytest.mark.parametrize("config", ["xgate", "internode", "hidden"])
    def test_packaged_configs(self, monkeypatch, config, block):
        graph = load_graph(builtin_config_path(config))
        for seed in (0, 3):
            for extra in TRACKING_MODES:
                cfg = SimConfig(total_cycles=1000, seed=seed, **extra)
                expected = run_simulation(graph, cfg)
                got = with_block(monkeypatch, block or cfg.total_cycles + 3, graph, cfg)
                assert got == expected, (seed, extra)

    @pytest.mark.parametrize("block", [1, 2, 7, None])
    def test_fuzzed_graphs(self, monkeypatch, block):
        for i, graph in enumerate([*fuzzed_graphs(), rich_graph(), noisy_graph()]):
            for extra in ({}, {"oracle_ttf": True, "drift_sample_every": 7}):
                cfg = SimConfig(total_cycles=400, seed=1000 + i, **extra)
                expected = run_simulation(graph, cfg)
                assert with_block(monkeypatch, block or cfg.total_cycles, graph, cfg) == expected, (i, extra)

    @pytest.mark.parametrize("block", [41, 42, 43])
    def test_calibration_on_a_block_boundary(self, monkeypatch, block):
        # calibrated at 0..1, the node is next checked at 41 (timeout 40),
        # fails and is recalibrated over 42..43; the block built at cycle 0
        # ends at 0 + 43 = 43, exactly where that calibration resets it
        p = ParamSpec(0.0, 0.5, ExponentialDriftCfg(rate=0.01, limit=10.0), cal_noise=0.0)
        graph = GraphSpec(nodes=(simple_node("n", timeout=40, check_cost=1, cal_cost=1, param=p),))
        cfg = SimConfig(total_cycles=120, seed=1, oracle_ttf=True, drift_sample_every=1)
        expected = run_simulation(graph, cfg)
        resets = []
        real = Simulator._reset_params

        def spy(sim, nid):
            resets.append((sim.t, sim._tracker.end))
            real(sim, nid)

        monkeypatch.setattr(Simulator, "_reset_params", spy)
        assert with_block(monkeypatch, block, graph, cfg) == expected
        assert ((43, 43) in resets) == (block == 43)


def with_chunks(monkeypatch, chunk, graph, cfg):
    with monkeypatch.context() as m:
        m.setattr(spaq.sim, "_NOISE", chunk)
        m.setattr(spaq.sim, "_NORMALS", chunk)
        return run_simulation(graph, cfg)


class TestChunkLength:
    """Measurement and calibration noise, and the drift normals, are drawn
    from each stream in chunks ahead of their use; a chunk's length may
    change the cost of a run, never its trace. One normal per chunk is a
    single draw, and a chunk longer than the run is one draw per stream."""

    @pytest.mark.parametrize("chunk", [1, 7, None])
    @pytest.mark.parametrize("config", ["xgate", "internode", "hidden"])
    def test_packaged_configs(self, monkeypatch, config, chunk):
        graph = load_graph(builtin_config_path(config))
        for seed in (0, 3):
            for extra in ({}, {"oracle_ttf": True, "drift_sample_every": 37}):
                cfg = SimConfig(total_cycles=1000, seed=seed, **extra)
                expected = run_simulation(graph, cfg)
                got = with_chunks(monkeypatch, chunk or cfg.total_cycles + 600, graph, cfg)
                assert got == expected, (seed, extra)

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_fuzzed_graphs(self, monkeypatch, chunk):
        for i, graph in enumerate([*fuzzed_graphs(), rich_graph(), noisy_graph()]):
            for extra in ({}, {"oracle_ttf": True, "drift_sample_every": 7}):
                cfg = SimConfig(total_cycles=400, seed=1000 + i, **extra)
                expected = run_simulation(graph, cfg)
                assert with_chunks(monkeypatch, chunk or cfg.total_cycles + 600, graph, cfg) == expected, (i, extra)

    def test_short_blocks_use_the_normals_left_over(self, monkeypatch):
        # blocks of 5 cycles from chunks of 7 normals: most blocks start
        # from the rest of a chunk drawn for the block before
        graph = load_graph(builtin_config_path("xgate"))
        cfg = SimConfig(total_cycles=600, seed=2, oracle_ttf=True)
        expected = run_simulation(graph, cfg)
        monkeypatch.setattr(spaq.sim, "_BLOCK", 5)
        assert with_chunks(monkeypatch, 7, graph, cfg) == expected


class TestAvailability:
    def meta(self, total):
        return RunMeta(run_id="r", seed=0, graph_hash="x", total_cycles=total)

    def test_in_spec_throughout_and_idle_is_fully_available(self):
        run = Run(meta=self.meta(50), events=())
        assert availability(run).availability == 1.0

    def test_operation_cycles_are_unavailable(self):
        events = tuple(
            TraceEvent("r", t, "n", CHECK_DATA, PASS, duration=2) for t in (0, 20, 40, 60, 80)
        )
        run = Run(meta=self.meta(100), events=events)
        assert availability(run).availability == pytest.approx(0.90)

    def test_ground_truth_intervals_and_costs(self):
        events = (
            TraceEvent("r", 3, "n", CHECK_DATA, PASS, duration=2),
            TraceEvent("r", 10, "n", ORACLE_OUT_OF_SPEC, FAIL),
            TraceEvent("r", 15, "n", DRIFT_SAMPLE, PASS, value=0.0),
            TraceEvent("r", 20, "n", CALIBRATE, SUCCESS, duration=1,
                       params_before=(("p", 1.0),), params_after=(("p", 0.0),)),
        )
        run = Run(meta=self.meta(30), events=events)
        rep = availability(run)
        assert rep.availability == pytest.approx(22 / 30)
        assert rep.per_node_cost["n"] == {"check_cycles": 2, "calibrate_cycles": 1}

    def test_inferred_intervals_span_fail_to_next_pass_end(self):
        events = (
            TraceEvent("r", 10, "n", CHECK_DATA, FAIL, duration=2),
            TraceEvent("r", 20, "n", CHECK_DATA, PASS, duration=2),
        )
        run = Run(meta=self.meta(100), events=events)
        assert availability(run).availability == pytest.approx(0.88)

    def test_graph_argument_adds_zero_cost_rows(self):
        graph = GraphSpec(nodes=(simple_node("a"), simple_node("z")))
        run = Run(meta=self.meta(10), events=())
        rep = availability(run, graph=graph)
        assert rep.per_node_cost == {
            "a": {"check_cycles": 0, "calibrate_cycles": 0},
            "z": {"check_cycles": 0, "calibrate_cycles": 0},
        }

    def test_ground_truth_flag_can_be_forced(self):
        events = (
            TraceEvent("r", 10, "n", CHECK_DATA, FAIL, duration=1),
            TraceEvent("r", 40, "n", ORACLE_OUT_OF_SPEC, FAIL),
        )
        run = Run(meta=self.meta(100), events=events)
        inferred = availability(run, ground_truth=False)
        truth = availability(run, ground_truth=True)
        # inferred: out from the failed check onward; truth: out from t=40 only
        assert inferred.availability == pytest.approx(10 / 100)
        assert truth.availability == pytest.approx((40 - 1) / 100)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(2718)
        for i in range(200):
            ds, _, _ = random_dataset(rng)
            for run in ds.runs:
                for ground_truth in (False, True):
                    got = availability(run, ground_truth=ground_truth).availability
                    assert got == oracle_availability(run, ground_truth), (i, run.meta.run_id, ground_truth)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(total_cycles=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(total_cycles=10, seed=1, mode="warp")
        with pytest.raises(ValueError):
            SimConfig(total_cycles=10, seed=1, hf_timeout=0)
        with pytest.raises(ValueError):
            SimConfig(total_cycles=10, seed=1, drift_sample_every=-1)

    def test_run_metadata(self):
        graph = GraphSpec(nodes=(simple_node("a"),))
        run = run_simulation(graph, SimConfig(total_cycles=12, seed=9), run_id="custom")
        assert run.meta.run_id == "custom"
        assert run.meta.seed == 9
        assert run.meta.total_cycles == 12
        default = run_simulation(graph, SimConfig(total_cycles=12, seed=9))
        assert default.meta.run_id == "run-9"
