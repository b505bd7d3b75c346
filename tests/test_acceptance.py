"""Release gate: ten end-to-end criteria, one test per criterion.

Each test prints one CRITERION line on success; tolerances and runtime
budgets are asserted inside the test bodies. Everything runs on the
packaged default configs with pinned seeds.
"""

from __future__ import annotations

import math
import random
import resource
import time

import numpy as np

from datagen import random_dataset
from oracles import (
    oracle_condition,
    oracle_failures,
    oracle_param,
    oracle_pct_time,
    oracle_time_between,
    oracle_ttf,
)
from trace_checks import check_all, random_graph

from spaq.errors import UnknownNodeError, UnknownParamError
from spaq.experiments import (
    Exp1Config,
    Exp2Config,
    Exp3Config,
    pairwise_cofailure_scan,
    run_batch,
    run_delayed_checks_experiment,
    run_hidden_dependency_experiment,
    run_internode_experiment,
)
from spaq.extractors import evaluate_property, extract_condition_samples, extract_metric
from spaq.graph import builtin_config_path, load_graph
from spaq.properties import CondQuery, EventPattern, MetricRef, parse_property
from spaq.sim import SimConfig, availability, run_simulation
from spaq.smc import (
    HOLDS,
    LOWER,
    UPPER,
    SmcConfig,
    exact_binomial_test,
    min_samples,
    quantile_confidence_bound,
)
from spaq.trace import extract_failures_from_timeseries, load_dataset, write_trace


def test_criterion_01_minimum_sample_reproduction():
    n = min_samples(0.05, 0.95, side=LOWER)
    assert n == 59
    print("CRITERION 1: PASS (min_samples(F=0.05, C=0.95, lower) == 59)")


def test_criterion_02_quantile_bound_coverage():
    start = time.monotonic()
    rng = np.random.default_rng(20260814)
    resamples, n = 10_000, 59
    covered = {}
    for name, draw, true_q in (
        ("uniform", lambda size: rng.random(size), 0.05),
        ("exponential", lambda size: rng.exponential(1.0, size), -math.log(0.95)),
    ):
        block = draw((resamples, n))
        hits = 0
        for row in block:
            res = quantile_confidence_bound(row.tolist(), 0.05, 0.95, side=LOWER)
            assert res.bound is not None
            hits += res.bound <= true_q
        covered[name] = hits / resamples
        assert covered[name] >= 0.93, f"{name} coverage {covered[name]:.4f} < 0.93"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(
        f"CRITERION 2: PASS (coverage uniform {covered['uniform']:.4f}, "
        f"exponential {covered['exponential']:.4f}, {elapsed:.1f}s)"
    )


def test_criterion_03_type_i_control():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    trials, n, F = 10_000, 80, 0.33
    cfg = SmcConfig(F=F, C=0.95, side=UPPER)
    false_accepts = 0
    for k in rng.binomial(n, F, size=trials):
        res = exact_binomial_test([True] * int(k) + [False] * (n - int(k)), cfg)
        false_accepts += res.verdict == HOLDS
    rate = false_accepts / trials
    elapsed = time.monotonic() - start
    assert rate <= 0.07, f"type-I rate {rate:.4f} > 0.07"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 3: PASS (type-I rate {rate:.4f} at p=F, {elapsed:.1f}s)")


def test_criterion_04_extractor_oracle_equivalence():
    def metric(name, node, /, **kw):
        return MetricRef(name=name, node=node, args=tuple(sorted(kw.items())))

    def pattern(kind, node, /, **kw):
        return EventPattern(kind=kind, node=node, args=tuple(sorted(kw.items())))

    rng = random.Random(424242)
    datasets = 200
    mismatches: list[str] = []

    def compare(tag, got, want):
        if list(got) != list(want):
            mismatches.append(f"{tag}: {list(got)[:5]} != {list(want)[:5]}")

    for i in range(datasets):
        ds, nodes, node_params = random_dataset(rng)
        seen = {e.node for r in ds.runs for e in r.events}
        for node in nodes:
            if node not in seen:
                continue
            for anchor in ("verification", "calibration"):
                for orc in (False, True):
                    m = metric("ttf", node, anchor=anchor, oracle="true" if orc else "false")
                    want_vals, want_cens = oracle_ttf(ds, node, anchor, orc)
                    if not want_vals:
                        continue
                    got = extract_metric(ds, m)
                    compare(f"ds{i} ttf {node} {anchor}", got.values, want_vals)
                    if got.n_censored != want_cens:
                        mismatches.append(f"ds{i} ttf {node} censored")
            for window in (7, 20):
                want = oracle_failures(ds, node, window)
                if want:
                    compare(f"ds{i} failures {node}",
                            extract_metric(ds, metric("failures", node, window=window)).values,
                            want)
            for pname in node_params[node]:
                for when in ("before", "after"):
                    want_vals, saw = oracle_param(ds, node, pname, when)
                    if saw and want_vals:
                        got = extract_metric(ds, metric("param", node, name=pname, when=when))
                        compare(f"ds{i} param {node}.{pname} {when}", got.values, want_vals)
            for which in ("calibrate", "fail"):
                want = oracle_time_between(ds, node, which)
                if want:
                    compare(f"ds{i} time_between {node} {which}",
                            extract_metric(ds, metric("time_between", node, event=which)).values,
                            want)
            for op in ("check_data", "calibrate"):
                want = oracle_pct_time(ds, node, op)
                compare(f"ds{i} pct_time {node} {op}",
                        extract_metric(ds, metric("pct_time", node, op=op)).values,
                        want)
        pairs = [(a, b) for a in nodes for b in nodes if a in seen and b in seen][:4]
        for a, b in pairs:
            for window in (7, "next_check"):
                q = CondQuery(trigger=pattern("fail", a),
                              response=pattern("calibrate", b), window=window)
                want = oracle_condition(ds, {"kind": "fail", "node": a},
                                        {"kind": "calibrate", "node": b}, window)
                compare(f"ds{i} cond {a}->{b} {window}",
                        extract_condition_samples(ds, q).values, want)
            p = node_params[a][0]
            q = CondQuery(trigger=pattern("shift", a, param=p, by=0.25),
                          response=pattern("fail", b), window=10)
            try:
                got = extract_condition_samples(ds, q).values
            except UnknownParamError:
                continue
            want = oracle_condition(ds, {"kind": "shift", "node": a, "param": p, "by": 0.25},
                                    {"kind": "fail", "node": b}, 10)
            compare(f"ds{i} shift {a}->{b}", got, want)

    assert not mismatches, f"{len(mismatches)} discrepancies: {mismatches[:5]}"
    print(f"CRITERION 4: PASS (extractors == oracle on {datasets} datasets)")


def test_criterion_05_scheduler_fuzz_and_determinism(tmp_path):
    rng = random.Random(5150)
    graphs = 100
    for i in range(graphs):
        graph = random_graph(rng, max_nodes=8)
        cfg = SimConfig(total_cycles=rng.randint(150, 450), seed=rng.randint(0, 2**31))
        run = run_simulation(graph, cfg, run_id=f"fuzz-{i}")
        check_all(run, graph)  # depth-first calibration + memoized checks
        again = run_simulation(graph, cfg, run_id=f"fuzz-{i}")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, run)
        write_trace(b, again)
        assert a.read_bytes() == b.read_bytes(), f"graph {i} not byte-deterministic"
    print(f"CRITERION 5: PASS ({graphs} fuzzed DAGs: invariants + identical bytes)")


def test_criterion_06_delayed_checks_experiment():
    start = time.monotonic()
    graph = load_graph(builtin_config_path("xgate"))
    rep = run_delayed_checks_experiment(graph, Exp1Config())
    base = rep.availability_per_run["baseline"]
    adap = rep.availability_per_run["adaptive"]
    wins = sum(a > b for a, b in zip(adap, base))
    delta = sum(adap) / len(adap) - sum(base) / len(base)
    elapsed = time.monotonic() - start
    assert wins >= 18, f"adaptive beat baseline in only {wins}/20 runs"
    assert delta >= 0.02, f"mean improvement {delta * 100:.2f}pp < 2pp"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        f"CRITERION 6: PASS (adaptive wins {wins}/20, {delta * 100:+.2f}pp, {elapsed:.1f}s)"
    )


def test_criterion_07_internode_coupling_experiment():
    rep = run_internode_experiment(Exp2Config())
    st = rep.shift_test
    assert st.verdict == HOLDS, f"shift test: {st.verdict}"
    assert st.control.verdict != HOLDS, f"small-shift control: {st.control.verdict}"
    merged = rep.availability_per_run["merged"]
    unmerged = rep.availability_per_run["unmerged"]
    assert sum(merged) / len(merged) >= sum(unmerged) / len(unmerged)
    assert rep.recommendations and rep.recommendations[0].kind == "merge"

    off = run_internode_experiment(Exp2Config(coupling=False))
    assert off.shift_test.verdict != HOLDS, f"coupling off: {off.shift_test.verdict}"
    assert off.recommendations == ()
    print(
        f"CRITERION 7: PASS (holds p={st.p_value:.2g}, merged "
        f"{sum(merged) / len(merged):.4f} >= unmerged {sum(unmerged) / len(unmerged):.4f}, "
        f"coupling off: {off.shift_test.verdict})"
    )


def test_criterion_08_hidden_dependency_experiment():
    rep = run_hidden_dependency_experiment(Exp3Config())
    matrix = rep.matrix
    coupled = {("top_2", "bottom_2"), ("bottom_2", "top_2")}
    for y, z in coupled:
        assert matrix.verdict(y, z) == HOLDS, f"coupled pair ({y},{z}): {matrix.verdict(y, z)}"
    independent = [p for p in matrix.cells if p not in coupled]
    false_pos = sum(1 for p in independent if matrix.cells[p].verdict == HOLDS)
    assert false_pos <= 0.10 * len(independent), (
        f"{false_pos}/{len(independent)} independent ordered pairs flagged"
    )
    base = rep.availability_per_run["baseline"]
    edged = rep.availability_per_run["with_edge"]
    assert sum(edged) / len(edged) >= sum(base) / len(base), (
        f"edge decreased availability: {sum(base) / len(base):.4f} -> "
        f"{sum(edged) / len(edged):.4f}"
    )
    assert any(r.kind == "edge" and r.target == "bottom_2->top_2" for r in rep.recommendations)
    print(
        f"CRITERION 8: PASS (both directions hold, {false_pos}/{len(independent)} "
        f"false positives, availability {sum(base) / len(base):.4f} -> "
        f"{sum(edged) / len(edged):.4f})"
    )


def test_criterion_09_scale(tmp_path):
    start = time.monotonic()
    graph = load_graph(builtin_config_path("xgate"))
    ds = run_batch(graph, 100_000, range(100), oracle=False, run_prefix="big")
    paths = []
    for run in ds.runs:
        p = tmp_path / f"{run.meta.run_id}.jsonl"
        write_trace(p, run)
        paths.append(p)
    pooled = load_dataset(paths)
    assert len(pooled.runs) == 100

    bound = evaluate_property(
        pooled,
        parse_property("ci ttf(x_gate, anchor=calibration) @ F=0.05 C=0.95"),
        interval_side=LOWER,
    )
    assert bound.bound is not None and bound.n_used > 59

    cond = evaluate_property(
        pooled,
        parse_property("test prob[fail(drive_frequency) -> fail(x_gate) within 25] > 0.1 @ C=0.9"),
    )
    assert cond.verdict is not None

    matrix = pairwise_cofailure_scan(pooled, window=25, p0=0.33, C=0.90)
    assert len(matrix.cells) == 30  # 6 nodes, ordered pairs

    for run in pooled.runs[:5]:
        rep = availability(run, graph=graph)
        assert 0.0 < rep.availability <= 1.0

    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(
        f"CRITERION 9: PASS (100x100k runs + pooled analysis in {elapsed:.1f}s, "
        f"{sum(len(r.time) for r in pooled.runs)} events, peak RSS {peak_mb:.0f} MB)"
    )


def test_criterion_10_timeseries_failure_extraction():
    # hand-verified random-walk realization, reference resets at failures
    times = np.arange(13.0)
    values = np.array([0.0, 0.4, 0.9, 1.2, 1.0, 1.4, 2.6, 2.4, 2.0, 1.2, 1.3, 0.1, 0.0])
    got = extract_failures_from_timeseries(times, values, threshold=1.0)
    assert got.failure_times == (3.0, 6.0, 9.0, 11.0)
    assert got.intervals == (3.0, 3.0, 3.0, 2.0)
    assert sum(got.intervals) <= times[-1] - times[0]
    print("CRITERION 10: PASS (golden failure/TTF list reproduced)")
