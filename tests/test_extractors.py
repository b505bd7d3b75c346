"""Sample extraction from traces: metrics, trigger/response conditions,
and end-to-end property evaluation. Random-stream agreement against the
brute-force oracles in oracles.py."""

import random

import pytest

from oracles import (
    oracle_condition,
    oracle_failures,
    oracle_param,
    oracle_pct_time,
    oracle_time_between,
    oracle_ttf,
)
from datagen import random_dataset
from spaq.errors import (
    NoSamplesError,
    PropertyRangeError,
    PropertySyntaxError,
    UnknownNodeError,
    UnknownParamError,
)
from spaq.extractors import (
    evaluate_property,
    extract_condition_samples,
    extract_metric,
    rel_shift,
)
from spaq.properties import CondQuery, EventPattern, MetricRef, parse_property
from spaq.smc import HOLDS, INSUFFICIENT_DATA
from spaq.trace import Dataset, Run, RunMeta, TraceEvent


def ev(t, node, op, outcome, dur=0, before=None, after=None, value=None, run_id="r0"):
    return TraceEvent(
        run_id, t, node, op, outcome, dur,
        value=value,
        params_before=tuple(before.items()) if before is not None else None,
        params_after=tuple(after.items()) if after is not None else None,
    )


def make_run(events, total_cycles=100, run_id="r0"):
    meta = RunMeta(run_id=run_id, seed=0, graph_hash="deadbeef", total_cycles=total_cycles)
    return Run(meta=meta, events=tuple(events))


def make_dataset(events, total_cycles=100):
    return Dataset(runs=(make_run(events, total_cycles),))


def metric(name, node, /, **kwargs):
    return MetricRef(name=name, node=node, args=tuple(sorted(kwargs.items())))


def pattern(kind, node, /, **kwargs):
    return EventPattern(kind=kind, node=node, args=tuple(sorted(kwargs.items())))


# --- ttf ---


class TestTtf:
    def test_verification_anchor_moves_to_latest_pass(self):
        ds = make_dataset([
            ev(10, "a", "calibrate", "success", before={}, after={}),
            ev(50, "a", "check_data", "pass"),
            ev(90, "a", "check_data", "fail"),
        ])
        got = extract_metric(ds, metric("ttf", "a"))
        assert got.values == (40.0,)
        assert got.n_censored == 0

    def test_calibration_anchor_ignores_passing_checks(self):
        ds = make_dataset([
            ev(10, "a", "calibrate", "success", before={}, after={}),
            ev(50, "a", "check_data", "pass"),
            ev(90, "a", "check_data", "fail"),
        ])
        got = extract_metric(ds, metric("ttf", "a", anchor="calibration"))
        assert got.values == (80.0,)

    def test_failure_without_anchor_is_dropped(self):
        ds = make_dataset([
            ev(5, "a", "check_data", "fail"),
            ev(10, "a", "calibrate", "success", before={}, after={}),
            ev(30, "a", "check_data", "fail"),
            ev(40, "a", "calibrate", "success", before={}, after={}),
        ])
        got = extract_metric(ds, metric("ttf", "a"))
        assert got.values == (20.0,)
        assert got.n_censored == 1

    def test_failed_calibration_does_not_anchor(self):
        ds = make_dataset([
            ev(10, "a", "calibrate", "failed", before={}, after={}),
            ev(20, "a", "check_data", "fail"),
        ])
        with pytest.raises(NoSamplesError):
            extract_metric(ds, metric("ttf", "a"))

    def test_consecutive_failures_yield_one_sample(self):
        ds = make_dataset([
            ev(10, "a", "calibrate", "success", before={}, after={}),
            ev(20, "a", "check_data", "fail"),
            ev(30, "a", "check_data", "fail"),
            ev(40, "a", "check_data", "pass"),
            ev(50, "a", "check_data", "fail"),
        ])
        got = extract_metric(ds, metric("ttf", "a"))
        assert got.values == (10.0, 10.0)

    def test_oracle_failures_measured_from_anchor(self):
        ds = make_dataset([
            ev(50, "a", "calibrate", "success", before={}, after={}),
            ev(60, "a", "check_data", "fail"),
            ev(73, "a", "oracle_out_of_spec", "fail"),
        ])
        got = extract_metric(ds, metric("ttf", "a", oracle="true"))
        assert got.values == (23.0,)

    def test_other_nodes_do_not_interfere(self):
        ds = make_dataset([
            ev(10, "a", "calibrate", "success", before={}, after={}),
            ev(15, "b", "check_data", "fail"),
            ev(30, "a", "check_data", "fail"),
        ])
        got = extract_metric(ds, metric("ttf", "a"))
        assert got.values == (20.0,)

    def test_bad_anchor_value_rejected(self):
        # the argument table refuses the reference before any extraction
        with pytest.raises(PropertyRangeError):
            metric("ttf", "a", anchor="banana")


# --- failures ---


class TestFailures:
    def test_counts_per_complete_window(self):
        fails = [0, 39, 40, 79, 85, 99]
        events = [ev(t, "a", "check_data", "fail") for t in fails]
        ds = make_dataset(events, total_cycles=100)
        got = extract_metric(ds, metric("failures", "a", window=40))
        assert got.values == (2.0, 2.0)

    def test_window_larger_than_run_gives_nothing(self):
        ds = make_dataset([ev(5, "a", "check_data", "fail")], total_cycles=30)
        with pytest.raises(NoSamplesError):
            extract_metric(ds, metric("failures", "a", window=50))

    def test_passes_not_counted(self):
        events = [ev(1, "a", "check_data", "pass"), ev(2, "a", "check_data", "fail")]
        ds = make_dataset(events, total_cycles=10)
        got = extract_metric(ds, metric("failures", "a", window=5))
        assert got.values == (1.0, 0.0)


# --- param ---


class TestParam:
    def test_after_and_before(self):
        ds = make_dataset([
            ev(10, "a", "calibrate", "success", before={"amp": 1.0}, after={"amp": 1.5}),
            ev(40, "a", "calibrate", "failed", before={"amp": 1.5}, after={"amp": 1.4}),
        ])
        after = extract_metric(ds, metric("param", "a", name="amp"))
        assert after.values == (1.5, 1.4)
        before = extract_metric(ds, metric("param", "a", name="amp", when="before"))
        assert before.values == (1.0, 1.5)

    def test_unknown_param_vs_no_samples(self):
        ds = make_dataset([
            ev(10, "a", "calibrate", "success", before={"amp": 1.0}, after={"amp": 1.5}),
            ev(20, "b", "check_data", "pass"),
        ])
        with pytest.raises(UnknownParamError):
            extract_metric(ds, metric("param", "a", name="freq"))
        with pytest.raises(NoSamplesError):
            extract_metric(ds, metric("param", "b", name="amp"))

    def test_unknown_node(self):
        ds = make_dataset([ev(10, "a", "check_data", "pass")])
        with pytest.raises(UnknownNodeError):
            extract_metric(ds, metric("param", "zz", name="amp"))


# --- time_between / pct_time ---


class TestTimeBetweenAndPctTime:
    def test_gaps_between_calibrations(self):
        events = [
            ev(t, "a", "calibrate", "success", before={}, after={}) for t in (10, 30, 60)
        ]
        ds = make_dataset(events)
        got = extract_metric(ds, metric("time_between", "a", event="calibrate"))
        assert got.values == (20.0, 30.0)

    def test_gaps_between_failures(self):
        events = [
            ev(5, "a", "check_data", "fail"),
            ev(12, "a", "check_data", "pass"),
            ev(25, "a", "check_data", "fail"),
        ]
        ds = make_dataset(events)
        got = extract_metric(ds, metric("time_between", "a", event="fail"))
        assert got.values == (20.0,)

    def test_single_event_gives_nothing(self):
        ds = make_dataset([ev(10, "a", "calibrate", "success", before={}, after={})])
        with pytest.raises(NoSamplesError):
            extract_metric(ds, metric("time_between", "a", event="fail"))

    def test_pct_time_one_sample_per_run(self):
        r0 = make_run(
            [ev(1, "a", "check_data", "pass", dur=3), ev(9, "a", "check_data", "fail", dur=4),
             ev(20, "a", "calibrate", "success", dur=10, before={}, after={})],
            total_cycles=100, run_id="r0")
        r1 = make_run([ev(2, "a", "check_data", "pass", dur=5, run_id="r1")],
                      total_cycles=50, run_id="r1")
        ds = Dataset(runs=(r0, r1))
        got = extract_metric(ds, metric("pct_time", "a", op="check_data"))
        assert got.values == (0.07, 0.1)
        got = extract_metric(ds, metric("pct_time", "a", op="calibrate"))
        assert got.values == (0.1, 0.0)


# --- conditions ---


class TestConditions:
    def test_window_is_half_open_on_the_left(self):
        ds = make_dataset([
            ev(10, "a", "check_data", "fail"),
            ev(10, "b", "calibrate", "success", before={}, after={}),
            ev(15, "b", "calibrate", "success", before={}, after={}),
        ])
        q = CondQuery(trigger=pattern("fail", "a"), response=pattern("calibrate", "b"), window=5)
        assert extract_condition_samples(ds, q).values == (True,)
        q4 = CondQuery(trigger=pattern("fail", "a"), response=pattern("calibrate", "b"), window=4)
        assert extract_condition_samples(ds, q4).values == (False,)

    def test_next_check_window_ends_at_first_later_check(self):
        ds = make_dataset([
            ev(10, "a", "check_data", "fail"),
            ev(12, "b", "calibrate", "success", before={}, after={}),
            ev(20, "b", "check_data", "pass"),
            ev(40, "a", "check_data", "fail"),
            ev(60, "b", "calibrate", "success", before={}, after={}),
        ])
        q = CondQuery(trigger=pattern("fail", "a"), response=pattern("calibrate", "b"),
                      window="next_check")
        # first trigger answered before the b-check at 20; second has no
        # later b-check so the window runs to run end and catches t=60
        assert extract_condition_samples(ds, q).values == (True, True)

    def test_next_check_excludes_response_after_check(self):
        ds = make_dataset([
            ev(10, "a", "check_data", "fail"),
            ev(20, "b", "check_data", "pass"),
            ev(25, "b", "calibrate", "success", before={}, after={}),
        ])
        q = CondQuery(trigger=pattern("fail", "a"), response=pattern("calibrate", "b"),
                      window="next_check")
        assert extract_condition_samples(ds, q).values == (False,)

    def test_shift_trigger_strict_threshold(self):
        ds = make_dataset([
            ev(10, "a", "calibrate", "success", before={"amp": 1.0}, after={"amp": 1.4}),
            ev(15, "b", "check_data", "fail"),
        ])
        hit = CondQuery(trigger=pattern("shift", "a", param="amp", by=0.3),
                        response=pattern("fail", "b"), window=10)
        assert extract_condition_samples(ds, hit).values == (True,)
        miss = CondQuery(trigger=pattern("shift", "a", param="amp", by=0.4),
                         response=pattern("fail", "b"), window=10)
        assert extract_condition_samples(ds, miss).values == ()

    def test_shift_unknown_param_rejected(self):
        ds = make_dataset([
            ev(10, "a", "calibrate", "success", before={"amp": 1.0}, after={"amp": 1.4}),
        ])
        q = CondQuery(trigger=pattern("shift", "a", param="freq", by=0.1),
                      response=pattern("fail", "a"), window=5)
        with pytest.raises(UnknownParamError):
            extract_condition_samples(ds, q)

    def test_window_edges_agree_with_the_oracle(self):
        # cases random_dataset never builds: events at and past total_cycles,
        # responses at the trigger's own cycle and at exactly t + w, and
        # calibrations that do not record the shifted parameter
        r0 = make_run([
            ev(5, "a", "calibrate", "success", before={"amp": 1.0}, after={"amp": 2.0}),
            ev(5, "b", "check_data", "fail"),
            ev(10, "a", "check_data", "fail"),
            ev(10, "b", "check_data", "fail"),
            ev(15, "b", "check_data", "fail"),
            ev(20, "a", "calibrate", "success", before={"amp": 1.0}, after={}),
            ev(22, "a", "calibrate", "failed", before={"amp": 1.0, "freq": 3.0}, after={"freq": 3.6}),
            ev(24, "b", "check_data", "fail"),
            ev(40, "a", "check_data", "fail"),
            ev(60, "b", "calibrate", "success", before={}, after={}),
        ], total_cycles=50, run_id="r0")
        # a run in which the response node never appears
        r1 = make_run([ev(3, "a", "check_data", "fail", run_id="r1")], total_cycles=50, run_id="r1")
        ds = Dataset(runs=(r0, r1))
        fail_a, fail_b = {"kind": "fail", "node": "a"}, {"kind": "fail", "node": "b"}
        cases = [
            # 10 -> 15 lands on t + w; the b failure at 10 does not count
            (fail_a, fail_b, 5, [True, False, False]),
            (fail_a, fail_b, 3, [False, False, False]),
            # no b check after 40: the window runs to the last event, at 60,
            # past total_cycles
            (fail_a, {"kind": "calibrate", "node": "b"}, "next_check", [False, True, False]),
            ({"kind": "calibrate", "node": "a"}, fail_b, 5, [True, True, True]),
            # the calibrations at 20 and 22 lack amp after, and those at 5
            # and 20 lack freq: none of them may match
            ({"kind": "shift", "node": "a", "param": "amp", "by": 0.5}, fail_b, 5, [True]),
            ({"kind": "shift", "node": "a", "param": "amp", "by": 0.5}, fail_b, "next_check", [True]),
            ({"kind": "shift", "node": "a", "param": "freq", "by": 0.1}, fail_b, 2, [True]),
        ]
        for trigger, response, window, want in cases:
            q = CondQuery(
                trigger=pattern(trigger["kind"], trigger["node"],
                                **{k: v for k, v in trigger.items() if k in ("param", "by")}),
                response=pattern(response["kind"], response["node"]), window=window)
            assert oracle_condition(ds, trigger, response, window) == want, (trigger, window)
            assert list(extract_condition_samples(ds, q).values) == want, (trigger, window)

    def test_rel_shift_denominator_clamp(self):
        assert rel_shift(0.0, 1e-10) == pytest.approx(0.1)
        assert rel_shift(2.0, 1.0) == pytest.approx(0.5)


# --- property evaluation glue ---


def _ttf_run(n_pairs, gap, run_id="r0"):
    events = [ev(0, "a", "calibrate", "success", before={}, after={}, run_id=run_id)]
    t = 1
    for _ in range(n_pairs):
        events.append(ev(t, "a", "check_data", "pass", run_id=run_id))
        events.append(ev(t + gap, "a", "check_data", "fail", run_id=run_id))
        t += gap + 2
    return make_run(events, total_cycles=t + 1, run_id=run_id)


class TestEvaluateProperty:
    def test_unanimous_samples_at_the_minimum_count(self):
        ds = Dataset(runs=(_ttf_run(59, gap=11),))
        ast = parse_property("test ttf(a) > 10 @ F=0.95 C=0.95")
        res = evaluate_property(ds, ast)
        assert res.n_used == 59
        assert res.verdict == HOLDS

    def test_one_fewer_sample_cannot_conclude(self):
        ds = Dataset(runs=(_ttf_run(58, gap=11),))
        ast = parse_property("test ttf(a) > 10 @ F=0.95 C=0.95")
        res = evaluate_property(ds, ast)
        assert res.verdict == INSUFFICIENT_DATA

    def test_sequential_variant_records_trajectory(self):
        ds = Dataset(runs=(_ttf_run(59, gap=11),))
        ast = parse_property("test ttf(a) > 10 @ F=0.5 C=0.95")
        res = evaluate_property(ds, ast, delta=0.2)
        assert res.llr is not None
        assert 0 < len(res.llr) <= 59

    def test_ci_mode_median_interval(self):
        events = [
            ev(i, "a", "calibrate", "success",
               before={"amp": 0.0}, after={"amp": float(i + 1)})
            for i in range(100)
        ]
        ds = make_dataset(events, total_cycles=200)
        ast = parse_property("ci param(a, name=amp) @ C=0.95")
        res = evaluate_property(ds, ast)
        assert res.ranks == (40, 60)
        assert res.interval == (40.0, 60.0)

    def test_cond_property_exact_test(self):
        events = []
        for i in range(30):
            t = i * 10
            events.append(ev(t, "a", "check_data", "fail"))
            events.append(ev(t + 2, "b", "calibrate", "success", before={}, after={}))
        ds = make_dataset(events, total_cycles=400)
        ast = parse_property("test prob[fail(a) -> calibrate(b) within 5] > 0.5 @ C=0.95")
        res = evaluate_property(ds, ast)
        assert res.verdict == HOLDS
        assert res.n_used == 30

    def test_implication_is_refused_at_parse_time(self):
        with pytest.raises(PropertySyntaxError):
            parse_property("test ttf(a) > 5 -> failures(a, window=10) < 2 @ C=0.9")

    def test_ci_cond_rejected(self):
        with pytest.raises(PropertySyntaxError):
            parse_property("ci prob[fail(a) -> fail(a) within 5] @ C=0.9")

    def test_no_triggers_means_insufficient_data(self):
        ds = make_dataset([ev(1, "a", "check_data", "pass"),
                           ev(2, "b", "check_data", "pass")])
        q = CondQuery(trigger=pattern("fail", "a"), response=pattern("fail", "b"), window=5)
        assert extract_condition_samples(ds, q).values == ()
        ast = parse_property("test prob[fail(a) -> fail(b) within 5] > 0.5 @ C=0.9")
        res = evaluate_property(ds, ast)
        assert res.verdict == INSUFFICIENT_DATA
        assert res.n_used == 0


# --- agreement with the brute-force oracles ---


def _assert_metric_agreement(ds, m, expect_vals, expect_censored=None, saw_calibrate=False):
    try:
        got = extract_metric(ds, m)
    except NoSamplesError:
        assert expect_vals == []
        assert not (m.name == "param" and saw_calibrate)
        return
    except UnknownParamError:
        assert m.name == "param" and saw_calibrate and expect_vals == []
        return
    assert list(got.values) == expect_vals
    if expect_censored is not None:
        assert got.n_censored == expect_censored


class TestOracleAgreement:
    def test_metrics_agree_on_random_streams(self):
        rng = random.Random(20260814)
        for _ in range(60):
            ds, nodes, node_params = random_dataset(rng)
            seen = {e.node for r in ds.runs for e in r.events}
            for node in nodes:
                if node not in seen:
                    with pytest.raises(UnknownNodeError):
                        extract_metric(ds, metric("ttf", node))
                    continue
                for anchor in ("verification", "calibration"):
                    for oracle in (False, True):
                        m = metric("ttf", node, anchor=anchor,
                                   oracle="true" if oracle else "false")
                        vals, cens = oracle_ttf(ds, node, anchor, oracle)
                        _assert_metric_agreement(ds, m, vals, cens)
                for window in (7, 20):
                    m = metric("failures", node, window=window)
                    _assert_metric_agreement(ds, m, oracle_failures(ds, node, window))
                for name in node_params[node]:
                    for when in ("before", "after"):
                        m = metric("param", node, name=name, when=when)
                        vals, saw = oracle_param(ds, node, name, when)
                        _assert_metric_agreement(ds, m, vals, saw_calibrate=saw)
                for which in ("calibrate", "fail"):
                    m = metric("time_between", node, event=which)
                    _assert_metric_agreement(ds, m, oracle_time_between(ds, node, which))
                for op in ("check_data", "calibrate"):
                    m = metric("pct_time", node, op=op)
                    _assert_metric_agreement(ds, m, oracle_pct_time(ds, node, op))

    def test_conditions_agree_on_random_streams(self):
        rng = random.Random(907)
        for _ in range(60):
            ds, nodes, node_params = random_dataset(rng)
            seen = {e.node for r in ds.runs for e in r.events}
            pairs = [(a, b) for a in nodes for b in nodes if a in seen and b in seen][:6]
            for a, b in pairs:
                for window in (7, "next_check"):
                    q = CondQuery(trigger=pattern("fail", a),
                                  response=pattern("calibrate", b), window=window)
                    want = oracle_condition(
                        ds, {"kind": "fail", "node": a},
                        {"kind": "calibrate", "node": b}, window)
                    assert list(extract_condition_samples(ds, q).values) == want
                p = node_params[a][0]
                q = CondQuery(
                    trigger=pattern("shift", a, param=p, by=0.25),
                    response=pattern("fail", b), window=10)
                try:
                    got = list(extract_condition_samples(ds, q).values)
                except UnknownParamError:
                    seen = any(
                        e.node == a and e.op == "calibrate"
                        and p in dict(e.params_before or ())
                        for r in ds.runs for e in r.events)
                    assert not seen
                    continue
                want = oracle_condition(
                    ds, {"kind": "shift", "node": a, "param": p, "by": 0.25},
                    {"kind": "fail", "node": b}, 10)
                assert got == want
