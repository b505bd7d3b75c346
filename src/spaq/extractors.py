"""Turn trace datasets into statistical samples and evaluate properties.

Sample semantics (all time arithmetic uses event start times):

* ``ttf(node)``: one sample per interval from an in-spec verification
  (passed check_data or successful calibrate) to the next failed
  check_data of the node; the anchor is the most recent verification.
  ``anchor=calibration`` restricts anchors to successful calibrations;
  ``oracle=true`` takes ground-truth out-of-spec onsets as the failure
  events instead of failed checks. Intervals still open at the end of a
  run are censored: dropped from the samples and counted.
* ``failures(node, window=w)``: failed-check count of the node in each
  complete tumbling window [k*w, (k+1)*w) of a run.
* ``param(node, name=p, when=before|after)``: the parameter's value
  recorded by each calibrate event of the node.
* ``time_between(node, event=calibrate|fail)``: gaps between
  consecutive matching events within a run.
* ``pct_time(node, op=check_data|calibrate)``: per run, total duration
  of matching operations divided by the run's cycle count.
* ``prob[trigger -> response within w]``: one boolean per trigger
  occurrence; true iff a matching response event lands in the half-open
  window (t, t+w]. ``within next_check`` closes the window at the
  response node's next check_data after the trigger (or the end of the
  run if it is never checked again).

Event patterns: ``fail(n)`` matches failed check_data events;
``calibrate(n)`` matches calibrate events regardless of outcome;
``shift(n, param=p, by=x)`` matches calibrate events whose relative
change in ``p``, |after - before| / max(|before|, 1e-9), exceeds x.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import (
    NoSamplesError,
    UnknownNodeError,
    UnknownParamError,
    UnsupportedPropertyError,
)
from .properties import (
    CALIBRATE_EVENT,
    CI,
    FAIL_EVENT,
    FAILURES,
    NEXT_CHECK,
    PARAM,
    PCT_TIME,
    SHIFT_EVENT,
    TIME_BETWEEN,
    TTF,
    CondQuery,
    EventPattern,
    Implication,
    MetricQuery,
    MetricRef,
    PropertyAst,
)
from .smc import LOWER, TWO_SIDED, UPPER, SmcConfig, SmcResult, exact_binomial_test, quantile_confidence_bound, quantile_confidence_interval, sprt_test
from .trace import CALIBRATE, CHECK_DATA, FAIL, ORACLE_OUT_OF_SPEC, PASS, SUCCESS, Dataset, Run, TraceEvent

REL_SHIFT_EPS = 1e-9


@dataclass(frozen=True)
class ExtractedSamples:
    """Sample values plus extraction diagnostics."""

    values: tuple
    n_censored: int = 0


def rel_shift(before: float, after: float) -> float:
    return abs(after - before) / max(abs(before), REL_SHIFT_EPS)


def calibration_shift(event: TraceEvent, param: str) -> float | None:
    """Relative change of ``param`` in a calibrate event; None for other
    events and for calibrations that do not record the parameter."""
    if event.op != CALIBRATE:
        return None
    before = dict(event.params_before or ())
    after = dict(event.params_after or ())
    if param not in before or param not in after:
        return None
    return rel_shift(before[param], after[param])


def _require_node(dataset: Dataset, node: str) -> None:
    if node not in dataset.nodes():
        raise UnknownNodeError(f"node {node!r} never appears in the dataset")


def _matches(event: TraceEvent, pattern: EventPattern) -> bool:
    """Whether an event of the pattern's node matches the pattern."""
    if pattern.kind == FAIL_EVENT:
        return event.op == CHECK_DATA and event.outcome == FAIL
    if pattern.kind == CALIBRATE_EVENT:
        return event.op == CALIBRATE
    if pattern.kind == SHIFT_EVENT:
        shift = calibration_shift(event, str(pattern.arg("param")))
        return shift is not None and shift > float(pattern.arg("by"))
    raise ValueError(f"unknown event pattern kind {pattern.kind!r}")


def _calibrations(dataset: Dataset, node: str) -> Iterator[TraceEvent]:
    """The node's calibrate events, run by run."""
    return (e for run in dataset.runs for e in run.by_node.get(node, ()) if e.op == CALIBRATE)


def _check_shift_param_known(dataset: Dataset, pattern: EventPattern) -> None:
    if pattern.kind != SHIFT_EVENT:
        return
    param = str(pattern.arg("param"))
    if not any(param in dict(e.params_before or ()) for e in _calibrations(dataset, pattern.node)):
        raise UnknownParamError(
            f"parameter {param!r} never appears in calibrations of node {pattern.node!r}"
        )


# --- metric extraction ---


def _ttf_samples(run: Run, metric: MetricRef) -> tuple[list[float], int]:
    anchor_mode = str(metric.arg("anchor", "verification"))
    if anchor_mode not in ("verification", "calibration"):
        raise ValueError(f"ttf anchor must be verification or calibration, got {anchor_mode!r}")
    oracle = str(metric.arg("oracle", "false")).lower() == "true"
    samples: list[float] = []
    anchor: float | None = None
    for e in run.by_node.get(metric.node, ()):
        failed = e.op == ORACLE_OUT_OF_SPEC if oracle else (e.op == CHECK_DATA and e.outcome == FAIL)
        if failed and anchor is not None:
            samples.append(float(e.time) - anchor)
            anchor = None
        if (e.op == CALIBRATE and e.outcome == SUCCESS) or (
            anchor_mode == "verification" and e.op == CHECK_DATA and e.outcome == PASS
        ):
            anchor = float(e.time)
    return samples, int(anchor is not None)


def _failures_samples(run: Run, metric: MetricRef) -> list[float]:
    window = metric.arg("window")
    if not isinstance(window, int) or window < 1:
        raise ValueError(f"failures window must be a positive integer, got {window!r}")
    counts = [0] * (run.meta.total_cycles // window)
    for e in run.by_node.get(metric.node, ()):
        if e.op == CHECK_DATA and e.outcome == FAIL and e.time // window < len(counts):
            counts[e.time // window] += 1
    return [float(c) for c in counts]


def _param_samples(run: Run, metric: MetricRef) -> list[float]:
    name = str(metric.arg("name"))
    when = str(metric.arg("when", "after"))
    if when not in ("before", "after"):
        raise ValueError(f"param 'when' must be before or after, got {when!r}")
    out: list[float] = []
    for e in run.by_node.get(metric.node, ()):
        if e.op == CALIBRATE:
            m = dict((e.params_before if when == "before" else e.params_after) or ())
            if name in m:
                out.append(m[name])
    return out


def _time_between_samples(run: Run, metric: MetricRef) -> list[float]:
    which = str(metric.arg("event"))
    if which not in (CALIBRATE_EVENT, FAIL_EVENT):
        raise ValueError(f"time_between event must be calibrate or fail, got {which!r}")
    pattern = EventPattern(kind=which, node=metric.node)
    ts = [e.time for e in run.by_node.get(metric.node, ()) if _matches(e, pattern)]
    return [float(b - a) for a, b in zip(ts, ts[1:])]


def _pct_time_samples(run: Run, metric: MetricRef) -> list[float]:
    op = str(metric.arg("op"))
    if op not in (CHECK_DATA, CALIBRATE):
        raise ValueError(f"pct_time op must be check_data or calibrate, got {op!r}")
    if run.meta.total_cycles <= 0:
        return []
    busy = sum(e.duration for e in run.by_node.get(metric.node, ()) if e.op == op)
    return [busy / run.meta.total_cycles]


def extract_metric(dataset: Dataset, metric: MetricRef) -> ExtractedSamples:
    """Scalar samples for a metric reference. Raises UnknownNodeError,
    UnknownParamError, or NoSamplesError."""
    _require_node(dataset, metric.node)
    values: list[float] = []
    censored = 0
    for run in dataset.runs:
        if metric.name == TTF:
            vs, c = _ttf_samples(run, metric)
            censored += c
        elif metric.name == FAILURES:
            vs = _failures_samples(run, metric)
        elif metric.name == PARAM:
            vs = _param_samples(run, metric)
        elif metric.name == TIME_BETWEEN:
            vs = _time_between_samples(run, metric)
        elif metric.name == PCT_TIME:
            vs = _pct_time_samples(run, metric)
        else:
            raise ValueError(f"unknown metric {metric.name!r}")
        values.extend(vs)
    if metric.name == PARAM and not values and any(_calibrations(dataset, metric.node)):
        raise UnknownParamError(
            f"parameter {metric.arg('name')!r} never appears in calibrations of {metric.node!r}"
        )
    if not values:
        raise NoSamplesError(f"metric {metric.name}({metric.node}, ...) produced no samples")
    return ExtractedSamples(values=tuple(values), n_censored=censored)


# --- conditional (trigger -> response) extraction ---


def _condition_samples(
    dataset: Dataset,
    trigger_node: str,
    trigger_match,
    response: EventPattern,
    window,
) -> ExtractedSamples:
    """Window logic shared by parsed prob queries and ad-hoc trigger
    predicates over ``trigger_node``'s events: one boolean per trigger,
    true iff a matching response lands in the half-open window after it."""
    out: list[bool] = []
    for run in dataset.runs:
        triggers = [e.time for e in run.by_node.get(trigger_node, ()) if trigger_match(e)]
        if not triggers:
            continue
        response_events = run.by_node.get(response.node, ())
        hits = [e.time for e in response_events if _matches(e, response)]
        checks = [e.time for e in response_events if e.op == CHECK_DATA]
        run_end = max(run.meta.total_cycles, run.events[-1].time)
        for t in triggers:
            if window == NEXT_CHECK:
                i = bisect_right(checks, t)
                hi = checks[i] if i < len(checks) else run_end
            else:
                hi = t + int(window)
            j = bisect_right(hits, t)
            out.append(j < len(hits) and hits[j] <= hi)
    return ExtractedSamples(values=tuple(out))


def extract_condition_samples(dataset: Dataset, query: CondQuery) -> ExtractedSamples:
    """One boolean per trigger occurrence; may be empty (no triggers)."""
    _require_node(dataset, query.trigger.node)
    _require_node(dataset, query.response.node)
    _check_shift_param_known(dataset, query.trigger)
    _check_shift_param_known(dataset, query.response)
    return _condition_samples(
        dataset, query.trigger.node, lambda e: _matches(e, query.trigger), query.response, query.window
    )


# --- property evaluation ---


def evaluate_property(
    dataset: Dataset,
    ast: PropertyAst,
    delta: float | None = None,
    interval_side: str = TWO_SIDED,
) -> SmcResult:
    """Evaluate a parsed property against a dataset.

    ``delta`` switches test-mode properties to the sequential test with
    the given indifference half-width. ``interval_side`` selects what a
    ci-mode property produces: a two-sided interval (default) or a
    one-sided bound.
    """
    if isinstance(ast.body, Implication):
        raise UnsupportedPropertyError(
            "run-level implication properties parse but their evaluation is not implemented"
        )
    if isinstance(ast.body, CondQuery):
        if ast.mode == CI:
            raise UnsupportedPropertyError(
                "ci mode is defined for metric bodies only; wrap a test around the probability"
            )
        if ast.F is not None:
            raise ValueError("prob queries fix F via the probability threshold; omit F=")
        samples = extract_condition_samples(dataset, ast.body)
        bools = list(samples.values)
        if ast.body.cmp == "<":
            cfg = SmcConfig(F=ast.body.probability, C=ast.C, delta=delta, side=LOWER)
        else:
            cfg = SmcConfig(F=ast.body.probability, C=ast.C, delta=delta, side=UPPER)
        return sprt_test(bools, cfg) if delta is not None else exact_binomial_test(bools, cfg)

    metric_q: MetricQuery = ast.body
    samples = extract_metric(dataset, metric_q.metric)
    values = [float(v) for v in samples.values]
    F = ast.F if ast.F is not None else 0.5
    if ast.mode == CI:
        if interval_side == TWO_SIDED:
            return quantile_confidence_interval(values, F, ast.C)
        return quantile_confidence_bound(values, F, ast.C, interval_side)
    if metric_q.cmp == ">":
        bools = [v > metric_q.threshold for v in values]
    else:
        bools = [v < metric_q.threshold for v in values]
    cfg = SmcConfig(F=F, C=ast.C, delta=delta, side=UPPER)
    return sprt_test(bools, cfg) if delta is not None else exact_binomial_test(bools, cfg)
