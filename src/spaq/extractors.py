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

Every pattern resolves to a sorted array of event times per run, read
off the run's cached per-node columns (``Run.columns``); windows are
found by binary search on those arrays. Among events at one cycle, the
order is the trace's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoSamplesError, UnknownNodeError, UnknownParamError
from .properties import (
    CALIBRATE_EVENT,
    CI,
    FAIL_EVENT,
    FAILURES,
    NEXT_CHECK,
    PARAM,
    SHIFT_EVENT,
    TIME_BETWEEN,
    TTF,
    CondQuery,
    EventPattern,
    MetricQuery,
    MetricRef,
    PropertyAst,
)
from .smc import LOWER, TWO_SIDED, UPPER, SmcConfig, SmcResult, exact_binomial_test, quantile_confidence_bound, quantile_confidence_interval, sprt_test
from .trace import CALIBRATE, CHECK_DATA, FAIL, ORACLE_OUT_OF_SPEC, PASS, SUCCESS, Dataset, Run

REL_SHIFT_EPS = 1e-9
# the op and outcome of the events that a fail or calibrate pattern matches
_MATCHES = {FAIL_EVENT: (CHECK_DATA, FAIL), CALIBRATE_EVENT: (CALIBRATE, None)}
_NO_TIMES = np.zeros(0, dtype=np.int64)
_NEVER = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ExtractedSamples:
    """Sample values plus extraction diagnostics."""

    values: tuple
    n_censored: int = 0


def rel_shift(before, after):
    """|after - before| / max(|before|, 1e-9), on floats or float64 arrays
    (NaN in, NaN out)."""
    return np.abs(after - before) / np.maximum(np.abs(before), REL_SHIFT_EPS)


def _require_node(dataset: Dataset, node: str) -> None:
    if node not in dataset.nodes():
        raise UnknownNodeError(f"node {node!r} never appears in the dataset")


def _calibrated(dataset: Dataset, node: str) -> bool:
    return any(len(_node_times(run, node, CALIBRATE)) for run in dataset.runs)


def _node_times(run: Run, node: str, op: str, outcome: str | None = None) -> np.ndarray:
    """Sorted times of the node's events with ``op`` (and ``outcome``)."""
    cols = run.columns.get(node)
    return _NO_TIMES if cols is None else cols.times(op, outcome)


def calibration_shifts(run: Run, node: str, param: str) -> tuple[np.ndarray, np.ndarray]:
    """The node's calibration times in a run, and the relative change of
    ``param`` at each; NaN where a calibration does not record it."""
    cols = run.columns.get(node)
    if cols is None:
        return _NO_TIMES, np.zeros(0)
    times = cols.times(CALIBRATE)
    before, after = cols.params_before.get(param), cols.params_after.get(param)
    if before is None or after is None:
        return times, np.full(len(times), np.nan)
    return times, rel_shift(before, after)


def _pattern_times(run: Run, pattern: EventPattern) -> np.ndarray:
    """Sorted times of the run's events that match the pattern."""
    if pattern.kind in _MATCHES:
        return _node_times(run, pattern.node, *_MATCHES[pattern.kind])
    # shift: calibrations that move the parameter by more than ``by``
    times, shifts = calibration_shifts(run, pattern.node, pattern.arg("param"))
    # NaN compares false: a calibration without the parameter never matches
    return times[shifts > pattern.arg("by")]


def _check_shift_param_known(dataset: Dataset, pattern: EventPattern) -> None:
    if pattern.kind != SHIFT_EVENT:
        return
    param, node = pattern.arg("param"), pattern.node
    if not any(node in run.columns and param in run.columns[node].params_before for run in dataset.runs):
        raise UnknownParamError(
            f"parameter {param!r} never appears in calibrations of node {pattern.node!r}"
        )


# --- metric extraction ---


def _ttf_samples(run: Run, metric: MetricRef) -> tuple[list[float], int]:
    oracle = metric.arg("oracle") == "true"
    cols = run.columns.get(metric.node)
    if cols is None:
        return [], 0
    failed = cols.mask(ORACLE_OUT_OF_SPEC) if oracle else cols.mask(CHECK_DATA, FAIL)
    anchor = cols.mask(CALIBRATE, SUCCESS)
    if metric.arg("anchor") == "verification":
        anchor |= cols.mask(CHECK_DATA, PASS)
    marks = failed | anchor
    t, is_anchor = cols.time[marks], anchor[marks]
    # in trace order, a failure right after an anchor closes an interval;
    # the anchor is the latest one, and a failure after a failure has none
    closes = is_anchor[:-1] & ~is_anchor[1:]
    return np.diff(t)[closes].astype(np.float64).tolist(), int(len(t) > 0 and is_anchor[-1])


def _failures_samples(run: Run, metric: MetricRef) -> list[float]:
    window = metric.arg("window")
    n = run.meta.total_cycles // window
    if n == 0:
        return []
    k = _node_times(run, metric.node, CHECK_DATA, FAIL) // window
    return np.bincount(k[k < n], minlength=n).astype(np.float64).tolist()


def _param_samples(run: Run, metric: MetricRef) -> list[float]:
    name, when = metric.arg("name"), metric.arg("when")
    cols = run.columns.get(metric.node)
    values = None if cols is None else (cols.params_before if when == "before" else cols.params_after).get(name)
    return [] if values is None else values[~np.isnan(values)].tolist()


def _time_between_samples(run: Run, metric: MetricRef) -> list[float]:
    ts = _node_times(run, metric.node, *_MATCHES[metric.arg("event")])
    return np.diff(ts).astype(np.float64).tolist()


def _pct_time_samples(run: Run, metric: MetricRef) -> list[float]:
    if run.meta.total_cycles <= 0:
        return []
    cols = run.columns.get(metric.node)
    busy = int(cols.duration[cols.mask(metric.arg("op"))].sum()) if cols is not None else 0
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
        else:  # pct_time
            vs = _pct_time_samples(run, metric)
        values.extend(vs)
    if metric.name == PARAM and not values and _calibrated(dataset, metric.node):
        raise UnknownParamError(
            f"parameter {metric.arg('name')!r} never appears in calibrations of {metric.node!r}"
        )
    if not values:
        raise NoSamplesError(f"metric {metric.name}({metric.node}, ...) produced no samples")
    return ExtractedSamples(values=tuple(values), n_censored=censored)


# --- conditional (trigger -> response) extraction ---


def _condition_samples(
    dataset: Dataset,
    triggers: list[np.ndarray],
    response: EventPattern,
    window,
) -> ExtractedSamples:
    """Window logic shared by parsed prob queries and ad-hoc trigger sets:
    ``triggers`` holds each run's sorted trigger times. One boolean per
    trigger, true iff a matching response lands in the half-open window
    after it."""
    out: list[bool] = []
    for run, t in zip(dataset.runs, triggers):
        if not len(t):
            continue
        run_end = max(run.meta.total_cycles, int(run.time[-1]))
        if window == NEXT_CHECK:
            checks = _node_times(run, response.node, CHECK_DATA)
            hi = np.append(checks, run_end)[np.searchsorted(checks, t, side="right")]
        else:
            # no event lies past run_end, so a longer window finds nothing
            # more; the cap keeps t + w within int64
            hi = t + min(int(window), run_end)
        hits = _pattern_times(run, response)
        # the first hit after each trigger; past the last hit, a time no window reaches
        first = np.append(hits, _NEVER)[np.searchsorted(hits, t, side="right")]
        out.extend((first <= hi).tolist())
    return ExtractedSamples(values=tuple(out))


def extract_condition_samples(dataset: Dataset, query: CondQuery) -> ExtractedSamples:
    """One boolean per trigger occurrence; may be empty (no triggers)."""
    _require_node(dataset, query.trigger.node)
    _require_node(dataset, query.response.node)
    _check_shift_param_known(dataset, query.trigger)
    _check_shift_param_known(dataset, query.response)
    triggers = [_pattern_times(run, query.trigger) for run in dataset.runs]
    return _condition_samples(dataset, triggers, query.response, query.window)


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
    if isinstance(ast.body, CondQuery):
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
