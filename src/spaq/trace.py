"""Line-delimited trace files and raw time-series ingestion.

A trace file holds one run: a JSON header line with run metadata, then
one JSON event per line in fixed field order. The format is append-only
and diff-friendly; identical runs produce byte-identical files.

Event vocabulary:

* ``check_data`` (pass/fail): a verification experiment ran.
* ``calibrate`` (success/failed): a recalibration attempt; carries the
  parameter values before and after.
* ``drift_sample`` (pass/fail): periodic ground-truth snapshot of a
  node's noiseless observable; outcome says whether the node was in
  spec. Also emitted at ground-truth recovery when the oracle is on.
* ``oracle_out_of_spec`` (fail): ground-truth onset of an out-of-spec
  excursion, oracle mode only.

Events additionally carry ``ep``, the maintenance-episode counter, so
scheduler invariants can be asserted by scanning a trace alone.

Where the strict checks live. The writer and the reader apply the same
rules, so every file the writer produces reads back:

* ``_check_event``, shared by both: the node, op and outcome are
  strings, the op is known and allows the outcome, and ``t``, ``dur``
  and ``ep`` are exact ints (``true`` is not 1, ``1.7`` is not a time),
  ``t`` and ``dur`` in 0..2**63-1 and ``ep`` an int64. ``_number``
  accepts only a finite number.
* ``TraceEvent.validate`` guards the writer: the above, a finite
  ``value``, and on calibrate events alone both parameter sets, finite
  and with no repeated name. ``TraceWriter.append_event`` also checks the
  run id and that time does not go back, before it writes anything.
* ``RunMeta.validate``, shared by both: every header field has its exact
  JSON type, the schema is known, the run id is not empty, ``seed`` is an
  int64 and ``total_cycles`` is in 0..2**63-1. ``TraceWriter`` calls it
  before it writes anything.
* ``_event_from_line`` checks one event line, once: it parses the line
  as ``json.loads`` would, rejects unknown fields, then applies the same
  rules to the JSON value with each field's exact JSON type.
  ``_read_trace`` checks the header's field set and ``RunMeta.validate``,
  then time order, and prefixes every event-line error with
  ``path:lineno``.

How events are laid out. A pooled analysis holds a million events or
more, so each is kept small and cheap to build:

* ``TraceEvent`` has slots and no ``__dict__``. Its written-out
  ``__init__`` sets each field through the slot's member descriptor,
  bound once at import, instead of ``object.__setattr__``.
* Events share their strings. The simulator passes the graph's node and
  parameter names and this module's op and outcome constants. The
  reader maps each op and outcome it accepts to the same constants, and
  keeps one string per node and parameter name for the whole file, so a
  run read back holds no more than the run that was simulated.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import ClockError, SchemaError

TRACE_SCHEMA = "spaq-trace-1"

CHECK_DATA = "check_data"
CALIBRATE = "calibrate"
DRIFT_SAMPLE = "drift_sample"
ORACLE_OUT_OF_SPEC = "oracle_out_of_spec"

PASS = "pass"
FAIL = "fail"
SUCCESS = "success"
FAILED = "failed"

_ALLOWED_OUTCOMES = {
    CHECK_DATA: (PASS, FAIL),
    CALIBRATE: (SUCCESS, FAILED),
    DRIFT_SAMPLE: (PASS, FAIL),
    ORACLE_OUT_OF_SPEC: (FAIL,),
}
# each op and outcome to the one string above, for events read back to share
_VOCABULARY = {name: name for name in (*_ALLOWED_OUTCOMES, PASS, FAIL, SUCCESS, FAILED)}

Params = tuple[tuple[str, float], ...]


@dataclass(frozen=True, init=False, slots=True)
class TraceEvent:
    run_id: str
    time: int
    node: str
    op: str
    outcome: str
    duration: int = 0
    ep: int = 0
    value: float | None = None
    params_before: Params | None = None
    params_after: Params | None = None

    def __init__(self, run_id: str, time: int, node: str, op: str, outcome: str, duration: int = 0, ep: int = 0,
                 value: float | None = None, params_before: Params | None = None,
                 params_after: Params | None = None) -> None:
        # params are kept sorted by name so round-trips preserve equality.
        # Written out because events are built by the thousand: each field
        # goes straight into its slot through the slot's own setter, where
        # the frozen dataclass's __init__ calls object.__setattr__ per field
        # and then __post_init__.
        if params_before is not None:
            params_before = tuple(sorted((str(k), float(v)) for k, v in params_before))
        if params_after is not None:
            params_after = tuple(sorted((str(k), float(v)) for k, v in params_after))
        _set_run_id(self, run_id)
        _set_time(self, time)
        _set_node(self, node)
        _set_op(self, op)
        _set_outcome(self, outcome)
        _set_duration(self, duration)
        _set_ep(self, ep)
        _set_value(self, value)
        _set_params_before(self, params_before)
        _set_params_after(self, params_after)

    def validate(self) -> None:
        """Raise SchemaError unless ``read_trace`` reads the event's line
        back as this event."""
        _check_event(self.time, self.node, self.op, self.outcome, self.duration, self.ep)
        if self.value is not None:
            # json writes a float subclass, such as numpy's float64, as a float
            _number(float(self.value) if isinstance(self.value, float) else self.value)
        has_params = self.params_before is not None or self.params_after is not None
        if (self.op == CALIBRATE) != has_params:
            raise SchemaError("params_before/params_after are present iff op is calibrate")
        if self.op == CALIBRATE:
            if self.params_before is None or self.params_after is None:
                raise SchemaError("calibrate events carry both params_before and params_after")
            for params in (self.params_before, self.params_after):
                if len({k for k, _ in params}) < len(params):
                    raise SchemaError(f"repeated parameter name in {params!r}")
                for _, v in params:
                    _number(v)


# each slot's setter, taken from the class that slots=True returned
(_set_run_id, _set_time, _set_node, _set_op, _set_outcome, _set_duration, _set_ep, _set_value, _set_params_before,
 _set_params_after) = [TraceEvent.__dict__[f.name].__set__ for f in fields(TraceEvent)]

# the exact JSON type of every header field; converting instead would
# accept true as 1 and truncate 1.7 to 1. A header carries every field.
_HEADER_TYPES = {
    "schema": str, "run_id": str, "seed": int, "graph_hash": str, "mode": str, "total_cycles": int,
}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class RunMeta:
    run_id: str
    seed: int
    graph_hash: str
    mode: str = "baseline"
    total_cycles: int = 0
    schema: str = TRACE_SCHEMA

    def validate(self) -> None:
        """Raise SchemaError unless ``read_trace`` reads the header line
        back as this header: every field of its exact JSON type, the known
        schema, a run id, and ``seed`` and ``total_cycles`` within int64."""
        for key, kind in _HEADER_TYPES.items():
            value = getattr(self, key)
            if type(value) is not kind:
                raise SchemaError(f"{key!r} cannot be {value!r}")
        if self.schema != TRACE_SCHEMA:
            raise SchemaError(f"unsupported trace schema {self.schema!r}; expected {TRACE_SCHEMA!r}")
        if not self.run_id:
            raise SchemaError("run_id must be non-empty")
        if not _INT64_MIN <= self.seed <= _INT64_MAX:
            raise SchemaError(f"'seed' {self.seed} is outside int64")
        if not 0 <= self.total_cycles <= _INT64_MAX:
            raise SchemaError(f"'total_cycles' {self.total_cycles} must be in 0..2**63-1")


# every (op, outcome) a trace may carry, op by op, so that the codes of
# one op form a range; NodeColumns.kind indexes this
_EVENT_KINDS = tuple((op, outcome) for op, outcomes in _ALLOWED_OUTCOMES.items() for outcome in outcomes)
_KIND_CODE = {
    op: {outcome: _EVENT_KINDS.index((op, outcome)) for outcome in outcomes}
    for op, outcomes in _ALLOWED_OUTCOMES.items()
}


def _param_columns(calibrations: list[TraceEvent], attr: str) -> dict[str, np.ndarray]:
    rows = [dict(getattr(e, attr) or ()) for e in calibrations]
    names = sorted({name for row in rows for name in row})
    return {name: np.array([row.get(name, math.nan) for row in rows], dtype=np.float64) for name in names}


@dataclass(frozen=True, eq=False)
class NodeColumns:
    """One node's events in a run as numpy columns.

    ``time`` (int64), ``kind`` and ``duration`` (int64) hold one entry per
    event of ``events``, in trace order; ``kind`` indexes ``_EVENT_KINDS``.
    ``params_before`` and ``params_after`` map each parameter that some
    calibration of the node records to a float64 array with one entry per
    calibrate event, in trace order, NaN where that calibration lacks it.
    Every column but ``time`` and ``kind`` is built on first use.
    """

    events: tuple[TraceEvent, ...]
    time: np.ndarray
    kind: np.ndarray
    _times: dict = field(default_factory=dict, repr=False)

    def mask(self, op: str, outcome: str | None = None) -> np.ndarray:
        """Which events have ``op`` (and ``outcome``, when given)."""
        codes = _KIND_CODE[op]
        if outcome is not None:
            return self.kind == codes[outcome]
        return (self.kind >= min(codes.values())) & (self.kind <= max(codes.values()))

    def times(self, op: str, outcome: str | None = None) -> np.ndarray:
        """Sorted times of the events with ``op`` (and ``outcome``, when
        given), kept after the first call."""
        key = (op, outcome)
        if key not in self._times:
            self._times[key] = self.time[self.mask(op, outcome)]
        return self._times[key]

    @cached_property
    def duration(self) -> np.ndarray:
        return np.fromiter([e.duration for e in self.events], np.int64, len(self.events))

    @cached_property
    def _calibrations(self) -> list[TraceEvent]:
        return [e for e in self.events if e.op == CALIBRATE]

    @cached_property
    def params_before(self) -> dict[str, np.ndarray]:
        return _param_columns(self._calibrations, "params_before")

    @cached_property
    def params_after(self) -> dict[str, np.ndarray]:
        return _param_columns(self._calibrations, "params_after")


def event_columns(run: "Run") -> dict[str, NodeColumns]:
    """Each node's columns, in order of the node's first event, from one
    pass over ``run.events`` and one over each node's events."""
    grouped: dict[str, list[TraceEvent]] = {}
    for e in run.events:
        grouped.setdefault(e.node, []).append(e)
    return {
        node: NodeColumns(
            events=tuple(events),
            time=np.fromiter([e.time for e in events], np.int64, len(events)),
            kind=np.fromiter([_KIND_CODE[e.op][e.outcome] for e in events], np.int8, len(events)),
        )
        for node, events in grouped.items()
    }


@dataclass(frozen=True)
class Run:
    """One run's header and events.

    Events are in non-decreasing time order, as ``read_trace`` and
    ``Simulator.finish`` produce them. The analysis layer relies on that
    order and does not check it: it answers event patterns from each
    node's sorted time columns (``columns``) by binary search, and among
    events at one cycle it follows trace order. ``columns`` is also the
    one per-node view of the events: each node's ``NodeColumns.events``.
    """

    meta: RunMeta
    events: tuple[TraceEvent, ...]

    @cached_property
    def columns(self) -> dict[str, NodeColumns]:
        """Each node's events as numpy columns, built on first use."""
        return event_columns(self)


@dataclass(frozen=True)
class Dataset:
    runs: tuple[Run, ...]

    @property
    def run_ids(self) -> tuple[str, ...]:
        return tuple(r.meta.run_id for r in self.runs)

    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted({node for r in self.runs for node in r.columns}))


# a string as json.dumps writes it, cached: traces repeat a few node and
# parameter names
_quote = lru_cache(maxsize=1024)(json.encoder.encode_basestring_ascii)


def _params_text(params: Params) -> str:
    return "{" + ",".join([f"{_quote(k)}:{float.__repr__(v)}" for k, v in params]) + "}"


def _event_to_line(e: TraceEvent) -> str:
    """A validated event's line, byte for byte what ``json.dumps`` writes
    for it: exact ints format as ``int.__repr__``, floats as
    ``float.__repr__``, and the op and outcome need no escapes."""
    line = (f'{{"t":{e.time},"node":{_quote(e.node)},"op":"{e.op}","outcome":"{e.outcome}",'
            f'"dur":{e.duration},"ep":{e.ep}')
    if e.value is not None:
        value = float.__repr__(e.value) if isinstance(e.value, float) else int.__repr__(e.value)
        line += f',"value":{value}'
    if e.op == CALIBRATE:
        line += f',"before":{_params_text(e.params_before)},"after":{_params_text(e.params_after)}'
    return line + "}"


_EVENT_FIELDS = frozenset(("t", "node", "op", "outcome", "dur", "ep", "value", "before", "after"))

_scan_value = json.JSONDecoder().scan_once


def _parse_line(line: str):
    """The one JSON value on ``line``, as ``json.loads`` reads it."""
    # json.loads allows " \t\n\r" around a value and nothing else;
    # str.strip() would also take \x0b, \x1c or \u2028
    text = line.strip(" \t\n\r")
    try:
        value, end = _scan_value(text, 0)
    except StopIteration as exc:
        raise SchemaError(f"malformed JSON: expecting a value at {exc.value}") from None
    except ValueError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from None
    if end != len(text):
        raise SchemaError(f"malformed JSON: extra data at {end}")
    return value


def _check_event(t, node, op, outcome, dur, ep) -> None:
    """The rules for an event's scalar fields, alike in memory and on disk:
    exact types, so that true is not 1 and 1.7 is not a time, a known op
    with an outcome it allows, and the ranges of int64 columns."""
    if type(node) is not str or type(op) is not str or type(outcome) is not str:
        raise SchemaError(f"node, op and outcome must be strings, got {node!r}, {op!r}, {outcome!r}")
    if op not in _ALLOWED_OUTCOMES:
        raise SchemaError(f"unknown op {op!r}")
    if outcome not in _ALLOWED_OUTCOMES[op]:
        raise SchemaError(f"op {op} cannot have outcome {outcome!r}")
    if type(t) is not int or type(dur) is not int or type(ep) is not int:
        raise SchemaError(f"time, duration and ep must be ints, got {t!r}, {dur!r}, {ep!r}")
    if not (0 <= t <= _INT64_MAX and 0 <= dur <= _INT64_MAX and _INT64_MIN <= ep <= _INT64_MAX):
        raise SchemaError(f"time {t} and duration {dur} must be in 0..2**63-1 and ep {ep} an int64")


def _number(raw) -> float:
    """A finite JSON number (an exact int or float) as a float."""
    if type(raw) is float:
        if math.isfinite(raw):
            return raw
    elif type(raw) is int:
        try:
            return float(raw)  # finite, or OverflowError
        except OverflowError:
            pass
    raise SchemaError(f"expected a finite number, got {raw!r}")


def _params(raw, names: dict[str, str]) -> Params:
    if type(raw) is not dict:
        raise SchemaError(f"calibrate events carry before and after objects, got {raw!r}")
    return tuple([(names.setdefault(k, k), _number(v)) for k, v in raw.items()])


def _event_from_line(line: str, run_id: str, names: dict[str, str]) -> TraceEvent:
    """The event on one trace line. Every check of an event line is made
    here, once: the JSON syntax, the field set, the scalar fields
    (``_check_event``), finite numbers, and params iff calibrate.

    The event holds the module's op and outcome strings, and the node and
    parameter names from ``names``, which gains each name it lacks."""
    obj = _parse_line(line)
    if type(obj) is not dict or not obj.keys() <= _EVENT_FIELDS:
        raise SchemaError(f"malformed event line: {obj!r}")
    get = obj.get
    t, node, op, outcome, dur, ep = get("t"), get("node"), get("op"), get("outcome"), get("dur", 0), get("ep", 0)
    _check_event(t, node, op, outcome, dur, ep)
    node, op, outcome = names.setdefault(node, node), _VOCABULARY[op], _VOCABULARY[outcome]
    value = _number(obj["value"]) if "value" in obj else None
    if op == CALIBRATE:
        before, after = _params(get("before"), names), _params(get("after"), names)
    elif "before" in obj or "after" in obj:
        raise SchemaError(f"only calibrate events carry before and after: {obj!r}")
    else:
        before = after = None
    return TraceEvent(run_id, t, node, op, outcome, dur, ep, value, before, after)


@contextmanager
def atomic_write(path: str | Path, newline: str | None = None):
    """Open ``path`` for writing text that appears there whole or not at all.

    The text goes to a temporary file in the same directory, which
    replaces ``path`` when the block exits normally and is removed when
    it raises, so an interrupted writer leaves the old file (or none).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class TraceWriter:
    """Append-only writer for a single run's trace file.

    The file appears at ``path`` when the writer closes, or, used as a
    context manager, when its block exits without an exception.
    """

    def __init__(self, path: str | Path, meta: RunMeta):
        meta.validate()
        self.meta = meta
        self._last_time = -1
        header = {
            "schema": meta.schema,
            "run_id": meta.run_id,
            "seed": meta.seed,
            "graph_hash": meta.graph_hash,
            "mode": meta.mode,
            "total_cycles": meta.total_cycles,
        }
        with ExitStack() as stack:
            self._fh = stack.enter_context(atomic_write(path))
            self._fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            self._file = stack.pop_all()

    def append_event(self, event: TraceEvent) -> None:
        event.validate()
        if event.run_id != self.meta.run_id:
            raise SchemaError(f"event run_id {event.run_id!r} does not match writer {self.meta.run_id!r}")
        if event.time < self._last_time:
            raise ClockError(f"event time {event.time} precedes previous {self._last_time}")
        self._last_time = event.time
        self._fh.write(_event_to_line(event) + "\n")

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._file.__exit__(*exc)


def read_trace(path: str | Path) -> Run:
    """Parse and validate one run. Raises SchemaError / ClockError."""
    try:
        return _read_trace(path)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8: {exc}") from exc


def _read_trace(path: str | Path) -> Run:
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise SchemaError(f"{path}: empty trace file")
        try:
            header = _parse_line(header_line)
        except SchemaError as exc:
            raise SchemaError(f"{path}: malformed header: {exc}") from None
        if type(header) is not dict or not header.keys() <= _HEADER_TYPES.keys():
            raise SchemaError(f"{path}: malformed header: {header!r}")
        for key in _HEADER_TYPES:
            if key not in header:
                raise SchemaError(f"{path}: header lacks {key!r}")
        meta = RunMeta(**header)
        try:
            meta.validate()
        except SchemaError as exc:
            raise SchemaError(f"{path}: malformed header: {exc}") from None
        events: list[TraceEvent] = []
        names: dict[str, str] = {}  # one string per node and parameter name
        last_t = -1
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                ev = _event_from_line(line, meta.run_id, names)
            except SchemaError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            if ev.time < last_t:
                raise ClockError(f"{path}:{lineno}: time {ev.time} precedes previous {last_t}")
            last_t = ev.time
            events.append(ev)
    return Run(meta=meta, events=tuple(events))


def write_trace(path: str | Path, run: Run) -> None:
    with TraceWriter(path, run.meta) as w:
        for e in run.events:
            w.append_event(e)


def merge_runs(runs: list[Run]) -> Dataset:
    """Bundle runs into a dataset; run ids must be unique."""
    seen: set[str] = set()
    for r in runs:
        rid = r.meta.run_id
        if rid in seen:
            raise SchemaError(f"duplicate run_id {rid!r} in merge")
        seen.add(rid)
    return Dataset(runs=tuple(runs))


def load_dataset(paths: list[str | Path]) -> Dataset:
    return merge_runs([read_trace(p) for p in paths])


# --- raw time-series ingestion ---


def import_timeseries_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column CSV with ``time`` and ``value`` headers."""
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"time", "value"} <= set(reader.fieldnames):
            raise SchemaError(f"{path}: CSV must have 'time' and 'value' columns, got {reader.fieldnames}")
        for row in reader:
            times.append(float(row["time"]))
            values.append(float(row["value"]))
    t = np.asarray(times, dtype=float)
    if t.size and np.any(np.diff(t) < 0):
        raise ClockError(f"{path}: time column must be non-decreasing")
    return t, np.asarray(values, dtype=float)


@dataclass(frozen=True)
class FailureExtraction:
    failure_times: tuple[float, ...]
    intervals: tuple[float, ...] = field(default=())


def extract_failures_from_timeseries(
    times: np.ndarray, values: np.ndarray, threshold: float
) -> FailureExtraction:
    """Mark failures where the value deviates from its reference by more
    than ``threshold``; the reference resets to the failing value (the
    series start acts like a fresh calibration).

    Inter-failure intervals include the initial stretch from the start
    of the series to the first failure, then the gaps between
    consecutive failures.
    """
    if len(times) != len(values):
        raise ValueError("times and values must have the same length")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if len(times) == 0:
        return FailureExtraction(failure_times=(), intervals=())
    ref = float(values[0])
    fail_ts: list[float] = []
    for t, v in zip(times, values):
        if abs(float(v) - ref) > threshold:
            fail_ts.append(float(t))
            ref = float(v)
    if not fail_ts:
        return FailureExtraction(failure_times=(), intervals=())
    anchors = [float(times[0])] + fail_ts[:-1]
    intervals = tuple(ft - a for a, ft in zip(anchors, fail_ts))
    return FailureExtraction(failure_times=tuple(fail_ts), intervals=intervals)
