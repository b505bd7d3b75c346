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

* ``_check_event``, for one event in memory or on a line: the node, op
  and outcome are strings, the op is known and allows the outcome, and
  ``t``, ``dur`` and ``ep`` are exact ints (``true`` is not 1, ``1.7`` is
  not a time), ``t`` and ``dur`` in 0..2**63-1 and ``ep`` an int64.
  ``TraceEvent.validate`` adds a finite ``value`` and, on calibrate
  events alone, both parameter sets (``_check_params``: finite, no
  repeated name, and each name one that ``_check_name`` accepts: no high
  surrogate followed by a low one, whose two escapes would read back as
  one character). ``_event_from_line`` applies the same rules to one
  line's JSON value, after it parses the line as ``json.loads`` would
  and rejects unknown fields.
* ``RunMeta.validate``, for the header: every field has its exact JSON
  type, the schema is known, the run id is not empty, ``seed`` is an
  int64 and ``total_cycles`` is in 0..2**63-1.
* ``_check_columns``, for a run's columns: time does not go back, times
  and durations are not negative, values are finite, ``_check_name``
  accepts each node name, and each calibrate event has both parameter
  sets, which ``_check_params`` accepts. It is called by ``Run(meta,
  events)``, by the writer (``_column_text``, before a file is opened,
  so a refused run leaves no file; ``write_trace`` puts the path and run
  id in front of its message) and by the reader's fast path.
* The reader's fast path, ``_canonical_columns``, reads a file whose
  event lines are all the writer's own, in one pass of one regex,
  ``_CANONICAL``, over their text: the fields in the writer's order, no
  whitespace, escapes in names only as the writer writes them (each
  distinct name decoded once, by ``json.loads``), a known (op, outcome),
  ints of at most 18 digits (so within int64) and floats as
  ``float.__repr__`` writes them. Any other file is read line by line:
  ``_read_trace`` checks each line with ``_event_from_line`` and time
  order as it goes, and prefixes every event-line error with
  ``path:lineno``.

How events are laid out. A pooled analysis holds a million events or
more, and reads them by node, op and time, so a run keeps them as
columns (see ``Run``): flat per-run arrays in trace order, which the
simulator and the reader build from one row per event
(``run_from_rows``), or the reader's fast path straight from the file's
text. Nothing builds a ``TraceEvent`` until ``Run.events`` is asked for:

* ``Run.columns`` groups the arrays by node with one stable sort
  (``event_columns``); the extractors and ``availability`` read only
  these groups and the run's own arrays.
* Strings are shared: each run lists its node names once, the
  (op, outcome) pair is a code into ``_EVENT_KINDS``, and the reader
  keeps one string per parameter name for the whole file, so a run read
  back holds no more than the run that was simulated.
* A run pickles as its arrays, a few buffers, and not as events.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass, field
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

Params = tuple[tuple[str, float], ...]


def _sorted_params(params) -> Params | None:
    # params are kept sorted by name so round-trips preserve equality
    return None if params is None else tuple(sorted((str(k), float(v)) for k, v in params))


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "params_before", _sorted_params(self.params_before))
        object.__setattr__(self, "params_after", _sorted_params(self.params_after))

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
            _check_params(self.params_before)
            _check_params(self.params_after)


def _check_params(params: Params) -> None:
    if len({k for k, _ in params}) < len(params):
        raise SchemaError(f"repeated parameter name in {params!r}")
    for k, v in params:
        _check_name(k)
        _number(v)


# a high surrogate followed by a low one: _quote writes them as two
# escapes, which json.loads reads back as one character
_surrogate_pair = re.compile("[\ud800-\udbff][\udc00-\udfff]").search


def _check_name(name: str) -> None:
    if _surrogate_pair(name):
        raise SchemaError(f"name {name!r} holds a surrogate pair, which a trace file reads back as one character")


def _check_columns(cols) -> None:
    """The rules for a run's columns (keyed as in ``_COLUMNS``), which no
    one line can show: raises ClockError when time goes back, and
    SchemaError for a negative time or duration, a value that is not
    finite, a node name that ``_check_name`` refuses, or a calibrate
    event that lacks a param set or has one that ``_check_params``
    refuses."""
    time = cols["time"]
    back = np.flatnonzero(time[1:] < time[:-1])
    if back.size:
        i = back[0]
        raise ClockError(f"event time {time[i + 1]} precedes previous {time[i]}")
    if (time < 0).any() or (cols["duration"] < 0).any():
        raise SchemaError("event times and durations must be in 0..2**63-1")
    if not np.isfinite(cols["value"][cols["has_value"]]).all():
        raise SchemaError("event values must be finite")
    for name in cols["names"]:
        _check_name(name)
    for pair in cols["params"]:
        if None in pair:
            raise SchemaError("calibrate events carry both params_before and params_after")
        for params in pair:
            _check_params(params)


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
# one op form a range; Run.kind and NodeColumns.kind index this
_EVENT_KINDS = tuple((op, outcome) for op, outcomes in _ALLOWED_OUTCOMES.items() for outcome in outcomes)
_KIND_CODE = {
    op: {outcome: _EVENT_KINDS.index((op, outcome)) for outcome in outcomes}
    for op, outcomes in _ALLOWED_OUTCOMES.items()
}
_CALIBRATE_CODES = tuple(_KIND_CODE[CALIBRATE].values())


def _is_calibrate(kind: np.ndarray) -> np.ndarray:
    return (kind >= _CALIBRATE_CODES[0]) & (kind <= _CALIBRATE_CODES[-1])


def _param_columns(calibrations: tuple, side: int) -> dict[str, np.ndarray]:
    rows = [dict(pair[side] or ()) for pair in calibrations]
    names = sorted({name for row in rows for name in row})
    return {name: np.array([row.get(name, math.nan) for row in rows], dtype=np.float64) for name in names}


@dataclass(frozen=True, eq=False)
class NodeColumns:
    """One node's events in a run, grouped out of the run's columns.

    ``time`` (int64), ``kind`` (int8, an index into ``_EVENT_KINDS``) and
    ``duration`` (int64) hold one entry per event of the node, in trace
    order: slices of the run's columns after one stable sort by node, so
    the nodes of a run share three arrays. ``calibrations`` holds the
    ``(params_before, params_after)`` of each of the node's calibrate
    events, in trace order. ``params_before`` and ``params_after`` map
    each parameter that some of those calibrations record to a float64
    array with one entry per calibration, NaN where that calibration
    lacks it; they are built on first use.
    """

    time: np.ndarray
    kind: np.ndarray
    duration: np.ndarray
    calibrations: tuple[tuple[Params | None, Params | None], ...]
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
    def params_before(self) -> dict[str, np.ndarray]:
        return _param_columns(self.calibrations, 0)

    @cached_property
    def params_after(self) -> dict[str, np.ndarray]:
        return _param_columns(self.calibrations, 1)


def event_columns(run: "Run") -> dict[str, NodeColumns]:
    """Each node's columns, in order of the node's first event, from one
    stable sort of the run's columns by node."""
    order = np.argsort(run.node, kind="stable")
    ends = np.cumsum(np.bincount(run.node, minlength=len(run.names))).tolist()
    time, kind, duration = run.time[order], run.kind[order], run.duration[order]
    calibrations: list[list] = [[] for _ in run.names]
    for n, params in zip(run.node[_is_calibrate(run.kind)].tolist(), run.params):
        calibrations[n].append(params)
    out = {}
    start = 0
    for name, end, node_calibrations in zip(run.names, ends, calibrations):
        out[name] = NodeColumns(time[start:end], kind[start:end], duration[start:end], tuple(node_calibrations))
        start = end
    return out


# a run's columns, in the order _from_columns takes them; every one but
# names and params is an array with one entry per event
_COLUMNS = ("names", "node", "kind", "time", "duration", "ep", "value", "has_value", "params")
_ARRAYS = _COLUMNS[1:-1]


class Run:
    """One run's header and its events as columns.

    One entry per event, in trace order: ``time``, ``duration`` and
    ``ep`` (int64), ``node`` (int32, an index into ``names``, which lists
    each node once in order of its first event), ``kind`` (int8, the
    (op, outcome) as an index into ``_EVENT_KINDS``), ``value`` (float64)
    and ``has_value`` (bool), which keeps an event without a value apart
    from one whose value is 0.0; ``value`` is 0.0 where it is False.
    ``params`` holds each calibrate event's ``(params_before,
    params_after)``, in trace order, as the events carry them.

    Events are in non-decreasing time order, as ``read_trace`` and
    ``Simulator.finish`` produce them. The analysis layer relies on that
    order and does not check it: it answers event patterns from each
    node's sorted time columns (``columns``) by binary search, and among
    events at one cycle it follows trace order.

    ``events`` gives the ``TraceEvent``s, built from the columns on first
    use. ``Run(meta, events)`` checks each event as a trace line must
    hold it (``TraceEvent.validate``, the run's id) and the columns
    they make (``_check_columns``), and raises ``SchemaError`` or
    ``ClockError`` otherwise; it keeps only the columns, with each value
    as a float, so a run holds exactly what writing its events and
    reading them back gives. Runs compare equal when their headers and
    columns are equal.
    """

    def __init__(self, meta: RunMeta, events) -> None:
        rows = []
        for e in events:
            e.validate()
            if e.run_id != meta.run_id:
                raise SchemaError(f"event run_id {e.run_id!r} does not match run {meta.run_id!r}")
            value = None if e.value is None else float(e.value)
            rows.append((e.time, e.node, _KIND_CODE[e.op][e.outcome], e.duration, e.ep, value, e.params_before,
                         e.params_after))
        cols = _row_columns(rows)
        _check_columns(cols)
        self.__dict__.update(cols, meta=meta)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @cached_property
    def events(self) -> tuple[TraceEvent, ...]:
        """The run's events, built from its columns on first use."""
        return self._events()

    def _events(self) -> tuple[TraceEvent, ...]:
        rid, names, kinds, params = self.meta.run_id, self.names, _EVENT_KINDS, iter(self.params)
        out = []
        for n, k, t, dur, ep, v, has in zip(self.node.tolist(), self.kind.tolist(), self.time.tolist(),
                                            self.duration.tolist(), self.ep.tolist(), self.value.tolist(),
                                            self.has_value.tolist()):
            op, outcome = kinds[k]
            before, after = next(params) if op == CALIBRATE else (None, None)
            out.append(TraceEvent(rid, t, names[n], op, outcome, dur, ep, v if has else None, before, after))
        return tuple(out)

    @cached_property
    def columns(self) -> dict[str, NodeColumns]:
        """Each node's events as numpy columns, built on first use."""
        return event_columns(self)

    def __eq__(self, other):
        if not isinstance(other, Run):
            return NotImplemented
        if self is other:
            return True
        if self.meta != other.meta:
            return False
        return (self.names == other.names and self.params == other.params
                and all(np.array_equal(self.__dict__[c], other.__dict__[c]) for c in _ARRAYS))

    def __hash__(self) -> int:
        return hash(self.meta)

    def __repr__(self) -> str:
        # events built only to be printed are not kept
        events = self.__dict__.get("events")
        return f"Run(meta={self.meta!r}, events={events if events is not None else self._events()!r})"

    def __reduce__(self):
        return _from_columns, (self.meta, {c: self.__dict__[c] for c in _COLUMNS})


def _from_columns(meta: RunMeta, cols: dict) -> Run:
    """The run with these columns, keyed as in ``_COLUMNS``."""
    run = Run.__new__(Run)
    run.__dict__.update(cols, meta=meta)
    return run


def _columns(node, kind, time, duration, ep, value, calibrations) -> dict:
    """A run's columns, keyed as in ``_COLUMNS``, from one sequence per
    field in trace order: ``node`` holds names, ``value`` None where an
    event has none, and ``calibrations`` each calibrate event's
    (before, after). The names are listed in order of each node's first
    event, and the params sorted by name, as ``TraceEvent`` keeps them."""
    names = tuple(dict.fromkeys(node))
    return {
        "names": names,
        "node": np.array(list(map({name: i for i, name in enumerate(names)}.__getitem__, node)), np.int32),
        "kind": np.asarray(kind, np.int8),
        "time": np.asarray(time, np.int64),
        "duration": np.asarray(duration, np.int64),
        "ep": np.asarray(ep, np.int64),
        "value": np.array([0.0 if v is None else v for v in value], np.float64),
        "has_value": np.array([v is not None for v in value], np.bool_),
        "params": tuple([(_sorted_params(b), _sorted_params(a)) for b, a in calibrations]),
    }


def _row_columns(rows: list[tuple]) -> dict:
    """The columns (see ``_columns``) of events given as rows, ``(time,
    node, code, duration, ep, value, before, after)``, where ``code``
    indexes ``_EVENT_KINDS``, ``value`` is None when the event carries
    none, and ``before`` and ``after`` are a calibrate event's (name,
    value) pairs, None on any other event. The columns keep the rows'
    order."""
    time, node, kind, duration, ep, value, before, after = zip(*rows) if rows else ((),) * 8
    kind = np.array(kind, np.int8)
    calibrations = [(before[i], after[i]) for i in np.flatnonzero(_is_calibrate(kind)).tolist()]
    return _columns(node, kind, time, duration, ep, value, calibrations)


def run_from_rows(meta: RunMeta, rows: list[tuple]) -> Run:
    """The run of events given as rows (see ``_row_columns``): how the
    simulator and the reader build theirs."""
    return _from_columns(meta, _row_columns(rows))


@dataclass(frozen=True)
class Dataset:
    runs: tuple[Run, ...]

    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted({node for r in self.runs for node in r.names}))


# a string as json.dumps writes it, cached: traces repeat a few node and
# parameter names
_quote = lru_cache(maxsize=1024)(json.encoder.encode_basestring_ascii)


def _params_text(params: Params) -> str:
    return "{" + ",".join([f"{_quote(k)}:{float.__repr__(v)}" for k, v in params]) + "}"


def _column_text(run: Run) -> str:
    """The run's event lines, each byte for byte what ``json.dumps``
    writes for its event: ints format as ``int.__repr__``, floats as
    ``float.__repr__``, and the op and outcome need no escapes. Raises as
    ``_check_columns`` does for columns that no file can hold."""
    _check_columns(run.__dict__)
    nodes = [_quote(name) for name in run.names]
    kinds = [f'"op":"{op}","outcome":"{outcome}"' for op, outcome in _EVENT_KINDS]
    params = iter(run.params)
    lines = []
    for n, k, t, dur, ep, v, has in zip(run.node.tolist(), run.kind.tolist(), run.time.tolist(),
                                        run.duration.tolist(), run.ep.tolist(), run.value.tolist(),
                                        run.has_value.tolist()):
        line = f'{{"t":{t},"node":{nodes[n]},{kinds[k]},"dur":{dur},"ep":{ep}'
        if has:
            line += f',"value":{float.__repr__(v)}'
        if k in _CALIBRATE_CODES:
            before, after = next(params)
            line += f',"before":{_params_text(before)},"after":{_params_text(after)}'
        lines.append(line + "}\n")
    return "".join(lines)


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


def _params(raw, names: dict[str, str]) -> list:
    if type(raw) is not dict:
        raise SchemaError(f"calibrate events carry before and after objects, got {raw!r}")
    return [(names.setdefault(k, k), _number(v)) for k, v in raw.items()]


def _event_from_line(line: str, names: dict[str, str]) -> tuple:
    """The row of the event on one trace line, as ``_row_columns`` takes
    it. Every check of such a line is made here, once: the JSON
    syntax, the field set, the scalar fields (``_check_event``), finite
    numbers, and params iff calibrate.

    Parameter names come from ``names``, which gains each name it lacks."""
    obj = _parse_line(line)
    if type(obj) is not dict or not obj.keys() <= _EVENT_FIELDS:
        raise SchemaError(f"malformed event line: {obj!r}")
    get = obj.get
    t, node, op, outcome, dur, ep = get("t"), get("node"), get("op"), get("outcome"), get("dur", 0), get("ep", 0)
    _check_event(t, node, op, outcome, dur, ep)
    value = _number(obj["value"]) if "value" in obj else None
    if op == CALIBRATE:
        before, after = _params(get("before"), names), _params(get("after"), names)
    elif "before" in obj or "after" in obj:
        raise SchemaError(f"only calibrate events carry before and after: {obj!r}")
    else:
        before = after = None
    return t, node, _KIND_CODE[op][outcome], dur, ep, value, before, after


_KIND_TEXT = {f'{op}","outcome":"{outcome}': code for code, (op, outcome) in enumerate(_EVENT_KINDS)}
# a float as float.__repr__ writes it, with a fraction or an exponent:
# such text float() reads as json.loads does. An int literal is not one:
# json.loads reads -0 as 0 and a long one as an int, so a line that
# writes a number that way is read by the strict path
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+)"
# an int of at most 18 digits, so within int64; a longer one is read by
# the strict path
_INT = r"(?:0|[1-9][0-9]{0,17})"
# the text of a JSON string with no control characters, and escapes only
# as _quote writes them: a short one, or \u and four lowercase hex digits
_CHAR = r'[^"\\\x00-\x1f]'
_ESCAPE = r'\\(?:["\\bfnrt]|u[0-9a-f]{4})'
_TEXT = rf'{_CHAR}*(?:{_ESCAPE}{_CHAR}*)*'
_OBJECT = rf'(\{{(?:"{_TEXT}":{_NUMBER}(?:,"{_TEXT}":{_NUMBER})*)?\}})'
# a line as _column_text writes it; findall gives one row per line that
# matches: t, node, the op and outcome as one text, dur, ep, value, before
# and after, "" where absent
_CANONICAL = re.compile(
    rf'^\{{"t":({_INT}),"node":"({_TEXT})","op":"({"|".join(map(re.escape, _KIND_TEXT))})",'
    rf'"dur":({_INT}),"ep":(-?{_INT})(?:,"value":({_NUMBER}))?(?:,"before":{_OBJECT},"after":{_OBJECT})?\}}$',
    re.MULTILINE,
)
_pairs = re.compile(rf'"({_TEXT})":({_NUMBER})').findall


def _int64s(texts: tuple[str, ...]) -> np.ndarray:
    # each text matched _INT, so numpy's own parser reads it exactly
    return np.fromstring(" ".join(texts), dtype=np.int64, sep=" ")


class _JsonStrings(dict):
    """The text between a JSON string's quotes, as ``_TEXT`` matches it,
    mapped to the string that ``json.loads`` reads from it: each distinct
    text with an escape is decoded once, and each string is the one that
    ``names`` holds for it."""

    def __init__(self, names: dict[str, str]):
        super().__init__()
        self.names = names

    def __missing__(self, text: str) -> str:
        name = json.loads(f'"{text}"') if "\\" in text else text
        self[text] = name = self.names.setdefault(name, name)
        return name


def _canonical_columns(text: str, names: dict[str, str]) -> dict | None:
    """The columns of a file's event lines, read by one pass of
    ``_CANONICAL`` over their whole text, when every line that is not
    blank matches, params are on the calibrate lines alone, and the
    columns pass ``_check_columns``; None otherwise, and the file is read
    line by line."""
    rows = _CANONICAL.findall(text)
    # each match is a whole line; blank lines are skipped, as line by line
    if not rows or (len(rows) != text.count("\n") + (not text.endswith("\n"))
                    and len(rows) != sum(1 for line in text.split("\n") if line.strip())):
        return None
    t, node, kind, dur, ep, value, before, after = zip(*rows)
    kind = np.array(list(map(_KIND_TEXT.__getitem__, kind)), np.int8)
    calibrate = np.flatnonzero(_is_calibrate(kind)).tolist()
    if before.count("") != len(before) - len(calibrate) or not all([before[i] for i in calibrate]):
        return None  # params on a line that is not calibrate, or none on one that is
    strings = _JsonStrings(names)
    if "\\" in text:  # a node name may have an escape
        node = list(map(strings.__getitem__, node))
    calibrations = [[[(strings[k], float(v)) for k, v in _pairs(text)] for text in (before[i], after[i])]
                    for i in calibrate]
    values = [float(v) if v else None for v in value]
    cols = _columns(node, kind, _int64s(t), _int64s(dur), _int64s(ep), values, calibrations)
    try:
        _check_columns(cols)
    except (ClockError, SchemaError):
        return None
    return cols


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
        text = fh.read()
    names: dict[str, str] = {}  # one string per parameter name
    cols = _canonical_columns(text, names)
    if cols is not None:
        return _from_columns(meta, cols)
    rows = []
    last_t = -1
    # the lines that iterating over the file gives, less their "\n"
    for lineno, line in enumerate(text.split("\n"), start=2):
        if not line.strip():
            continue
        try:
            row = _event_from_line(line, names)
        except SchemaError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
        if row[0] < last_t:
            raise ClockError(f"{path}:{lineno}: event time {row[0]} precedes previous {last_t}")
        last_t = row[0]
        rows.append(row)
    return run_from_rows(meta, rows)


def write_trace(path: str | Path, run: Run) -> None:
    """Write one run's trace file, whole or not at all; a run that fails
    a check raises before any file is opened, with the path and run id in
    front of the check's message."""
    try:
        run.meta.validate()
        text = _column_text(run)
    except (ClockError, SchemaError) as exc:
        raise type(exc)(f"{path}: run {run.meta.run_id!r}: {exc}") from None
    header = {key: getattr(run.meta, key) for key in _HEADER_TYPES}
    with atomic_write(path) as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        fh.write(text)


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
