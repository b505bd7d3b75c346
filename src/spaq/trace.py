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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
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
        # params are kept sorted by name so round-trips preserve equality
        for attr in ("params_before", "params_after"):
            p = getattr(self, attr)
            if p is not None:
                object.__setattr__(self, attr, tuple(sorted((str(k), float(v)) for k, v in p)))

    def validate(self) -> None:
        if self.op not in _ALLOWED_OUTCOMES:
            raise SchemaError(f"unknown op {self.op!r}")
        if self.outcome not in _ALLOWED_OUTCOMES[self.op]:
            raise SchemaError(f"op {self.op} cannot have outcome {self.outcome!r}")
        if self.time < 0:
            raise SchemaError(f"negative event time {self.time}")
        if self.duration < 0:
            raise SchemaError(f"negative duration {self.duration}")
        has_params = self.params_before is not None or self.params_after is not None
        if (self.op == CALIBRATE) != has_params:
            raise SchemaError("params_before/params_after are present iff op is calibrate")
        if self.op == CALIBRATE and (self.params_before is None or self.params_after is None):
            raise SchemaError("calibrate events carry both params_before and params_after")


@dataclass(frozen=True)
class RunMeta:
    run_id: str
    seed: int
    graph_hash: str
    mode: str = "baseline"
    total_cycles: int = 0
    schema: str = TRACE_SCHEMA

    def validate(self) -> None:
        if self.schema != TRACE_SCHEMA:
            raise SchemaError(f"unsupported trace schema {self.schema!r}; expected {TRACE_SCHEMA!r}")
        if not self.run_id:
            raise SchemaError("run_id must be non-empty")
        if self.total_cycles < 0:
            raise SchemaError("total_cycles must be >= 0")


@dataclass(frozen=True)
class Run:
    meta: RunMeta
    events: tuple[TraceEvent, ...]


@dataclass(frozen=True)
class Dataset:
    runs: tuple[Run, ...]

    @property
    def run_ids(self) -> tuple[str, ...]:
        return tuple(r.meta.run_id for r in self.runs)

    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted({e.node for r in self.runs for e in r.events}))


def _event_to_line(e: TraceEvent) -> str:
    # insertion order fixes the on-disk field order
    obj: dict = {"t": e.time, "node": e.node, "op": e.op, "outcome": e.outcome,
                 "dur": e.duration, "ep": e.ep}
    if e.value is not None:
        obj["value"] = e.value
    if e.op == CALIBRATE:
        obj["before"] = dict(e.params_before or ())
        obj["after"] = dict(e.params_after or ())
    return json.dumps(obj, separators=(",", ":"))


# the exact JSON types of every field a trace may carry; converting
# instead would accept true as 1 and truncate 1.7 to 1
_HEADER_TYPES = {
    "schema": (str,), "run_id": (str,), "seed": (int,), "graph_hash": (str,), "mode": (str,),
    "total_cycles": (int,),
}
_EVENT_TYPES = {
    "t": (int,), "node": (str,), "op": (str,), "outcome": (str,), "dur": (int,), "ep": (int,),
    "value": (int, float), "before": (dict,), "after": (dict,),
}


def _check_fields(obj, types: dict, what: str) -> None:
    if type(obj) is not dict or not obj.keys() <= types.keys():
        raise SchemaError(f"malformed {what}: {obj!r}")
    for key, value in obj.items():
        if type(value) not in types[key]:
            raise SchemaError(f"malformed {what}: {key!r} cannot be {value!r}")


def _number(raw) -> float:
    """A finite JSON number as a float; raises TypeError/ValueError/OverflowError."""
    if type(raw) is not float and type(raw) is not int:
        raise TypeError(f"expected a number, got {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _event_from_obj(obj, run_id: str) -> TraceEvent:
    _check_fields(obj, _EVENT_TYPES, "event line")
    try:
        ev = TraceEvent(
            run_id=run_id,
            time=obj["t"],
            node=obj["node"],
            op=obj["op"],
            outcome=obj["outcome"],
            duration=obj.get("dur", 0),
            ep=obj.get("ep", 0),
            value=_number(obj["value"]) if "value" in obj else None,
            params_before=tuple((k, _number(v)) for k, v in obj["before"].items()) if "before" in obj else None,
            params_after=tuple((k, _number(v)) for k, v in obj["after"].items()) if "after" in obj else None,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed event line: {obj!r}") from exc
    ev.validate()
    return ev


class TraceWriter:
    """Append-only writer for a single run's trace file."""

    def __init__(self, path: str | Path, meta: RunMeta):
        meta.validate()
        self.meta = meta
        self._last_time = -1
        self._fh = open(path, "w", encoding="utf-8")
        header = {
            "schema": meta.schema,
            "run_id": meta.run_id,
            "seed": meta.seed,
            "graph_hash": meta.graph_hash,
            "mode": meta.mode,
            "total_cycles": meta.total_cycles,
        }
        self._fh.write(json.dumps(header, separators=(",", ":")) + "\n")

    def append_event(self, event: TraceEvent) -> None:
        event.validate()
        if event.run_id != self.meta.run_id:
            raise SchemaError(f"event run_id {event.run_id!r} does not match writer {self.meta.run_id!r}")
        if event.time < self._last_time:
            raise ClockError(f"event time {event.time} precedes previous {self._last_time}")
        self._last_time = event.time
        self._fh.write(_event_to_line(event) + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: malformed header: {exc}") from exc
        _check_fields(header, _HEADER_TYPES, f"{path}: header")
        meta = RunMeta(
            run_id=header.get("run_id", ""),
            seed=header.get("seed", 0),
            graph_hash=header.get("graph_hash", ""),
            mode=header.get("mode", "baseline"),
            total_cycles=header.get("total_cycles", 0),
            schema=header.get("schema", ""),
        )
        meta.validate()
        events: list[TraceEvent] = []
        last_t = -1
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: malformed event: {exc}") from exc
            ev = _event_from_obj(obj, meta.run_id)
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
