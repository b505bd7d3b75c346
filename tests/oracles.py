"""Brute-force reference implementations of every sample extractor.

Deliberately naive and structured differently from the package code
(per-failure backward searches, nested scans) so agreement is a real
cross-check and not a shared bug. Never imported by the package.
``ReferenceSimulator`` does the same for the scheduler: literal
cycle-by-cycle stepping against the batched, block-ahead simulator.
``reference_read_trace`` and ``reference_event_line`` are the trace
reader and event formatter as they were before the one-pass rewrite:
one ``json.loads`` per line, a type table, ``TraceEvent`` and then its
checks, and ``json.dumps`` of a dict per event.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from spaq.drift import LogisticDriftCfg, exponential_decay_value, logistic_drift_path, transfer_probability
from spaq.errors import ClockError, SchemaError
from spaq.graph import graph_hash, topological_order
from spaq.trace import CALIBRATE, Run, RunMeta, TraceEvent

EPS = 1e-9


def _node_events(run, node):
    return [e for e in run.events if e.node == node]


def _is_verify(e, anchor_mode):
    if anchor_mode == "calibration":
        return e.op == "calibrate" and e.outcome == "success"
    return (e.op == "check_data" and e.outcome == "pass") or (
        e.op == "calibrate" and e.outcome == "success"
    )


def _is_failure(e, use_oracle):
    if use_oracle:
        return e.op == "oracle_out_of_spec"
    return e.op == "check_data" and e.outcome == "fail"


def oracle_ttf(dataset, node, anchor_mode="verification", use_oracle=False):
    """For each failure, search backward for the latest verification with
    no failure in between. Censored = a verification with no later failure."""
    samples, censored = [], 0
    for run in dataset.runs:
        evs = _node_events(run, node)
        fail_idx = [i for i, e in enumerate(evs) if _is_failure(e, use_oracle)]
        verify_idx = [i for i, e in enumerate(evs) if _is_verify(e, anchor_mode)]
        for i in fail_idx:
            earlier = [j for j in verify_idx if j < i]
            if not earlier:
                continue
            j = max(earlier)
            blocked = any(j < k < i for k in fail_idx)
            if not blocked:
                samples.append(float(evs[i].time - evs[j].time))
        last_fail = max(fail_idx) if fail_idx else -1
        if any(j > last_fail for j in verify_idx):
            censored += 1
    return samples, censored


def oracle_failures(dataset, node, window):
    samples = []
    for run in dataset.runs:
        total = run.meta.total_cycles
        for k in range(total // window):
            lo, hi = k * window, (k + 1) * window
            count = len(
                [
                    e
                    for e in run.events
                    if e.node == node
                    and e.op == "check_data"
                    and e.outcome == "fail"
                    and lo <= e.time < hi
                ]
            )
            samples.append(float(count))
    return samples


def oracle_param(dataset, node, name, when="after"):
    samples = []
    saw_calibrate = False
    for run in dataset.runs:
        for e in run.events:
            if e.node != node or e.op != "calibrate":
                continue
            saw_calibrate = True
            pairs = e.params_before if when == "before" else e.params_after
            d = dict(pairs or ())
            if name in d:
                samples.append(d[name])
    return samples, saw_calibrate


def oracle_time_between(dataset, node, which):
    samples = []
    for run in dataset.runs:
        if which == "calibrate":
            ts = [e.time for e in run.events if e.node == node and e.op == "calibrate"]
        else:
            ts = [
                e.time
                for e in run.events
                if e.node == node and e.op == "check_data" and e.outcome == "fail"
            ]
        for i in range(1, len(ts)):
            samples.append(float(ts[i] - ts[i - 1]))
    return samples


def oracle_pct_time(dataset, node, op):
    samples = []
    for run in dataset.runs:
        if run.meta.total_cycles <= 0:
            continue
        busy = 0
        for e in run.events:
            if e.node == node and e.op == op:
                busy += e.duration
        samples.append(busy / run.meta.total_cycles)
    return samples


def _pattern_matches(e, kind, node, param=None, by=None):
    if e.node != node:
        return False
    if kind == "fail":
        return e.op == "check_data" and e.outcome == "fail"
    if kind == "calibrate":
        return e.op == "calibrate"
    if kind == "shift":
        if e.op != "calibrate":
            return False
        before = dict(e.params_before or ())
        after = dict(e.params_after or ())
        if param not in before or param not in after:
            return False
        denom = abs(before[param])
        if denom < EPS:
            denom = EPS
        return abs(after[param] - before[param]) / denom > by
    raise AssertionError(kind)


def oracle_condition(dataset, trigger, response, window):
    """trigger/response: dicts with kind/node and optional param/by."""
    out = []
    for run in dataset.runs:
        for trig in run.events:
            if not _pattern_matches(trig, **trigger):
                continue
            t = trig.time
            if window == "next_check":
                checks = sorted(
                    e.time
                    for e in run.events
                    if e.node == response["node"] and e.op == "check_data" and e.time > t
                )
                if checks:
                    hi = checks[0]
                else:
                    hi = run.meta.total_cycles
                    for e in run.events:
                        hi = max(hi, e.time)
            else:
                hi = t + window
            hit = False
            for e in run.events:
                if t < e.time <= hi and _pattern_matches(e, **response):
                    hit = True
            out.append(hit)
    return out


def _availability_flips(run, ground_truth):
    """(cycle, in_spec) status changes in event order."""
    flips = []
    for e in run.events:
        if ground_truth:
            if e.op == "oracle_out_of_spec":
                flips.append((e.node, e.time, False))
            elif e.op == "drift_sample":
                flips.append((e.node, e.time, e.outcome == "pass"))
        elif e.op == "check_data":
            if e.outcome == "fail":
                flips.append((e.node, e.time, False))
            else:
                flips.append((e.node, e.time + e.duration, True))
        elif e.op == "calibrate" and e.outcome == "success":
            flips.append((e.node, e.time + e.duration, True))
    return flips


def oracle_availability(run, ground_truth):
    """Cycle by cycle: a cycle is lost if some check or calibration runs
    in it or some node is out of spec. A node's status at a cycle is that
    of its latest flip at or before the cycle; among flips at the same
    cycle, the last in event order wins. Nodes start in spec."""
    flips = _availability_flips(run, ground_truth)
    total = run.meta.total_cycles
    free = 0
    for c in range(total):
        busy = any(
            e.op in ("check_data", "calibrate") and e.time <= c < e.time + e.duration
            for e in run.events
        )
        latest = {}
        for node, when, in_spec in flips:
            if when <= c and (node not in latest or when >= latest[node][0]):
                latest[node] = (when, in_spec)
        out = any(not in_spec for _, in_spec in latest.values())
        if not busy and not out:
            free += 1
    return free / total


# --- reference simulator ---


def logistic_drift_step(value, cycles_since_cal, cfg, z):
    """One cycle of the logistic walk on scalars: value + z * sigma * rate(tau)."""
    rate = cfg.r_max / (1.0 + math.exp(-(cycles_since_cal - cfg.tau_mid) / cfg.tau_scale))
    return value + z * cfg.sigma * rate


def _stream(seed, *labels):
    """The numpy generator of the keyed substream ``labels`` of ``seed``."""
    digest = hashlib.sha256("/".join(labels).encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed & ((1 << 64) - 1), *words])))


class _State:
    """One drifting quantity, stepped one cycle at a time."""

    def __init__(self, value, cfg, rng):
        self.value = self.anchor = value
        self.tau = 0
        self.cfg = cfg
        self.rng = rng

    def step(self):
        if isinstance(self.cfg, LogisticDriftCfg):
            z = self.rng.standard_normal(1)
            self.value = float(logistic_drift_path(self.value, self.tau, self.cfg, z)[-1])
        else:
            self.value = exponential_decay_value(self.tau + 1, self.cfg, v0=self.anchor)
        self.tau += 1


class ReferenceSimulator:
    """The scheduler of ``spaq.sim`` written out literally.

    Every cycle is its own step: each parameter and disturbance drifts by
    one ``logistic_drift_path`` or ``exponential_decay_value`` call, the
    ground truth of every node is evaluated on scalars after every cycle,
    and the staleness gate is tested from the three timestamps it depends
    on. There are no blocks, no cached due times and no clock jumps, so
    a trace equal to ``run()``'s shows that the batching changes nothing.
    """

    def __init__(self, graph, cfg, run_id=None):
        self.graph, self.cfg = graph, cfg
        self.run_id = run_id if run_id is not None else f"run-{cfg.seed}"
        self.nodes = {n.id: n for n in graph.nodes}
        self.t = 0
        self.ep, self.ep_open = 0, False
        self.events = []
        self.calibration_failures = []
        never = -(1 << 60)
        self.verified = {nid: 0 for nid in self.nodes}
        self.cal_end = {nid: never for nid in self.nodes}
        self.cooldown = {nid: never for nid in self.nodes}
        self.params, self.optimal, self.cal_rng = {}, {}, {}
        self.meas_rng = {nid: _stream(cfg.seed, "meas", nid) for nid in self.nodes}
        for n in graph.nodes:
            for pname, spec in n.params:
                tag = spec.stream_tag or f"{n.id}/{pname}"
                rng = _stream(cfg.seed, "drift", tag) if isinstance(spec.drift, LogisticDriftCfg) else None
                self.params[n.id, pname] = _State(spec.optimal, spec.drift, rng)
                self.optimal[n.id, pname] = spec.optimal
                self.cal_rng[n.id, pname] = _stream(cfg.seed, "cal", tag)
        self.dists = [(d, _State(0.0, d.drift, _stream(cfg.seed, "dist", d.tag))) for d in graph.disturbances]
        self.tracking = cfg.oracle_ttf or cfg.drift_sample_every > 0
        self.status = {nid: self.in_spec(nid) for nid in self.nodes}

    # ground truth

    def deviation_sum(self, nid, terms):
        total = 0.0
        for tm in terms:
            key = (tm.node or nid, tm.param)
            total = total + tm.weight * (self.params[key].value - self.optimal[key])
        return total

    def disturbance(self, nid):
        return sum(d.strength * st.value for d, st in self.dists for a in d.affected if a == nid)

    def reading(self, nid, check):
        o = check.observable
        if o.kind == "linear":
            return float(o.offset + self.deviation_sum(nid, o.terms) + self.disturbance(nid))
        p = transfer_probability(
            o.omega,
            o.t_nominal,
            self.deviation_sum(nid, o.detuning_terms),
            self.deviation_sum(nid, o.time_terms),
            self.deviation_sum(nid, o.phase_terms) if o.kind == "gate" else None,
        )
        return float(p - self.deviation_sum(nid, o.background_terms) + self.disturbance(nid))

    def in_spec(self, nid):
        return all(c.rule.in_spec(self.reading(nid, c)) for c in self.nodes[nid].checks)

    # clock

    def emit(self, time, nid, op, outcome, dur=0, value=None, before=None, after=None):
        if self.ep_open:
            self.ep, self.ep_open = self.ep + 1, False
        self.events.append(TraceEvent(
            self.run_id, time, nid, op, outcome, dur, ep=self.ep, value=value,
            params_before=None if before is None else tuple(before.items()),
            params_after=None if after is None else tuple(after.items()),
        ))

    def tick(self):
        self.t += 1
        for st in [*self.params.values(), *(st for _, st in self.dists)]:
            st.step()
        if not self.tracking:
            return
        every = self.cfg.drift_sample_every
        for n in self.graph.nodes:
            now = self.in_spec(n.id)
            if self.cfg.oracle_ttf and now != self.status[n.id]:
                if now:
                    self.emit(self.t, n.id, "drift_sample", "pass", value=self.reading(n.id, n.checks[0]))
                else:
                    self.emit(self.t, n.id, "oracle_out_of_spec", "fail")
            self.status[n.id] = now
            if every and self.t % every == 0:
                value = self.reading(n.id, n.checks[0])
                self.emit(self.t, n.id, "drift_sample", "pass" if now else "fail", value=value)

    def wait(self, cycles):
        for _ in range(cycles):
            self.tick()

    # operations

    def timeout(self, nid):
        if self.cfg.mode == "high_frequency" and self.cfg.hf_timeout is not None:
            return self.cfg.hf_timeout
        return self.nodes[nid].timeout

    def stale(self, nid):
        return (
            self.t >= self.verified[nid] + self.timeout(nid)
            and self.t >= self.cal_end[nid] + self.nodes[nid].post_cal_delay
            and self.t >= self.cooldown[nid]
        )

    def check(self, nid):
        node, start, ok = self.nodes[nid], self.t, True
        for c in node.checks:
            obs = self.reading(nid, c)
            if c.observable.noise > 0.0:
                obs += float(self.meas_rng[nid].standard_normal()) * c.observable.noise
            ok = bool(c.rule.in_spec(obs)) and ok
        self.emit(start, nid, "check_data", "pass" if ok else "fail", dur=node.check_cost)
        self.wait(node.check_cost)
        if ok:
            self.verified[nid] = self.t
        return ok

    def reset(self, nid):
        node = self.nodes[nid]
        for pname, spec in node.params:
            z = float(self.cal_rng[nid, pname].standard_normal())
            st = self.params[nid, pname]
            st.value = st.anchor = spec.optimal + z * spec.effective_cal_noise
            st.tau = 0
        for c in node.checks:
            o = c.observable
            if o.kind != "linear" or o.compensate is None:
                continue
            own = [i for i, tm in enumerate(o.terms) if tm.param == o.compensate and (tm.node or nid) == nid]
            external = self.disturbance(nid)
            for i, tm in enumerate(o.terms):
                if i != own[0]:
                    key = (tm.node or nid, tm.param)
                    external += tm.weight * (self.params[key].value - self.optimal[key])
            st = self.params[nid, o.compensate]
            st.value -= external / o.terms[own[0]].weight
            st.anchor = st.value

    def recheck(self, nid):
        if not self.tracking:
            return
        for m in sorted(self.nodes):
            reads = any((tm.node or m) == nid for c in self.nodes[m].checks for tm in c.observable.all_terms())
            if m != nid and not reads:
                continue
            now = self.in_spec(m)
            if now == self.status[m]:
                continue
            self.status[m] = now
            if self.cfg.oracle_ttf:
                if now:
                    self.emit(self.t, m, "drift_sample", "pass", value=self.reading(m, self.nodes[m].checks[0]))
                else:
                    self.emit(self.t, m, "oracle_out_of_spec", "fail")

    def calibrate(self, nid):
        node = self.nodes[nid]
        for _ in range(self.cfg.max_retries):
            start = self.t
            before = {p: self.params[nid, p].value for p, _ in node.params}
            self.wait(node.calibrate_cost)
            self.reset(nid)
            ok = self.in_spec(nid)
            after = {p: self.params[nid, p].value for p, _ in node.params}
            self.emit(start, nid, "calibrate", "success" if ok else "failed",
                      dur=node.calibrate_cost, before=before, after=after)
            self.recheck(nid)
            if ok:
                self.verified[nid] = self.cal_end[nid] = self.t
                return
        self.calibration_failures.append((self.t, nid))
        self.cooldown[nid] = self.t + self.timeout(nid)

    def maintain(self, nid, resolved):
        if nid in resolved:
            return
        for dep in sorted(self.nodes[nid].dependencies):
            self.maintain(dep, resolved)
        if not self.stale(nid):
            return
        if not self.check(nid):
            self.diagnose(nid, resolved)
            self.calibrate(nid)
            self.check(nid)
        resolved.add(nid)

    def diagnose(self, nid, resolved):
        for dep in sorted(self.nodes[nid].dependencies):
            if dep in resolved:
                continue
            ok = self.check(dep)
            self.diagnose(dep, resolved)
            if not ok:
                self.calibrate(dep)
            resolved.add(dep)

    def initial_calibration(self):
        for nid in topological_order(self.graph):
            self.calibrate(nid)

    def run(self):
        depends = {d for n in self.graph.nodes for d in n.dependencies}
        sinks = sorted(nid for nid in self.nodes if nid not in depends)
        self.initial_calibration()
        while self.t < self.cfg.total_cycles:
            self.tick()
            for s in sinks:
                self.ep_open = True
                self.maintain(s, set())
                self.ep_open = False
        meta = RunMeta(
            run_id=self.run_id, seed=self.cfg.seed, graph_hash=graph_hash(self.graph),
            mode=self.cfg.mode, total_cycles=self.cfg.total_cycles,
        )
        return Run(meta=meta, events=tuple(sorted(self.events, key=lambda e: e.time)))


# --- trace I/O before the one-pass rewrite ---

_ALLOWED_OUTCOMES = {
    "check_data": ("pass", "fail"),
    "calibrate": ("success", "failed"),
    "drift_sample": ("pass", "fail"),
    "oracle_out_of_spec": ("fail",),
}


def _validate(self: TraceEvent) -> None:
    # TraceEvent.validate as it was, so that later checks added there do
    # not leak into the reference
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


def _validate_meta(meta: RunMeta) -> None:
    # RunMeta.validate as it was, for the same reason
    if meta.schema != "spaq-trace-1":
        raise SchemaError(f"unsupported trace schema {meta.schema!r}")
    if not meta.run_id:
        raise SchemaError("run_id must be non-empty")
    if meta.total_cycles < 0:
        raise SchemaError("total_cycles must be >= 0")


def reference_event_line(e: TraceEvent) -> str:
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
# instead would accept true as 1 and truncate 1.7 to 1. A header carries
# every field of its table, as the writer writes them.
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
    _validate(ev)
    return ev


def reference_read_trace(path: str | Path) -> Run:
    """Parse and validate one run. Raises SchemaError / ClockError, and
    UnicodeDecodeError on bytes that are not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise SchemaError(f"{path}: empty trace file")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: malformed header: {exc}") from exc
        _check_fields(header, _HEADER_TYPES, f"{path}: header")
        for key in _HEADER_TYPES:
            if key not in header:
                raise SchemaError(f"{path}: header lacks {key!r}")
        meta = RunMeta(**header)
        _validate_meta(meta)
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
