"""Discrete-time maintenance scheduling over a calibration DAG.

One run owns a single global clock. Parameters drift every cycle,
including while checks and calibrations execute; operation costs advance
the clock. Maintenance is demand-driven: each cycle, every sink node is
asked to maintain itself, which first recursively maintains its
dependencies, then applies the free staleness gate (check_state), and
only then spends cycles on a real check. A failed check triggers a
depth-first diagnosis of the dependencies, recalibration of every
dependency whose check failed, recalibration of the node itself, and one
re-verification.

Scheduling decisions never read ground-truth parameter values; they see
only check outcomes (which carry measurement noise) and timestamps.

Randomness is split into named substreams keyed by (purpose, node,
parameter), so two runs with the same seed but different scheduling
consume identical drift streams cycle for cycle: availability deltas
between scheduling modes are then paired comparisons, not resampling
noise. Checks measure the state at the cycle they start; their cost is
paid afterwards.

One formula and one predicate serve a single reading and a whole drift
path: an observable is its term deviations fed to
:func:`spaq.drift.transfer_probability` (or summed, for linear kinds),
and ``Rule.in_spec`` decides pass or fail elementwise. Ground-truth
tracking over k advanced cycles therefore applies exactly what a check
applies at one cycle.

The run loop jumps the clock directly between maintenance due times in
one batch per idle stretch; ``run_stepwise`` executes literal one-cycle
steps and produces the identical trace (asserted in tests), so the
batching is an optimization, not a semantic choice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .drift import DriftState, LogisticDriftCfg, exponential_decay_value, logistic_drift_path, transfer_probability
from .errors import SchemaError, UnknownNodeError
from .graph import (
    GATE,
    LINEAR,
    CheckSpec,
    GraphSpec,
    NodeSpec,
    graph_hash,
    topological_order,
    validate_graph,
)
from .trace import (
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
)

BASELINE = "baseline"
HIGH_FREQUENCY = "high_frequency"
ADAPTIVE = "adaptive"
_MODES = (BASELINE, HIGH_FREQUENCY, ADAPTIVE)

SKIPPED = "skipped"
VERIFIED = "verified"
RECALIBRATED = "recalibrated"

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.

    ``hf_timeout`` replaces every node's timeout in high_frequency mode.
    ``oracle_ttf`` additionally logs ground-truth out-of-spec onsets and
    recoveries. ``drift_sample_every`` emits a downsampled ground-truth
    observable reading per node every k cycles (0 disables).
    """

    total_cycles: int
    seed: int
    mode: str = BASELINE
    hf_timeout: int | None = None
    oracle_ttf: bool = False
    drift_sample_every: int = 0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.total_cycles < 1:
            raise ValueError(f"total_cycles must be >= 1, got {self.total_cycles}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.hf_timeout is not None and self.hf_timeout < 1:
            raise ValueError(f"hf_timeout must be >= 1, got {self.hf_timeout}")
        if self.drift_sample_every < 0:
            raise ValueError(f"drift_sample_every must be >= 0, got {self.drift_sample_every}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")


def _substream(seed: int, *labels: str) -> np.random.Generator:
    # hashlib, not hash(): stream identity must survive interpreter restarts
    digest = hashlib.sha256("/".join(labels).encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed & _U64, *words])))


class Simulator:
    """Mutable state of one run; produces an in-memory event trace."""

    def __init__(self, graph: GraphSpec, cfg: SimConfig, run_id: str | None = None):
        validate_graph(graph)
        self.graph = graph
        self.cfg = cfg
        self.run_id = run_id if run_id is not None else f"run-{cfg.seed}"
        self.t = 0
        self.calibration_failures: list[tuple[int, str]] = []
        self._events: list[TraceEvent] = []
        self._ep = 0
        self._ep_pending = False
        self._initialized = False
        self._tracking = cfg.oracle_ttf or cfg.drift_sample_every > 0

        self._nodes: dict[str, NodeSpec] = {n.id: n for n in graph.nodes}
        self._sinks = graph.sink_ids()
        self._last_verified = {n.id: 0 for n in graph.nodes}
        self._far_past = -(1 << 60)
        self._last_cal_end = {n.id: self._far_past for n in graph.nodes}
        self._cooldown = {n.id: self._far_past for n in graph.nodes}

        self._param_spec = {}
        self._params: dict[tuple[str, str], DriftState] = {}
        self._drift_rng = {}
        self._cal_rng = {}
        self._meas_rng = {}
        seed = cfg.seed
        for n in graph.nodes:
            self._meas_rng[n.id] = _substream(seed, "meas", n.id)
            for pname, pspec in n.params:
                key = (n.id, pname)
                tag = pspec.stream_tag or f"{n.id}/{pname}"
                self._param_spec[key] = pspec
                self._params[key] = DriftState(
                    value=pspec.optimal, cycles_since_cal=0, anchor=pspec.optimal
                )
                if isinstance(pspec.drift, LogisticDriftCfg):
                    self._drift_rng[key] = _substream(seed, "drift", tag)
                self._cal_rng[key] = _substream(seed, "cal", tag)

        self._dist = [
            (d, DriftState(value=0.0, cycles_since_cal=0, anchor=0.0), _substream(seed, "dist", d.tag))
            for d in graph.disturbances
        ]
        self._affecting: dict[str, list[int]] = {n.id: [] for n in graph.nodes}
        for i, (dspec, _, _) in enumerate(self._dist):
            for nid in dspec.affected:
                self._affecting[nid].append(i)

        # nodes whose observables read a given node's params; calibrating
        # that node can flip exactly these nodes' ground-truth status
        self._observers: dict[str, set[str]] = {n.id: {n.id} for n in graph.nodes}
        for n in graph.nodes:
            for check in n.checks:
                for term in check.observable.all_terms():
                    self._observers[term.node or n.id].add(n.id)

        self._in_spec = {n.id: self._ground_truth_in_spec(n.id) for n in graph.nodes}

    # --- plumbing ---

    def _node(self, nid: str) -> NodeSpec:
        try:
            return self._nodes[nid]
        except KeyError:
            raise UnknownNodeError(f"no node {nid!r} in graph") from None

    def _timeout(self, node: NodeSpec) -> int:
        if self.cfg.mode == HIGH_FREQUENCY and self.cfg.hf_timeout is not None:
            return self.cfg.hf_timeout
        return node.timeout

    def _due(self, nid: str) -> int:
        """First cycle at which check_state stops skipping the node."""
        node = self._nodes[nid]
        return max(
            self._last_verified[nid] + self._timeout(node),
            self._last_cal_end[nid] + node.post_cal_delay,
            self._cooldown[nid],
        )

    def _emit(self, time, node, op, outcome, dur=0, value=None, before=None, after=None):
        if self._ep_pending:
            self._ep += 1
            self._ep_pending = False
        self._events.append(
            TraceEvent(
                self.run_id, time, node, op, outcome, dur, ep=self._ep,
                value=value,
                params_before=tuple(before.items()) if before is not None else None,
                params_after=tuple(after.items()) if after is not None else None,
            )
        )

    # --- observables ---

    def _get_now(self, owner: str, pname: str):
        return self._params[(owner, pname)].value

    def _dist_now(self, nid: str):
        return sum(self._dist[i][0].strength * self._dist[i][1].value for i in self._affecting[nid])

    def _term_sum(self, nid: str, terms, get):
        total = 0.0
        for tm in terms:
            owner = tm.node or nid
            spec = self._param_spec[(owner, tm.param)]
            total = total + tm.weight * (get(owner, tm.param) - spec.optimal)
        return total

    def _obs_value(self, nid: str, check: CheckSpec, get, dist):
        """Noiseless observable; float or per-cycle array, matching ``get``."""
        o = check.observable
        external = dist(nid)
        if o.kind == LINEAR:
            return o.offset + self._term_sum(nid, o.terms, get) + external
        p = transfer_probability(
            o.omega,
            o.t_nominal,
            self._term_sum(nid, o.detuning_terms, get),
            self._term_sum(nid, o.time_terms, get),
            self._term_sum(nid, o.phase_terms, get) if o.kind == GATE else None,
        )
        return p - self._term_sum(nid, o.background_terms, get) + external

    def _ground_truth_in_spec(self, nid: str) -> bool:
        node = self._nodes[nid]
        return all(
            c.rule.in_spec(float(self._obs_value(nid, c, self._get_now, self._dist_now)))
            for c in node.checks
        )

    # --- drift advancement ---

    def _advance(self, k: int) -> None:
        if k <= 0:
            return
        t0 = self.t
        paths: dict[tuple[str, str], np.ndarray] = {}
        for key, st in self._params.items():
            cfg = self._param_spec[key].drift
            if isinstance(cfg, LogisticDriftCfg):
                zs = self._drift_rng[key].standard_normal(k)
                path = logistic_drift_path(st.value, st.cycles_since_cal, cfg, zs)
            else:
                taus = st.cycles_since_cal + np.arange(1, k + 1, dtype=float)
                path = exponential_decay_value(taus, cfg, v0=st.anchor)
            st.value = float(path[-1])
            st.cycles_since_cal += k
            if self._tracking:
                paths[key] = path
        dist_paths: list[np.ndarray] = []
        for dspec, st, rng in self._dist:
            zs = rng.standard_normal(k)
            path = logistic_drift_path(st.value, st.cycles_since_cal, dspec.drift, zs)
            st.value = float(path[-1])
            st.cycles_since_cal += k
            if self._tracking:
                dist_paths.append(path)
        self.t = t0 + k
        if self._tracking:
            self._track(t0, k, paths, dist_paths)

    def _track(self, t0: int, k: int, paths, dist_paths) -> None:
        """Ground-truth bookkeeping over the k cycles just advanced.

        ``paths[key][j]`` is the value at time t0 + j + 1.
        """
        get = lambda owner, pname: paths[(owner, pname)]
        dist = lambda nid: sum(
            (self._dist[i][0].strength * dist_paths[i] for i in self._affecting[nid]), 0.0
        )
        every = self.cfg.drift_sample_every
        for n in self.graph.nodes:
            ok = np.ones(k, dtype=bool)
            first_obs = None
            for i, check in enumerate(n.checks):
                obs = np.broadcast_to(
                    np.asarray(self._obs_value(n.id, check, get, dist), dtype=float), (k,)
                )
                if i == 0:
                    first_obs = obs
                ok &= check.rule.in_spec(obs)
            prev = np.concatenate(([self._in_spec[n.id]], ok[:-1]))
            if self.cfg.oracle_ttf:
                for j in np.flatnonzero(~ok & prev):
                    self._emit(t0 + int(j) + 1, n.id, ORACLE_OUT_OF_SPEC, FAIL)
                for j in np.flatnonzero(ok & ~prev):
                    self._emit(
                        t0 + int(j) + 1, n.id, DRIFT_SAMPLE, PASS, value=float(first_obs[j])
                    )
            if every:
                start = (t0 // every + 1) * every
                for c in range(start, t0 + k + 1, every):
                    j = c - t0 - 1
                    self._emit(
                        c, n.id, DRIFT_SAMPLE, PASS if ok[j] else FAIL, value=float(first_obs[j])
                    )
            self._in_spec[n.id] = bool(ok[-1])

    def _flag_recheck(self, nid: str) -> None:
        """Emit ground-truth transition markers caused by a calibration."""
        if not self._tracking:
            return
        for m in sorted(self._observers[nid]):
            cur = self._ground_truth_in_spec(m)
            if cur == self._in_spec[m]:
                continue
            self._in_spec[m] = cur
            if self.cfg.oracle_ttf:
                if cur:
                    node = self._nodes[m]
                    val = float(self._obs_value(m, node.checks[0], self._get_now, self._dist_now))
                    self._emit(self.t, m, DRIFT_SAMPLE, PASS, value=val)
                else:
                    self._emit(self.t, m, ORACLE_OUT_OF_SPEC, FAIL)

    # --- operations ---

    def _check_data(self, nid: str) -> bool:
        node = self._nodes[nid]
        start = self.t
        ok = True
        for check in node.checks:
            obs = float(self._obs_value(nid, check, self._get_now, self._dist_now))
            if check.observable.noise > 0.0:
                obs += float(self._meas_rng[nid].standard_normal()) * check.observable.noise
            if not check.rule.in_spec(obs):
                ok = False
        self._emit(start, nid, CHECK_DATA, PASS if ok else FAIL, dur=node.check_cost)
        self._advance(node.check_cost)
        if ok:
            self._last_verified[nid] = self.t
        return ok

    def _reset_params(self, nid: str) -> None:
        node = self._nodes[nid]
        for pname, pspec in node.params:
            st = self._params[(nid, pname)]
            z = float(self._cal_rng[(nid, pname)].standard_normal())
            st.reset(pspec.optimal + z * pspec.effective_cal_noise)
        for check in node.checks:
            o = check.observable
            if o.kind != LINEAR or o.compensate is None:
                continue
            weight = next(
                t.weight for t in o.terms if t.param == o.compensate and (t.node is None or t.node == nid)
            )
            # cancel everything except the compensating knob itself:
            # disturbances, cross-node terms, and other own terms at
            # their freshly reset values
            external = self._dist_now(nid)
            comp_seen = False
            for tm in o.terms:
                owner = tm.node or nid
                if not comp_seen and owner == nid and tm.param == o.compensate:
                    comp_seen = True
                    continue
                spec = self._param_spec[(owner, tm.param)]
                external += tm.weight * (self._get_now(owner, tm.param) - spec.optimal)
            st = self._params[(nid, o.compensate)]
            st.value -= external / weight
            st.anchor = st.value

    def _calibrate(self, nid: str) -> bool:
        node = self._nodes[nid]
        for _ in range(self.cfg.max_retries):
            start = self.t
            before = {p: self._params[(nid, p)].value for p, _ in node.params}
            self._advance(node.calibrate_cost)
            self._reset_params(nid)
            ok = self._ground_truth_in_spec(nid)
            after = {p: self._params[(nid, p)].value for p, _ in node.params}
            self._emit(
                start, nid, CALIBRATE, SUCCESS if ok else FAILED,
                dur=node.calibrate_cost, before=before, after=after,
            )
            self._flag_recheck(nid)
            if ok:
                self._last_verified[nid] = self.t
                self._last_cal_end[nid] = self.t
                return True
        self.calibration_failures.append((self.t, nid))
        self._cooldown[nid] = self.t + self._timeout(node)
        return False

    def _maintain(self, nid: str, resolved: set[str]) -> str:
        if nid in resolved:
            return SKIPPED
        node = self._nodes[nid]
        for dep in sorted(node.dependencies):
            self._maintain(dep, resolved)
        if self.t < self._due(nid):
            return SKIPPED
        if self._check_data(nid):
            resolved.add(nid)
            return VERIFIED
        self._diagnose(nid, resolved)
        self._calibrate(nid)
        self._check_data(nid)
        resolved.add(nid)
        return RECALIBRATED

    def _diagnose(self, nid: str, resolved: set[str]) -> list[str]:
        calibrated: list[str] = []
        for dep in sorted(self._nodes[nid].dependencies):
            if dep in resolved:
                continue
            ok = self._check_data(dep)
            calibrated.extend(self._diagnose(dep, resolved))
            if not ok:
                self._calibrate(dep)
                calibrated.append(dep)
            resolved.add(dep)
        return calibrated

    # --- public stepping API ---

    def _episode(self, work, node_id: str):
        self._node(node_id)
        self._ep_pending = True
        try:
            return work(node_id, set())
        finally:
            self._ep_pending = False

    def maintain(self, node_id: str) -> str:
        """One demand-triggered maintenance episode rooted at ``node_id``."""
        return self._episode(self._maintain, node_id)

    def diagnose(self, node_id: str) -> list[str]:
        """Dependency diagnosis alone; returns ids in calibration order."""
        return self._episode(self._diagnose, node_id)

    def initial_calibration(self) -> None:
        """Calibrate every node once, dependencies first (episode 0)."""
        self._initialized = True
        for nid in topological_order(self.graph):
            self._calibrate(nid)

    def step(self) -> None:
        """Advance one cycle, then attempt maintenance on every sink."""
        self._advance(1)
        for s in self._sinks:
            self.maintain(s)

    def run(self) -> Run:
        """Initial calibration plus the full maintenance loop."""
        if not self._initialized:
            self.initial_calibration()
        total = self.cfg.total_cycles
        while self.t < total:
            # a demand pass at cycle s does work iff some node is due by s,
            # so jump straight to the first such cycle (strictly ahead:
            # a node turning due mid-pass waits for the next cycle)
            dues = [self._due(nid) for nid in self._nodes]
            target = max(self.t + 1, min(dues)) if dues else total
            if target > total:
                self._advance(total - self.t)
                break
            self._advance(target - self.t)
            for s in self._sinks:
                self.maintain(s)
        return self.finish()

    def run_stepwise(self) -> Run:
        """Literal cycle-by-cycle execution; trace-identical to run()."""
        if not self._initialized:
            self.initial_calibration()
        while self.t < self.cfg.total_cycles:
            self.step()
        return self.finish()

    def finish(self) -> Run:
        events = sorted(self._events, key=lambda e: e.time)
        meta = RunMeta(
            run_id=self.run_id,
            seed=self.cfg.seed,
            graph_hash=graph_hash(self.graph),
            mode=self.cfg.mode,
            total_cycles=self.cfg.total_cycles,
        )
        return Run(meta=meta, events=tuple(events))


def run_simulation(graph: GraphSpec, cfg: SimConfig, run_id: str | None = None) -> Run:
    return Simulator(graph, cfg, run_id=run_id).run()


# --- availability accounting ---


@dataclass(frozen=True)
class AvailabilityReport:
    """System availability plus per-node operation cost totals."""

    availability: float
    per_node_cost: dict[str, dict[str, int]] = field(default_factory=dict)


def availability(run: Run, graph: GraphSpec | None = None, ground_truth: bool | None = None) -> AvailabilityReport:
    """Fraction of cycles in spec and idle, from the trace alone.

    A cycle counts as available iff no check/calibration is executing
    and every node is within spec. With ``ground_truth`` (default: on
    iff the trace carries oracle events) in-spec intervals come from the
    logged onset/recovery markers; otherwise a node is presumed in spec
    from the end of each passed check or successful calibration until
    its next failed check.
    """
    total = run.meta.total_cycles
    if total <= 0:
        raise SchemaError(f"run {run.meta.run_id!r}: total_cycles must be positive")
    if ground_truth is None:
        ground_truth = any(e.op == ORACLE_OUT_OF_SPEC for e in run.events)

    busy = np.zeros(total, dtype=bool)
    cost: dict[str, dict[str, int]] = {}
    if graph is not None:
        for n in graph.nodes:
            cost[n.id] = {"check_cycles": 0, "calibrate_cycles": 0}
    flips: dict[str, list[tuple[int, bool]]] = {}
    for e in run.events:
        if e.op in (CHECK_DATA, CALIBRATE):
            row = cost.setdefault(e.node, {"check_cycles": 0, "calibrate_cycles": 0})
            row["check_cycles" if e.op == CHECK_DATA else "calibrate_cycles"] += e.duration
            lo, hi = max(e.time, 0), min(e.time + e.duration, total)
            if lo < hi:
                busy[lo:hi] = True
        if ground_truth:
            if e.op == ORACLE_OUT_OF_SPEC:
                flips.setdefault(e.node, []).append((e.time, False))
            elif e.op == DRIFT_SAMPLE:
                flips.setdefault(e.node, []).append((e.time, e.outcome == PASS))
        else:
            if e.op == CHECK_DATA:
                if e.outcome == FAIL:
                    flips.setdefault(e.node, []).append((e.time, False))
                else:
                    flips.setdefault(e.node, []).append((e.time + e.duration, True))
            elif e.op == CALIBRATE and e.outcome == SUCCESS:
                flips.setdefault(e.node, []).append((e.time + e.duration, True))

    out = np.zeros(total, dtype=bool)
    for node_flips in flips.values():
        status = True
        at = 0
        for when, new_status in sorted(node_flips, key=lambda f: f[0]):
            when = min(max(when, 0), total)
            if not status and at < when:
                out[at:when] = True
            status, at = new_status, when
        if not status and at < total:
            out[at:total] = True

    avail = float(np.mean(~busy & ~out))
    return AvailabilityReport(availability=avail, per_node_cost=cost)
