"""Discrete-time maintenance scheduling over a calibration DAG.

One run owns a single global clock. Parameters drift with every cycle,
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

Drift is applied lazily. Advancing the clock moves only the clock; each
parameter and disturbance remembers the cycle its value was last brought
up to and catches up, in one drift-path call over all the elapsed
cycles, when a check, a calibration or the ground truth reads it. A
value read at cycle t does not depend on when it was read before (see
``DriftState``), so the cost of a run follows its reads rather than its
advances times its parameters.

Randomness is split into named substreams keyed by (purpose, node,
parameter), and every drift substream draws exactly one normal per
elapsed cycle whatever the read schedule, so two runs with the same seed
but different scheduling see identical drift cycle for cycle:
availability deltas between scheduling modes are then paired
comparisons, not resampling noise. Checks measure the state at the cycle
they start; their cost is paid afterwards.

Ground-truth tracking (``oracle_ttf``, ``drift_sample_every``) needs
every cycle of every path, so it works a block of cycles ahead of the
clock: one rebuild computes all states' paths over the block, stacked
one column per state, evaluates all checks on them and lists the
block's ground-truth events; an advance then only emits the events it
passes and reads the states off the block's row at the new clock. A
calibration or the end of the block forces a rebuild, and the drift
streams still draw one normal per cycle in cycle order (see
``_Tracker``). One composition (``_observable``), one formula
(:func:`spaq.drift.transfer_probability`) and one predicate
(``Rule.in_spec``) serve a single reading and the stacked paths, so
tracking applies exactly what a check applies at one cycle.

The run loop jumps the clock directly between maintenance due times in
one batch per idle stretch; ``run_stepwise`` executes literal one-cycle
steps and produces the identical trace (asserted in tests), so the
batching is an optimization, not a semantic choice.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .drift import DriftState, LogisticDriftCfg, exponential_decay_value, logistic_drift_path, transfer_probability
from .errors import SchemaError, UnknownNodeError
from .graph import (
    GATE,
    LINEAR,
    CheckSpec,
    GraphSpec,
    NodeSpec,
    Rule,
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


def _observable(o, term_sum, external):
    """Noiseless value of observable ``o`` from its term sums.

    ``term_sum(name)`` is the weighted deviation sum over the term field
    ``name`` of ``o``; ``external`` is the disturbance contribution. The
    same code serves one reading (floats) and the stacked drift paths of
    ground-truth tracking, where ``o``'s fields are per-column arrays.
    """
    if o.kind == LINEAR:
        return o.offset + term_sum("terms") + external
    p = transfer_probability(
        o.omega,
        o.t_nominal,
        term_sum("detuning_terms"),
        term_sum("time_terms"),
        term_sum("phase_terms") if o.kind == GATE else None,
    )
    return p - term_sum("background_terms") + external


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

        self._nodes: dict[str, NodeSpec] = {n.id: n for n in graph.nodes}
        self._sinks = graph.sink_ids()
        self._last_verified = {n.id: 0 for n in graph.nodes}
        self._far_past = -(1 << 60)
        self._last_cal_end = {n.id: self._far_past for n in graph.nodes}
        self._cooldown = {n.id: self._far_past for n in graph.nodes}
        self._due: dict[str, int] = {}
        for nid in self._nodes:
            self._update_due(nid)

        self._param_spec = {}
        self._params: dict[tuple[str, str], DriftState] = {}
        self._cal_rng = {}
        self._meas_rng = {}
        seed = cfg.seed
        for n in graph.nodes:
            self._meas_rng[n.id] = _substream(seed, "meas", n.id)
            for pname, pspec in n.params:
                key = (n.id, pname)
                tag = pspec.stream_tag or f"{n.id}/{pname}"
                self._param_spec[key] = pspec
                rng = _substream(seed, "drift", tag) if isinstance(pspec.drift, LogisticDriftCfg) else None
                self._params[key] = DriftState(value=pspec.optimal, anchor=pspec.optimal, cfg=pspec.drift, rng=rng)
                self._cal_rng[key] = _substream(seed, "cal", tag)

        self._dist = [
            (d, DriftState(value=0.0, cfg=d.drift, rng=_substream(seed, "dist", d.tag))) for d in graph.disturbances
        ]
        self._affecting: dict[str, list[int]] = {n.id: [] for n in graph.nodes}
        for i, (dspec, _) in enumerate(self._dist):
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
        tracking = cfg.oracle_ttf or cfg.drift_sample_every > 0
        self._tracker = _Tracker(self) if tracking else None

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

    def _update_due(self, nid: str) -> None:
        """Recompute the first cycle at which check_state stops skipping the
        node; called whenever one of its three inputs changes."""
        node = self._nodes[nid]
        self._due[nid] = max(
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

    def _param(self, owner: str, pname: str) -> DriftState:
        """A parameter's state, caught up to the current cycle."""
        st = self._params[(owner, pname)]
        st.catch_up(self.t)
        return st

    def _get_now(self, owner: str, pname: str):
        return self._param(owner, pname).value

    def _dist_value(self, i: int) -> float:
        dspec, st = self._dist[i]
        st.catch_up(self.t)
        return dspec.strength * st.value

    def _dist_now(self, nid: str):
        return sum(self._dist_value(i) for i in self._affecting[nid])

    def _term_sum(self, nid: str, terms):
        total = 0.0
        for tm in terms:
            owner = tm.node or nid
            spec = self._param_spec[(owner, tm.param)]
            total = total + tm.weight * (self._get_now(owner, tm.param) - spec.optimal)
        return total

    def _obs_value(self, nid: str, check: CheckSpec) -> float:
        """Noiseless observable now."""
        o = check.observable
        return float(_observable(o, lambda name: self._term_sum(nid, getattr(o, name)), self._dist_now(nid)))

    def _ground_truth_in_spec(self, nid: str) -> bool:
        return all(c.rule.in_spec(self._obs_value(nid, c)) for c in self._nodes[nid].checks)

    # --- drift advancement ---

    def _advance(self, k: int) -> None:
        """Move the clock k cycles. Drift catches up when it is read, except
        under ground-truth tracking, which reads every cycle of every path."""
        if k <= 0:
            return
        t0 = self.t
        self.t = t0 + k
        if self._tracker is not None:
            self._tracker.advance(t0, k)

    def _flag_recheck(self, nid: str) -> None:
        """Emit ground-truth transition markers caused by a calibration."""
        if self._tracker is None:
            return
        for m in sorted(self._observers[nid]):
            cur = self._ground_truth_in_spec(m)
            if cur == self._in_spec[m]:
                continue
            self._in_spec[m] = cur
            if self.cfg.oracle_ttf:
                if cur:
                    node = self._nodes[m]
                    val = self._obs_value(m, node.checks[0])
                    self._emit(self.t, m, DRIFT_SAMPLE, PASS, value=val)
                else:
                    self._emit(self.t, m, ORACLE_OUT_OF_SPEC, FAIL)

    # --- operations ---

    def _check_data(self, nid: str) -> bool:
        node = self._nodes[nid]
        start = self.t
        ok = True
        for check in node.checks:
            obs = self._obs_value(nid, check)
            if check.observable.noise > 0.0:
                obs += float(self._meas_rng[nid].standard_normal()) * check.observable.noise
            if not check.rule.in_spec(obs):
                ok = False
        self._emit(start, nid, CHECK_DATA, PASS if ok else FAIL, dur=node.check_cost)
        self._advance(node.check_cost)
        if ok:
            self._last_verified[nid] = self.t
            self._update_due(nid)
        return ok

    def _reset_params(self, nid: str) -> None:
        node = self._nodes[nid]
        for pname, pspec in node.params:
            st = self._param(nid, pname)
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
        if self._tracker is not None:
            self._tracker.stale = True

    def _calibrate(self, nid: str) -> bool:
        node = self._nodes[nid]
        for _ in range(self.cfg.max_retries):
            start = self.t
            before = {p: self._get_now(nid, p) for p, _ in node.params}
            self._advance(node.calibrate_cost)
            self._reset_params(nid)
            ok = self._ground_truth_in_spec(nid)
            after = {p: self._get_now(nid, p) for p, _ in node.params}
            self._emit(
                start, nid, CALIBRATE, SUCCESS if ok else FAILED,
                dur=node.calibrate_cost, before=before, after=after,
            )
            self._flag_recheck(nid)
            if ok:
                self._last_verified[nid] = self.t
                self._last_cal_end[nid] = self.t
                self._update_due(nid)
                return True
        self.calibration_failures.append((self.t, nid))
        self._cooldown[nid] = self.t + self._timeout(node)
        self._update_due(nid)
        return False

    def _maintain(self, nid: str, resolved: set[str]) -> str:
        if nid in resolved:
            return SKIPPED
        node = self._nodes[nid]
        for dep in sorted(node.dependencies):
            self._maintain(dep, resolved)
        if self.t < self._due[nid]:
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
            target = max(self.t + 1, min(self._due.values(), default=total))
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


def _columns(objs, names) -> SimpleNamespace:
    """The named fields of ``objs`` as arrays with one entry per object."""
    return SimpleNamespace(**{n: np.array([getattr(o, n) for o in objs], dtype=float) for n in names})


def _slots(rows) -> list:
    """Terms of several sums, regrouped by position.

    ``rows[r]`` lists the (column, weight, optimal) terms of sum r;
    ``optimal=None`` marks a disturbance, which enters undeviated. Slot j
    holds the j-th term of every sum that has one, so that adding the
    slots in order adds each sum's terms in its own order.
    """
    out = []
    for j in range(max(map(len, rows), default=0)):
        live = [r for r, terms in enumerate(rows) if len(terms) > j]
        col, weight, optimal = zip(*(rows[r][j] for r in live))
        out.append((
            None if len(live) == len(rows) else np.array(live),
            np.array(col),
            np.array(weight, dtype=float),
            None if optimal[0] is None else np.array(optimal, dtype=float),
        ))
    return out


def _slot_sum(slots, paths: np.ndarray, width: int):
    """Per-cycle sums over stacked paths, in the order of ``_term_sum``."""
    total = 0.0
    for live, col, weight, optimal in slots:
        x = paths[:, col]
        x = weight * (x if optimal is None else x - optimal)
        if live is None:
            total = total + x
        else:
            if np.ndim(total) == 0:
                total = np.zeros((len(paths), width))
            total[:, live] = total[:, live] + x
    return total


# cycles of ground truth a tracker computes ahead of the clock per rebuild
_BLOCK = 256


class _Tracker:
    """Ground-truth bookkeeping over every advanced cycle, a block ahead.

    A rebuild at cycle t computes, for cycles t + 1 .. t + ``_BLOCK``,
    the paths of all states (one drift call per model, one column per
    state), every check's verdict (one array expression per observable
    family, one predicate per rule op) and the block's onset, recovery
    and grid events in trace order. Every element goes through the
    operations a single reading applies. An advance emits the events it
    passes and sets each state and verdict from the block's row at the
    new clock. A calibration (``stale``) or the block's end forces a
    rebuild; normals drawn but not yet consumed are kept, so each stream
    draws one normal per cycle in cycle order, and blocks of any length
    give the same bits.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        # logistic states first, then exponential ones
        states = [*sim._params.values(), *(st for _, st in sim._dist)]
        self.states = sorted(states, key=lambda st: not isinstance(st.cfg, LogisticDriftCfg))
        self.rngs = [st.rng for st in self.states if isinstance(st.cfg, LogisticDriftCfg)]
        cfgs = [st.cfg for st in self.states]
        self.logistic = _columns(cfgs[: len(self.rngs)], ("r_max", "tau_mid", "tau_scale", "sigma"))
        self.exponential = _columns(cfgs[len(self.rngs) :], ("rate", "limit"))
        column = {id(st): i for i, st in enumerate(self.states)}

        def terms(nid: str, ts) -> list:
            keys = [(tm.node or nid, tm.param) for tm in ts]
            return [(column[id(sim._params[k])], tm.weight, sim._param_spec[k].optimal) for k, tm in zip(keys, ts)]

        def disturbances(nid: str) -> list:
            return [(column[id(sim._dist[i][1])], sim._dist[i][0].strength, None) for i in sim._affecting[nid]]

        # one column per check, in node order; the transfer family is
        # evaluated as gates, a transition being a gate whose phase error
        # is zero (cos(0)^2 == 1.0 exactly)
        checks = [(n.id, c) for n in sim.graph.nodes for c in n.checks]
        self.families = []
        for kind, fields in (
            (LINEAR, ("terms",)),
            (GATE, ("detuning_terms", "time_terms", "phase_terms", "background_terms")),
        ):
            idx = [i for i, (_, c) in enumerate(checks) if (c.observable.kind == LINEAR) == (kind == LINEAR)]
            if not idx:
                continue
            rows = [(checks[i][0], checks[i][1].observable) for i in idx]
            slots = {
                name: _slots([
                    terms(nid, getattr(o, name)) if name != "phase_terms" or o.kind == GATE else []
                    for nid, o in rows
                ])
                for name in fields
            }
            o = SimpleNamespace(
                kind=kind,
                offset=np.array([o.offset for _, o in rows], dtype=float),
                omega=np.array([o.omega for _, o in rows], dtype=float),
                t_nominal=np.array(
                    [math.pi / o.omega if o.t_nominal is None else o.t_nominal for _, o in rows], dtype=float
                ),
            )
            self.families.append((np.array(idx), o, slots, _slots([disturbances(nid) for nid, _ in rows])))
        self.rules = []
        for op in sorted({c.rule.op for _, c in checks}):
            idx = [i for i, (_, c) in enumerate(checks) if c.rule.op == op]
            rules = [checks[i][1].rule for i in idx]
            bound = np.array([r.bound for r in rules], dtype=float)
            center = np.array([r.center for r in rules], dtype=float)
            self.rules.append((np.array(idx), Rule(op=op, bound=bound, center=center)))
        self.ids = [n.id for n in sim.graph.nodes]
        # each node's first check column; a node is in spec iff all its checks pass
        self.first = np.cumsum([0] + [len(n.checks) for n in sim.graph.nodes])[:-1]
        self.n_checks = len(checks)
        # the block covers cycles start + 1 .. end; zs holds its normals
        self.start = self.end = 0
        self.zs = np.empty((0, len(self.rngs)))
        self.stale = True

    def _paths(self, t: int, n: int) -> np.ndarray:
        """Paths over cycles t + 1 .. t + n from the states as of cycle t;
        column i holds the values of ``states[i]``."""
        n_log = len(self.rngs)
        blocks = [np.empty((n, 0))]
        if n_log:
            st = self.states[:n_log]
            kept = self.zs[t - self.start :]
            fresh = np.stack([rng.standard_normal(n - len(kept)) for rng in self.rngs], axis=1)
            self.zs = np.concatenate([kept, fresh])
            csc = np.array(self.csc[:n_log], dtype=float)
            blocks.append(logistic_drift_path(np.array([s.value for s in st]), csc, self.logistic, self.zs))
        if len(self.states) > n_log:
            st = self.states[n_log:]
            csc = np.array(self.csc[n_log:], dtype=float)
            taus = csc + np.arange(1, n + 1, dtype=float)[:, None]
            blocks.append(exponential_decay_value(taus, self.exponential, v0=np.array([s.anchor for s in st])))
        return blocks[1] if len(blocks) == 2 else np.concatenate(blocks, axis=1)

    def _rebuild(self, t: int) -> None:
        """Compute the block of cycles t + 1 .. t + ``_BLOCK``; row j is cycle t + j + 1."""
        sim = self.sim
        n = _BLOCK
        # each state's cycles since calibration at cycle t
        self.csc = [s.cycles_since_cal for s in self.states]
        self.paths = paths = self._paths(t, n)
        obs = np.empty((n, self.n_checks))
        for idx, o, slots, dist_slots in self.families:
            width = len(idx)
            obs[:, idx] = _observable(
                o, lambda name: _slot_sum(slots[name], paths, width), _slot_sum(dist_slots, paths, width)
            )
        ok = np.empty((n, self.n_checks), dtype=bool)
        for idx, rule in self.rules:
            ok[:, idx] = rule.in_spec(obs[:, idx])
        if self.n_checks > len(self.ids):
            ok = np.logical_and.reduceat(ok, self.first, axis=1)
        self.ok = ok
        first_obs = obs[:, self.first]

        # (row, node, 0) marks an onset or a recovery, (row, node, 1) a grid
        # sample; sorted, they are in the order a trace lists them
        marks = []
        if sim.cfg.oracle_ttf:
            prev = np.empty_like(ok)
            prev[0] = [sim._in_spec[nid] for nid in self.ids]
            prev[1:] = ok[:-1]
            rows, cols = np.nonzero(ok != prev)
            marks = [(j, m, 0) for j, m in zip(rows.tolist(), cols.tolist())]
        every = sim.cfg.drift_sample_every
        if every:
            grid = range((t // every + 1) * every - t - 1, n, every)
            marks += [(j, m, 1) for j in grid for m in range(len(self.ids))]
        self.events = []
        for j, m, kind in sorted(marks):
            if kind == 0 and not ok[j, m]:
                self.events.append((t + j + 1, self.ids[m], ORACLE_OUT_OF_SPEC, FAIL, None))
            else:
                outcome = PASS if ok[j, m] else FAIL
                self.events.append((t + j + 1, self.ids[m], DRIFT_SAMPLE, outcome, float(first_obs[j, m])))
        self.next = 0
        self.start, self.end = t, t + n
        self.stale = False

    def advance(self, t0: int, k: int) -> None:
        """Bookkeeping over cycles t0 + 1 .. t0 + k."""
        sim = self.sim
        t = t0 + k
        while t0 < t:
            if self.stale or t0 >= self.end:
                self._rebuild(t0)
            t0 = min(t, self.end)
            events = self.events
            while self.next < len(events) and events[self.next][0] <= t0:
                time, nid, op, outcome, value = events[self.next]
                sim._emit(time, nid, op, outcome, value=value)
                self.next += 1
            # every state and verdict as of cycle t0, the block's row j
            j = t0 - self.start - 1
            for s, v, csc in zip(self.states, self.paths[j].tolist(), self.csc):
                s.value = v
                s.cycles_since_cal = csc + j + 1
                s.at = t0
            for nid, now in zip(self.ids, self.ok[j].tolist()):
                sim._in_spec[nid] = now


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
    out = np.zeros(total, dtype=bool)
    cost = {n.id: {"check_cycles": 0, "calibrate_cycles": 0} for n in graph.nodes} if graph is not None else {}
    for node, events in run.by_node.items():
        flips: list[tuple[int, bool]] = []
        for e in events:
            if e.op in (CHECK_DATA, CALIBRATE):
                row = cost.setdefault(node, {"check_cycles": 0, "calibrate_cycles": 0})
                row["check_cycles" if e.op == CHECK_DATA else "calibrate_cycles"] += e.duration
                busy[e.time:e.time + e.duration] = True
            if ground_truth:
                if e.op in (ORACLE_OUT_OF_SPEC, DRIFT_SAMPLE):
                    flips.append((e.time, e.op == DRIFT_SAMPLE and e.outcome == PASS))
            elif e.op == CHECK_DATA and e.outcome == FAIL:
                flips.append((e.time, False))
            elif (e.op, e.outcome) in ((CHECK_DATA, PASS), (CALIBRATE, SUCCESS)):
                flips.append((e.time + e.duration, True))
        # a node is in spec until its first flip; among flips at one cycle
        # the last in trace order holds (times are >= 0, as validated)
        status, at = True, 0
        for when, new_status in sorted(flips, key=lambda f: f[0]):
            if not status:
                out[at:when] = True
            status, at = new_status, when
        if not status:
            out[at:] = True

    avail = float(np.mean(~busy & ~out))
    return AvailabilityReport(availability=avail, per_node_cost=cost)
