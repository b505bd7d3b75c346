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

Drift is computed a block of cycles ahead of the clock (``_Tracker``).
A block holds, for ``_BLOCK`` + 1 consecutive cycles, the values of all
parameters and disturbances stacked one column per state and every
check's noiseless reading; the tracker's arrays are the one copy of the
states. Advancing the clock only moves the clock; a check reads its row
of the block, and a read past the block's end builds the next block. A
calibration writes its parameters' new values into the row of its cycle
and has the rest of the block redone for those parameters and the checks
that read them only, and its verdict is its node's rules applied to the
readings of that row, as a check applies them. So the cost of a run
follows its blocks and calibrations, not its advances or its reads.
Ground-truth tracking (``oracle_ttf``, ``drift_sample_every``) adds every
node's verdict to each row and emits the block's events as the clock
passes them; it logs the same rows the checks read, so its verdicts are
exactly what a noiseless check would see.

Randomness is split into named substreams keyed by (purpose, node,
parameter), and every drift substream draws exactly one normal per
elapsed cycle, in cycle order, however the cycles fall into blocks, so
two runs with the same seed but different scheduling see identical
drift cycle for cycle: availability deltas between scheduling modes are
then paired comparisons, not resampling noise. Each stream is drawn in
chunks ahead of its use, which gives the same bits as drawing one
normal at a time. Checks measure the state at the cycle they start;
their cost is paid afterwards.

What depends only on the graph (the scheduler's tables, each state's
column and each check's probe, the block plans, the graph's hash) is
worked out once per graph and shared by its runs (``_Layout``).

The run loop jumps the clock directly between maintenance due times in
one batch per idle stretch, and asks a sink to maintain itself only when
it or one of its ancestors is due (an episode with nothing due emits
nothing); ``run_stepwise`` executes literal one-cycle steps, asking every
sink every cycle, and produces the identical trace (asserted in tests),
so the batching is an optimization, not a semantic choice.

Every row carries an episode number. The initial calibration is episode
0. A maintenance or diagnosis episode takes the next number when it
starts and gives it back if it emitted no row, so a trace numbers its
episodes without gaps; rows emitted between episodes (ground-truth events
as the clock passes) carry the number of the episode before them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .drift import (
    LogisticDriftCfg,
    drift_walk,
    exponential_decay_value,
    logistic_drift_path,
    logistic_rate,
    transfer_probability,
)
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
    _KIND_CODE,
    Run,
    RunMeta,
    run_from_rows,
)

BASELINE = "baseline"
HIGH_FREQUENCY = "high_frequency"
ADAPTIVE = "adaptive"
_MODES = (BASELINE, HIGH_FREQUENCY, ADAPTIVE)

SKIPPED = "skipped"
VERIFIED = "verified"
RECALIBRATED = "recalibrated"

_U64 = (1 << 64) - 1
# calibration attempts before a node backs off for a timeout
_MAX_RETRIES = 3


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

    def __post_init__(self) -> None:
        if self.total_cycles < 1:
            raise ValueError(f"total_cycles must be >= 1, got {self.total_cycles}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.hf_timeout is not None and self.hf_timeout < 1:
            raise ValueError(f"hf_timeout must be >= 1, got {self.hf_timeout}")
        if self.drift_sample_every < 0:
            raise ValueError(f"drift_sample_every must be >= 0, got {self.drift_sample_every}")


def _substream(seed: int, *labels: str) -> np.random.Generator:
    # hashlib, not hash(): stream identity must survive interpreter restarts
    digest = hashlib.sha256("/".join(labels).encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed & _U64, *words])))


# standard normals a measurement or calibration stream draws at a time
_NOISE = 256


def _normals(rng: np.random.Generator):
    """The stream's standard normals one at a time, drawn ``_NOISE`` at a
    time: a chunked draw gives the same bits as single draws."""
    while True:
        yield from rng.standard_normal(_NOISE).tolist()


def _stream_tag(key: tuple[str, str], spec) -> str:
    """The label of a parameter's drift and calibration streams."""
    return spec.stream_tag or "/".join(key)


def _observable(o, term_sum, external):
    """Noiseless values of a family of observables ``o`` (its fields are
    per-column arrays) from the weighted deviation sums ``term_sum(name)``
    over each term field and the disturbance contribution ``external``."""
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


# a check's event code, indexed by whether it passed
_CHECK_CODE = (_KIND_CODE[CHECK_DATA][FAIL], _KIND_CODE[CHECK_DATA][PASS])


class Simulator:
    """Mutable state of one run; produces an in-memory event trace."""

    def __init__(self, graph: GraphSpec, cfg: SimConfig, run_id: str | None = None):
        lay = self._layout = _layout(graph)
        self.graph = graph
        self.cfg = cfg
        self.run_id = run_id if run_id is not None else f"run-{cfg.seed}"
        self.t = 0
        self.calibration_failures: list[tuple[int, str]] = []
        self._rows: list[tuple] = []  # one per event emitted, as run_from_rows takes them
        self._ep = 0
        self._initialized = False

        self._nodes, self._deps, self._sinks_of = lay.nodes, lay.deps, lay.sinks_of
        hf = cfg.hf_timeout if cfg.mode == HIGH_FREQUENCY else None
        self._timeout = {nid: n.timeout if hf is None else hf for nid, n in lay.nodes.items()}
        self._last_verified = {nid: 0 for nid in lay.nodes}
        self._far_past = -(1 << 60)
        self._last_cal_end = {nid: self._far_past for nid in lay.nodes}
        self._cooldown = {nid: self._far_past for nid in lay.nodes}
        self._due = {nid: 0 for nid in lay.nodes}
        # each sink's first due time over its ancestry
        self._sink_due = {s: 0 for s, _ in lay.sinks}
        for nid in lay.nodes:
            self._update_due(nid)

        # each node's probes, check cost and measurement noise stream
        self._checks = {
            nid: (lay.probes[nid], n.check_cost, _normals(_substream(cfg.seed, "meas", nid)))
            for nid, n in lay.nodes.items()
        }
        self._cal = {k: _normals(_substream(cfg.seed, "cal", _stream_tag(k, p))) for k, p in lay.param_spec.items()}
        self._tracker = _Tracker(lay, cfg)
        self._emits = self._tracker.emits

    # --- plumbing ---

    def _node(self, nid: str) -> NodeSpec:
        try:
            return self._nodes[nid]
        except KeyError:
            raise UnknownNodeError(f"no node {nid!r} in graph") from None

    def _update_due(self, nid: str) -> None:
        """Recompute the first cycle at which check_state stops skipping the
        node; called whenever one of its three inputs changes."""
        due, sink_due = self._due, self._sink_due
        old = due[nid]
        new = due[nid] = max(
            self._last_verified[nid] + self._timeout[nid],
            self._last_cal_end[nid] + self._nodes[nid].post_cal_delay,
            self._cooldown[nid],
        )
        # a sink's due time is the least over its ancestry: it falls to a
        # lower time, and is looked up again only when the node held it
        for s, ancestry in self._sinks_of[nid]:
            if new <= sink_due[s]:
                sink_due[s] = new
            elif old == sink_due[s]:
                sink_due[s] = min(map(due.__getitem__, ancestry))

    def _emit(self, time, node, op, outcome, dur=0, value=None, before=None, after=None):
        self._rows.append((time, node, _KIND_CODE[op][outcome], dur, self._ep, value, before, after))

    # --- ground truth ---

    def _in_spec(self, nid: str) -> bool:
        """Whether every check of ``nid`` passes on its noiseless reading
        now, by the predicate a check applies."""
        tr = self._tracker
        j = tr.cover(self.t)
        return all(rule.in_spec(tr.obs.item(j, col)) for col, _, rule in self._layout.probes[nid])

    def _advance(self, k: int) -> None:
        """Move the clock k cycles; under ground-truth tracking, emit the
        events of the cycles passed."""
        self.t += k
        if self._emits:
            self._tracker.cover(self.t, self._emit)

    def _flag_recheck(self, was) -> None:
        """Emit, in node id order, the ground-truth transitions a calibration
        caused, from every node's verdicts ``was`` just before its reset."""
        tr = self._tracker
        j = tr.cover(self.t)
        now = tr.ok[j]
        for m in sorted(np.flatnonzero(now != was).tolist(), key=tr.ids.__getitem__):
            if now[m]:
                self._emit(self.t, tr.ids[m], DRIFT_SAMPLE, PASS, value=tr.obs.item(j, tr.spans[m].start))
            else:
                self._emit(self.t, tr.ids[m], ORACLE_OUT_OF_SPEC, FAIL)

    # --- operations ---

    def _check_data(self, nid: str) -> bool:
        start = self.t
        tr = self._tracker
        j = tr.cover(start)
        probes, cost, noise_draws = self._checks[nid]
        ok = True
        for col, noise, rule in probes:
            obs = tr.obs.item(j, col)
            if noise > 0.0:
                obs += next(noise_draws) * noise
            if not rule.in_spec(obs):
                ok = False
        self._rows.append((start, nid, _CHECK_CODE[ok], cost, self._ep, None, None, None))
        self._advance(cost)
        if ok:
            self._last_verified[nid] = self.t
            self._update_due(nid)
        return ok

    def _reset_params(self, nid: str) -> None:
        tr = self._tracker
        t = self.t
        for pname, col, optimal, cal_noise in self._layout.params[nid]:
            tr.reset(col, optimal + next(self._cal[(nid, pname)]) * cal_noise, t)
        # a compensating knob cancels everything else its check reads, at
        # the freshly reset values
        for knob, weight, terms in self._layout.compensate[nid]:
            external = 0.0
            for col, w, optimal in terms:
                external += w * (tr.value(col, t) - optimal)
            tr.reset(knob, tr.value(knob, t) - external / weight, t)

    def _calibrate(self, nid: str) -> bool:
        node = self._nodes[nid]
        tr = self._tracker
        params = self._layout.params[nid]
        for _ in range(_MAX_RETRIES):
            start = self.t
            before = [(pname, tr.value(col, start)) for pname, col, _, _ in params]
            self._advance(node.calibrate_cost)
            # every node's verdicts are read only to flag the changes
            was = tr.ok[tr.cover(self.t)].copy() if self.cfg.oracle_ttf else None
            self._reset_params(nid)
            ok = self._in_spec(nid)
            after = [(pname, tr.value(col, self.t)) for pname, col, _, _ in params]
            self._emit(
                start, nid, CALIBRATE, SUCCESS if ok else FAILED,
                dur=node.calibrate_cost, before=before, after=after,
            )
            if was is not None:
                self._flag_recheck(was)
            if ok:
                self._last_verified[nid] = self.t
                self._last_cal_end[nid] = self.t
                self._update_due(nid)
                return True
        self.calibration_failures.append((self.t, nid))
        self._cooldown[nid] = self.t + self._timeout[nid]
        self._update_due(nid)
        return False

    def _maintain(self, nid: str, resolved: set[str]) -> str:
        if nid in resolved:
            return SKIPPED
        for dep in self._deps[nid]:
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
        for dep in self._deps[nid]:
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
        self._ep += 1
        emitted = len(self._rows)
        result = work(node_id, set())
        if len(self._rows) == emitted:
            self._ep -= 1
        return result

    def maintain(self, node_id: str) -> str:
        """One demand-triggered maintenance episode rooted at ``node_id``."""
        return self._episode(self._maintain, node_id)

    def diagnose(self, node_id: str) -> list[str]:
        """Dependency diagnosis alone; returns ids in calibration order."""
        return self._episode(self._diagnose, node_id)

    def initial_calibration(self) -> None:
        """Calibrate every node once, dependencies first (episode 0)."""
        self._initialized = True
        for nid in self._layout.order:
            self._calibrate(nid)

    def step(self) -> None:
        """Advance one cycle, then attempt maintenance on every sink."""
        self._advance(1)
        for s, _ in self._layout.sinks:
            self.maintain(s)

    def run(self) -> Run:
        """Initial calibration plus the full maintenance loop."""
        if not self._initialized:
            self.initial_calibration()
        total = self.cfg.total_cycles
        due, sinks, maintain = self._sink_due, self._layout.sinks, self._maintain
        while self.t < total:
            # a demand pass at cycle s does work iff some node is due by s,
            # so jump straight to the first such cycle (strictly ahead:
            # a node turning due mid-pass waits for the next cycle)
            target = max(self.t + 1, min(due.values(), default=total))
            self._advance(min(target, total) - self.t)
            if target > total:
                break
            for s, _ in sinks:
                # an episode in which nothing is due would emit nothing;
                # one with a node due checks it, so it keeps its number
                if due[s] <= self.t:
                    self._ep += 1
                    maintain(s, set())
        return self.finish()

    def run_stepwise(self) -> Run:
        """Literal cycle-by-cycle execution; trace-identical to run()."""
        if not self._initialized:
            self.initial_calibration()
        while self.t < self.cfg.total_cycles:
            self.step()
        return self.finish()

    def finish(self) -> Run:
        meta = RunMeta(
            run_id=self.run_id,
            seed=self.cfg.seed,
            graph_hash=self._layout.hash,
            mode=self.cfg.mode,
            total_cycles=self.cfg.total_cycles,
        )
        # events in time order, and in the order they were emitted within a
        # cycle; only tracking emits events of a cycle that an operation's
        # own event, stamped with its start, follows
        rows = sorted(self._rows, key=itemgetter(0)) if self._emits else self._rows
        return run_from_rows(meta, rows)


def _columns(objs, names) -> SimpleNamespace:
    """The named fields of ``objs`` as arrays with one entry per object."""
    return SimpleNamespace(**{n: np.array([getattr(o, n) for o in objs], dtype=float) for n in names})


def _index(cols: list[int]):
    """``cols`` as an index: a slice (a view) when they are contiguous."""
    if cols and cols == list(range(cols[0], cols[-1] + 1)):
        return slice(cols[0], cols[-1] + 1)
    return np.array(cols, dtype=int)


def _slots(rows) -> list:
    """Terms of several sums, regrouped by position.

    ``rows[r]`` lists the (column, weight, optimal) terms of sum r;
    ``optimal=None`` marks a disturbance, which enters undeviated. Slot j
    holds the j-th term of every sum that has one, so that adding the
    slots in order adds each sum's terms in its own order. A slot's
    ``live`` is None when every sum has its term, its weight None when
    every weight is 1.0 and its optimal None when every optimum is +0.0:
    multiplying by 1.0 and subtracting +0.0 change no bit.
    """
    out = []
    for j in range(max(map(len, rows), default=0)):
        live = [r for r, terms in enumerate(rows) if len(terms) > j]
        col, weight, optimal = zip(*(rows[r][j] for r in live))
        weight = np.array(weight, dtype=float)
        optimal = np.array([0.0 if x is None else x for x in optimal], dtype=float)
        out.append((
            None if len(live) == len(rows) else _index(live),
            _index(list(col)),
            None if (weight == 1.0).all() else weight,
            None if not optimal.any() and not np.signbit(optimal).any() else optimal,
        ))
    return out


def _slot_sum(slots, paths: np.ndarray, width: int):
    """Per-cycle sums over stacked paths, each sum's terms added in order
    to 0.0."""
    total = np.zeros((len(paths), width), order="F") if slots and slots[0][0] is not None else 0.0
    for live, col, weight, optimal in slots:
        x = paths[:, col]
        if optimal is not None:
            x = x - optimal
        if weight is not None:
            x = weight * x
        if live is None:
            total = total + x
        else:
            total[:, live] += x
    return total


# cycles a block computes past the cycle it starts from
_BLOCK = 512
# rows of drift normals drawn at a time, ahead of the blocks that use them
_NORMALS = 2048

# the term fields of each observable family; the transfer family is
# evaluated as gates, a transition being a gate whose phase error is zero
# (cos(0)^2 == 1.0 exactly)
_FAMILIES = {LINEAR: ("terms",), GATE: ("detuning_terms", "time_terms", "phase_terms", "background_terms")}


class _Layout:
    """What every run of one graph shares, worked out once per graph.

    The scheduler's tables: each node's dependencies, the sinks with their
    ancestry, each node's probes, one (reading column, noise, rule) per
    check, its parameters and its compensated checks. The tracker's: one
    column per state, logistic ones first, each check's terms, and the
    block plans, each built the first time a calibration needs it. And the
    graph's hash.
    """

    def __init__(self, graph: GraphSpec):
        validate_graph(graph)
        self.hash = graph_hash(graph)
        self.nodes: dict[str, NodeSpec] = {n.id: n for n in graph.nodes}
        self.deps = {n.id: tuple(sorted(n.dependencies)) for n in graph.nodes}
        self.order = topological_order(graph)
        # a sink's episode does work only if it or an ancestor is due
        ancestry: dict[str, frozenset] = {}
        for nid in self.order:
            ancestry[nid] = frozenset({nid}).union(*(ancestry[d] for d in self.deps[nid]))
        self.sinks = [(s, tuple(ancestry[s])) for s in graph.sink_ids()]
        self.sinks_of = {nid: [(s, a) for s, a in self.sinks if nid in a] for nid in self.nodes}
        self.param_spec = {(n.id, pname): pspec for n in graph.nodes for pname, pspec in n.params}

        # one column per state, logistic ones first: each parameter, keyed
        # (node, name), starts at its optimum; each disturbance, keyed by
        # its index, at 0.0
        states = [(k, p.drift, p.optimal, ("drift", _stream_tag(k, p))) for k, p in self.param_spec.items()]
        states += [(i, d.drift, 0.0, ("dist", d.tag)) for i, d in enumerate(graph.disturbances)]
        states.sort(key=lambda st: not isinstance(st[1], LogisticDriftCfg))
        self.column = {key: c for c, (key, _, _, _) in enumerate(states)}
        self.cfgs = [cfg for _, cfg, _, _ in states]
        self.n_log = n_log = sum(isinstance(cfg, LogisticDriftCfg) for cfg in self.cfgs)
        self.streams = [labels for _, _, _, labels in states[:n_log]]
        self.anchor = np.array([value for _, _, value, _ in states], dtype=np.float64)
        self.ids = [n.id for n in graph.nodes]
        self.checks = [(n.id, c) for n in graph.nodes for c in n.checks]
        # each node's check columns; a node is in spec iff all its checks pass
        ends = np.cumsum([len(n.checks) for n in graph.nodes]).tolist()
        self.spans = [range(end - len(n.checks), end) for n, end in zip(graph.nodes, ends)]
        self.probes = {
            n.id: tuple((col, c.observable.noise, c.rule) for col, c in zip(span, n.checks))
            for n, span in zip(graph.nodes, self.spans)
        }
        # each node's parameters as (name, state column, optimum, calibration noise)
        self.params = {
            n.id: tuple((pname, self.column[(n.id, pname)], p.optimal, p.effective_cal_noise) for pname, p in n.params)
            for n in graph.nodes
        }

        def terms(nid: str, ts) -> list:
            keys = [(tm.node or nid, tm.param) for tm in ts]
            return [(self.column[k], tm.weight, self.param_spec[k].optimal) for k, tm in zip(keys, ts)]

        # each check's sums as (state column, weight, optimal) terms per
        # term field of its family, and its disturbances as (column,
        # strength, None); a transition reads no phase terms. Each node's
        # compensated linear checks as (knob column, knob weight, every
        # other term the check reads): its disturbances, undeviated, then
        # its terms in order but the knob's first
        self.terms, self.dists = [], []
        self.compensate = {nid: [] for nid in self.ids}
        dists = list(enumerate(graph.disturbances))
        for nid, c in self.checks:
            o = c.observable
            fields = _FAMILIES[LINEAR if o.kind == LINEAR else GATE]
            skip = {"phase_terms"} if o.kind != GATE else set()
            self.terms.append({name: terms(nid, () if name in skip else getattr(o, name)) for name in fields})
            self.dists.append([(self.column[i], d.strength, None) for i, d in dists if nid in d.affected])
            if o.kind == LINEAR and o.compensate is not None:
                own = self.terms[-1]["terms"]
                i = [col for col, _, _ in own].index(self.column[(nid, o.compensate)])
                others = [(col, strength, 0.0) for col, strength, _ in self.dists[-1]] + own[:i] + own[i + 1 :]
                self.compensate[nid].append((*own[i][:2], others))
        # the state columns each node's checks read
        self.reads = [
            {col for c in span for ts in (*self.terms[c].values(), self.dists[c]) for col, _, _ in ts}
            for span in self.spans
        ]
        self.plans: dict[frozenset, SimpleNamespace] = {}
        self.all = self._plan(range(len(states)), range(len(self.ids)))

    def plan(self, cols: frozenset) -> SimpleNamespace:
        """The plan that redoes state columns ``cols`` and the nodes that
        read them, built once."""
        if cols not in self.plans:
            self.plans[cols] = self._plan(cols)
        return self.plans[cols]

    def ramp(self, plan: SimpleNamespace, n: int) -> np.ndarray:
        """The step-scale ramp of the plan's logistic states over the n
        cycles after a calibration (tau 0 .. n - 1), built once per length,
        column-major as the drift normals are."""
        if n not in plan.ramps:
            tau = np.asfortranarray(np.broadcast_to(np.arange(n, dtype=float)[:, None], (n, len(plan.logistic.sigma))))
            plan.ramps[n] = logistic_rate(tau, plan.logistic)
        return plan.ramps[n]

    def _plan(self, cols, nodes=None) -> SimpleNamespace:
        """How to redo the paths of state columns ``cols`` and the readings
        and verdicts of ``nodes``, by default every node that reads one of
        those states."""
        cols = sorted(cols)
        log = [c for c in cols if c < self.n_log]
        exp = [c for c in cols if c >= self.n_log]
        if nodes is None:
            nodes = [m for m, reads in enumerate(self.reads) if reads.intersection(cols)]
        checks = [c for m in nodes for c in self.spans[m]]
        families = []
        for kind, fields in _FAMILIES.items():
            idx = [c for c in checks if (self.checks[c][1].observable.kind == LINEAR) == (kind == LINEAR)]
            if not idx:
                continue
            specs = [self.checks[c][1].observable for c in idx]
            o = _columns(specs, ("offset", "omega"))
            o.kind = kind
            o.t_nominal = np.array([math.pi / x.omega if x.t_nominal is None else x.t_nominal for x in specs], float)
            slots = {name: _slots([self.terms[c][name] for c in idx]) for name in fields}
            families.append((_index(idx), len(idx), o, slots, _slots([self.dists[c] for c in idx])))
        rules = []
        for op in sorted({self.checks[c][1].rule.op for c in checks}):
            pos = [i for i, c in enumerate(checks) if self.checks[c][1].rule.op == op]
            rule = Rule(op, **vars(_columns([self.checks[checks[i]][1].rule for i in pos], ("bound", "center"))))
            rules.append((_index(pos), _index([checks[i] for i in pos]), rule))
        cfgs = [self.cfgs[c] for c in cols]
        return SimpleNamespace(
            cols=cols,
            log=_index(log) if log else None,
            exp=_index(exp) if exp else None,
            logistic=_columns(cfgs[: len(log)], ("r_max", "tau_mid", "tau_scale", "sigma")),
            ramps={},
            exponential=_columns(cfgs[len(log) :], ("rate", "limit")),
            families=families,
            rules=rules,
            nodes=_index(list(nodes)),
            width=len(checks),
            # each node's first position among ``checks``, when some node has several
            first=np.cumsum([0] + [len(self.spans[m]) for m in nodes])[:-1] if len(checks) > len(nodes) else None,
        )


# the layouts of the graphs simulated last, keyed by identity; an entry
# holds its graph, so that no other graph takes the id while it stands
_LAYOUTS: dict[int, tuple[GraphSpec, _Layout]] = {}


def _layout(graph: GraphSpec) -> _Layout:
    """The graph's layout, built on its first run."""
    entry = _LAYOUTS.get(id(graph))
    if entry is None:
        if len(_LAYOUTS) >= 8:
            del _LAYOUTS[next(iter(_LAYOUTS))]
        entry = _LAYOUTS[id(graph)] = (graph, _Layout(graph))
    return entry[1]


class _Tracker:
    """Drift, readings and ground truth of every state, a block ahead.

    A block holds rows for cycles start .. start + ``_BLOCK``, row j
    being cycle start + j: every state's value in ``paths`` (one drift
    call per model, one column per state), every check's noiseless
    reading in ``obs`` (one array expression per observable family) and,
    under ground-truth tracking only, every node's verdict in ``ok`` (one
    predicate per rule op) and the onset, recovery and grid events in
    trace order; without tracking a verdict is taken from ``obs`` where it
    is read. ``anchor`` holds each state's value at its last calibration
    and ``csc`` + j its cycles since then at row j. The next block starts
    from the last row. ``value`` reads a state; ``reset`` writes its row,
    anchor and ``csc`` at cycle ``at`` and marks it ``changed``, and the
    first read at another cycle redoes, from ``at`` to the block's end,
    only the changed states' paths and the readings (and verdicts) of the
    nodes that read them. Each logistic stream draws one normal per cycle,
    in cycle order, once, ``_NORMALS`` cycles ahead, so blocks of any
    length give the same bits.
    """

    def __init__(self, lay: _Layout, cfg: SimConfig):
        self.cfg = cfg
        self.emits = cfg.oracle_ttf or cfg.drift_sample_every > 0
        self.lay = lay
        self.column, self.ids, self.spans = lay.column, lay.ids, lay.spans
        self.rngs = [_substream(cfg.seed, *labels) for labels in lay.streams]
        # drift normals drawn and not yet used, one column per logistic stream
        self.normals = np.empty((0, len(self.rngs)))
        self.anchor = lay.anchor.copy()
        self.csc = np.zeros(len(self.anchor), dtype=np.int64)
        self.changed: set[int] = set()
        self.paths = self.anchor[None]
        self.start = self.end = 0
        self._rebuild()

    def _draw(self, n: int) -> np.ndarray:
        """The next n rows of drift normals, for the block of n cycles that
        starts now; each stream draws whole ``_NORMALS``-row chunks, and
        none past the run's last block."""
        short = n - len(self.normals)
        if short > 0:
            last = -(-(self.cfg.total_cycles - self.start) // n) * n
            k = max(short, min(-(-short // _NORMALS) * _NORMALS, last - len(self.normals)))
            fresh = np.stack([rng.standard_normal(k) for rng in self.rngs]).T  # column-major
            self.normals = np.concatenate([self.normals, fresh]) if len(self.normals) else fresh
        zs, self.normals = self.normals[:n], self.normals[n:]
        return zs

    def _redo(self, plan: SimpleNamespace, j0: int) -> None:
        """Rows j0 + 1 .. of the plan's paths, and rows j0 .. of its readings
        and verdicts, from the states' row j0."""
        paths, csc = self.paths, self.csc
        if plan.log is not None:
            log = plan.log
            zs = self.zs[j0:, log]
            if plan is self.lay.all:
                paths[j0 + 1 :, log] = logistic_drift_path(paths[j0, log], csc[log] + j0, plan.logistic, zs)
            else:
                # every state a partial redo walks was reset at row j0, so
                # its ramp is the plan's, from tau 0
                ramp = self.lay.ramp(plan, len(self.zs))[: len(zs)]
                paths[j0 + 1 :, log] = drift_walk(paths[j0, log], zs * plan.logistic.sigma * ramp)
        if plan.exp is not None:
            taus = csc[plan.exp] + np.arange(j0 + 1, len(paths), dtype=float)[:, None]
            paths[j0 + 1 :, plan.exp] = exponential_decay_value(taus, plan.exponential, v0=self.anchor[plan.exp])
        paths = paths[j0:]
        for idx, width, o, slots, dist_slots in plan.families:
            self.obs[j0:, idx] = _observable(
                o, lambda name: _slot_sum(slots[name], paths, width), _slot_sum(dist_slots, paths, width)
            )
        if not self.emits:
            return
        ok = np.empty((len(paths), plan.width), dtype=bool)
        for pos, idx, rule in plan.rules:
            ok[:, pos] = rule.in_spec(self.obs[j0:, idx])
        if plan.first is not None:
            ok = np.logical_and.reduceat(ok, plan.first, axis=1)
        self.ok[j0:, plan.nodes] = ok
        # the events after row j0 are listed again when they are due
        self.events, self.next, self.listed = [], 0, self.start + j0

    def _rebuild(self) -> None:
        """Start the next block from the current one's last row."""
        n = _BLOCK
        last = self.paths[-1]
        self.csc += self.end - self.start
        self.start = self.at = self.end
        self.end += n
        if self.rngs:
            self.zs = self._draw(n)
        # column-major, as the normals are: each column's cycles lie in one
        # run, along which numpy broadcasts that column's constants
        self.paths = np.empty((n + 1, len(last)), order="F")
        self.paths[0] = last
        self.obs = np.empty((n + 1, len(self.lay.checks)), order="F")
        if self.emits:
            self.ok = np.empty((n + 1, len(self.ids)), dtype=bool, order="F")
        self._redo(self.lay.all, 0)

    def _events(self, lo: int, hi: int) -> list[tuple]:
        """The ground-truth events of cycles lo + 1 .. hi, in trace order."""
        cfg, ok, t = self.cfg, self.ok, self.start
        # (row, node, 0) marks an onset or a recovery, (row, node, 1) a grid
        # sample; sorted, they are in the order a trace lists them
        marks = []
        if cfg.oracle_ttf:
            rows, cols = np.nonzero(ok[lo - t + 1 : hi - t + 1] != ok[lo - t : hi - t])
            marks = [(lo - t + 1 + j, m, 0) for j, m in zip(rows.tolist(), cols.tolist())]
        every = cfg.drift_sample_every
        if every:
            grid = range((lo // every + 1) * every - t, hi - t + 1, every)
            marks += [(j, m, 1) for j in grid for m in range(len(self.ids))]
        events = []
        for j, m, kind in sorted(marks):
            if kind == 0 and not ok[j, m]:
                events.append((t + j, self.ids[m], ORACLE_OUT_OF_SPEC, FAIL, None))
            else:
                outcome = PASS if ok[j, m] else FAIL
                events.append((t + j, self.ids[m], DRIFT_SAMPLE, outcome, float(self.obs[j, self.spans[m].start])))
        return events

    def cover(self, t: int, emit=None) -> int:
        """The block's row of cycle t, building blocks up to it; with
        ``emit``, passes it every block event up to t not yet passed."""
        if t <= self.end and not self.changed and emit is None:
            return t - self.start
        if self.changed:
            key = frozenset(self.changed)
            self.changed.clear()
            self._redo(self.lay.plan(key), self.at - self.start)
        while True:
            last = min(t, self.end)
            while emit:
                events = self.events
                while self.next < len(events) and events[self.next][0] <= last:
                    time, nid, op, outcome, value = events[self.next]
                    emit(time, nid, op, outcome, value=value)
                    self.next += 1
                if self.listed >= last:
                    break
                # list a few dozen cycles at a time, so that a calibration
                # discards few listed events
                hi = min(max(last, self.listed + 64), self.end)
                self.events, self.next, self.listed = self._events(self.listed, hi), 0, hi
            if t <= last:
                return t - self.start
            self._rebuild()

    def value(self, col: int, t: int) -> float:
        """State ``col``'s value at cycle t."""
        # at the pending reset's cycle the row is current as it stands
        j = t - self.start if t == self.at else self.cover(t)
        return self.paths.item(j, col)

    def reset(self, col: int, value: float, t: int) -> None:
        """Calibrate state ``col`` to ``value`` at cycle t; the next read
        past t redoes the rest of the block."""
        j = t - self.start if t == self.at else self.cover(t)
        self.at = t
        self.paths[j, col] = self.anchor[col] = value
        self.csc[col] = -j
        self.changed.add(col)


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
    columns = run.columns
    if ground_truth is None:
        ground_truth = any(len(c.times(ORACLE_OUT_OF_SPEC)) for c in columns.values())

    # lost intervals [start, end): operations running, and nodes out of spec
    starts, ends = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    cost = {n.id: {"check_cycles": 0, "calibrate_cycles": 0} for n in graph.nodes} if graph is not None else {}
    for node, c in columns.items():
        checks, calibrations = c.mask(CHECK_DATA), c.mask(CALIBRATE)
        busy = checks | calibrations
        if busy.any():
            row = cost.setdefault(node, {"check_cycles": 0, "calibrate_cycles": 0})
            row["check_cycles"] += int(c.duration[checks].sum())
            row["calibrate_cycles"] += int(c.duration[calibrations].sum())
            starts.append(c.time[busy])
            ends.append(c.time[busy] + c.duration[busy])
        if ground_truth:
            flips = c.mask(ORACLE_OUT_OF_SPEC) | c.mask(DRIFT_SAMPLE)
            when, in_spec = c.time[flips], c.mask(DRIFT_SAMPLE, PASS)[flips]
        else:
            failed = c.mask(CHECK_DATA, FAIL)
            passed = c.mask(CHECK_DATA, PASS) | c.mask(CALIBRATE, SUCCESS)
            flips = failed | passed
            when, in_spec = np.where(failed, c.time, c.time + c.duration)[flips], passed[flips]
        # a node is in spec until its first flip; among flips at one cycle
        # the last in trace order holds (times are >= 0, as validated)
        order = np.argsort(when, kind="stable")
        when, out = when[order], ~in_spec[order]
        starts.append(when[out])
        ends.append(np.append(when[1:], total)[out])

    start = np.minimum(np.concatenate(starts), total)
    end = np.minimum(np.concatenate(ends), total)
    lost = np.cumsum(np.bincount(start, minlength=total + 1) - np.bincount(end, minlength=total + 1))
    avail = int(np.count_nonzero(lost[:total] == 0)) / total
    return AvailabilityReport(availability=avail, per_node_cost=cost)
