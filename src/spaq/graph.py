"""Calibration DAG model: node specs, validation, rewrites, config I/O.

Nodes are calibration experiments with costs, a staleness timeout, and
drifting parameters. An edge ``x -> y`` (``y in x.dependencies``) means
x relies on y being calibrated. Each node carries one or more checks;
a check measures an observable (a linear combination of parameter
deviations or a closed-form physics expression) and applies a threshold
rule. Nodes pass check_data iff every check's rule passes.

Observable terms may reference parameters of other nodes. The
maintenance scheduler never reads terms; only ``dependencies`` drive
traversal, so a cross-node term that is not mirrored by an edge is a
physical coupling the scheduler cannot see.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .drift import DRIFT_MODELS, DriftCfg, LogisticDriftCfg, drift_cfg_to_dict
from .errors import CycleError, DuplicateIdError, UnknownNodeError
from .trace import atomic_write

GRAPH_SCHEMA = "spaq-graph-1"

LINEAR = "linear"
TRANSITION = "transition"
GATE = "gate"
_KINDS = (LINEAR, TRANSITION, GATE)

GE = "ge"
LE = "le"
ABS_LE = "abs_le"
_OPS = (GE, LE, ABS_LE)


@dataclass(frozen=True)
class ParamSpec:
    """One drifting parameter: optimal value, spec tolerance, drift model.

    ``cal_noise`` is the standard deviation of the post-calibration
    residual; None means 10% of the tolerance. ``stream_tag`` fixes the
    parameter's random-stream identity; graph rewrites that rename nodes
    set it to the original ``node/param`` pair so rewritten and original
    graphs consume identical drift streams under the same seed.
    """

    optimal: float
    tolerance: float
    drift: DriftCfg
    cal_noise: float | None = None
    stream_tag: str | None = None

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.cal_noise is not None and self.cal_noise < 0.0:
            raise ValueError(f"cal_noise must be >= 0, got {self.cal_noise}")

    @property
    def effective_cal_noise(self) -> float:
        return 0.1 * self.tolerance if self.cal_noise is None else self.cal_noise


@dataclass(frozen=True)
class Term:
    """A weighted reference to a parameter's deviation from optimal.

    ``node=None`` refers to the owning node.
    """

    param: str
    node: str | None = None
    weight: float = 1.0


@dataclass(frozen=True)
class Rule:
    """Threshold predicate over an observable."""

    op: str
    bound: float
    center: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"rule op must be one of {_OPS}, got {self.op!r}")

    def in_spec(self, obs: float | np.ndarray) -> bool | np.ndarray:
        """Whether ``obs`` passes the rule; elementwise for an array.

        The same operators serve both cases (``abs`` of an ndarray is
        ``np.abs``), so a check and the ground-truth tracking over a
        drift path apply one predicate.
        """
        if self.op == GE:
            return obs >= self.bound
        if self.op == LE:
            return obs <= self.bound
        return abs(obs - self.center) <= self.bound


# every field of ObservableSpec that holds a tuple of terms
_TERM_FIELDS = ("terms", "detuning_terms", "time_terms", "phase_terms", "background_terms")


@dataclass(frozen=True)
class ObservableSpec:
    """What a check_data experiment measures.

    kind=linear:      offset + sum(weight * (param - optimal)) over terms
    kind=transition:  two-level transfer probability with detuning/time
                      errors accumulated from terms, minus background
    kind=gate:        pi-rotation fidelity with phase/detuning/time error
                      terms, minus background

    ``noise`` is measurement noise applied per check_data run (never to
    the ground-truth value). ``compensate`` names an own parameter that
    calibration offsets to cancel external contributions (cross-node
    terms and hidden disturbances); linear kind only.
    """

    kind: str = LINEAR
    offset: float = 0.0
    terms: tuple[Term, ...] = ()
    noise: float = 0.0
    compensate: str | None = None
    omega: float = math.pi
    t_nominal: float | None = None
    detuning_terms: tuple[Term, ...] = ()
    time_terms: tuple[Term, ...] = ()
    phase_terms: tuple[Term, ...] = ()
    background_terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"observable kind must be one of {_KINDS}, got {self.kind!r}")
        if self.noise < 0.0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if self.compensate is not None and self.kind != LINEAR:
            raise ValueError("compensate is only meaningful for linear observables")
        if self.kind != LINEAR and self.omega <= 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")

    def all_terms(self) -> tuple[Term, ...]:
        return tuple(t for name in _TERM_FIELDS for t in getattr(self, name))

    def map_terms(self, fn) -> ObservableSpec:
        """Copy with each term tuple ``terms`` replaced by ``fn(terms)``."""
        return replace(self, **{name: fn(getattr(self, name)) for name in _TERM_FIELDS})


@dataclass(frozen=True)
class CheckSpec:
    observable: ObservableSpec
    rule: Rule


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one calibration node."""

    id: str
    check_cost: int
    calibrate_cost: int
    timeout: int
    post_cal_delay: int = 0
    dependencies: tuple[str, ...] = ()
    params: tuple[tuple[str, ParamSpec], ...] = ()
    checks: tuple[CheckSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("node id must be non-empty")
        if self.check_cost < 1 or self.calibrate_cost < 1:
            raise ValueError(f"{self.id}: costs must be >= 1")
        if self.timeout < 1:
            raise ValueError(f"{self.id}: timeout must be >= 1")
        if self.post_cal_delay < 0:
            raise ValueError(f"{self.id}: post_cal_delay must be >= 0")
        if not self.checks:
            raise ValueError(f"{self.id}: at least one check is required")

    @property
    def param_map(self) -> dict[str, ParamSpec]:
        return dict(self.params)

    def map_terms(self, fn) -> NodeSpec:
        """Copy with ``ObservableSpec.map_terms(fn)`` applied to every check."""
        return replace(
            self, checks=tuple(replace(c, observable=c.observable.map_terms(fn)) for c in self.checks)
        )


@dataclass(frozen=True)
class DisturbanceSpec:
    """A latent drift process added to the observables of ``affected``.

    Invisible to the scheduler; this is how hidden couplings between
    nominally independent nodes are modelled.
    """

    tag: str
    affected: tuple[str, ...]
    strength: float
    drift: LogisticDriftCfg


@dataclass(frozen=True)
class GraphSpec:
    nodes: tuple[NodeSpec, ...]
    disturbances: tuple[DisturbanceSpec, ...] = ()

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise UnknownNodeError(f"no node {node_id!r} in graph")

    def dependents(self) -> dict[str, tuple[str, ...]]:
        """node id -> sorted ids of nodes that depend on it."""
        out: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for d in n.dependencies:
                out[d].append(n.id)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    def sink_ids(self) -> tuple[str, ...]:
        """Demand roots: nodes nothing else depends on, sorted."""
        deps = self.dependents()
        return tuple(sorted(n.id for n in self.nodes if not deps[n.id]))


def validate_graph(graph: GraphSpec) -> None:
    """Raise on duplicate ids, dangling references, or cycles."""
    seen: set[str] = set()
    for n in graph.nodes:
        if n.id in seen:
            raise DuplicateIdError(f"duplicate node id {n.id!r}")
        seen.add(n.id)
    for n in graph.nodes:
        dep_seen: set[str] = set()
        for d in n.dependencies:
            if d not in seen:
                raise UnknownNodeError(f"{n.id}: unknown dependency {d!r}")
            if d == n.id:
                raise CycleError(f"{n.id}: node depends on itself")
            if d in dep_seen:
                raise DuplicateIdError(f"{n.id}: dependency {d!r} listed twice")
            dep_seen.add(d)
        own_params = {name for name, _ in n.params}
        for check in n.checks:
            obs = check.observable
            for term in obs.all_terms():
                owner_id = n.id if term.node is None else term.node
                if owner_id not in seen:
                    raise UnknownNodeError(f"{n.id}: observable term references unknown node {term.node!r}")
                owner = n if term.node is None or term.node == n.id else graph.node(owner_id)
                if term.param not in {name for name, _ in owner.params}:
                    raise ValueError(
                        f"{n.id}: observable term references unknown parameter "
                        f"{term.param!r} of node {owner_id!r}"
                    )
            if obs.compensate is not None:
                if obs.compensate not in own_params:
                    raise ValueError(f"{n.id}: compensate parameter {obs.compensate!r} is not an own parameter")
                own_terms = {t.param for t in obs.terms if t.node is None or t.node == n.id}
                if obs.compensate not in own_terms:
                    raise ValueError(
                        f"{n.id}: compensate parameter {obs.compensate!r} must appear "
                        "as an own term of the observable it corrects"
                    )
    for dist in graph.disturbances:
        affected_seen: set[str] = set()
        for a in dist.affected:
            if a not in seen:
                raise UnknownNodeError(f"disturbance {dist.tag!r} affects unknown node {a!r}")
            if a in affected_seen:
                raise DuplicateIdError(f"disturbance {dist.tag!r}: affected node {a!r} listed twice")
            affected_seen.add(a)
    topological_order(graph)  # raises CycleError on cycles


def topological_order(graph: GraphSpec) -> list[str]:
    """Dependencies-first order; ties broken lexicographically."""
    remaining = {n.id: set(n.dependencies) for n in graph.nodes}
    dependents = {n.id: [] for n in graph.nodes}
    for n in graph.nodes:
        for d in n.dependencies:
            if d in dependents:
                dependents[d].append(n.id)
    ready = [nid for nid, deps in remaining.items() if not deps]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for child in dependents[nid]:
            remaining[child].discard(nid)
            if not remaining[child]:
                heapq.heappush(ready, child)
    if len(order) != len(graph.nodes):
        stuck = sorted(nid for nid, deps in remaining.items() if deps and nid not in order)
        raise CycleError(f"dependency cycle involving {stuck}")
    return order


def _remap_terms(node: NodeSpec, mapping: dict[str, str]) -> NodeSpec:
    def fix(terms: tuple[Term, ...]) -> tuple[Term, ...]:
        return tuple(replace(t, node=mapping[t.node]) if t.node in mapping else t for t in terms)

    return node.map_terms(fix)


def merge_nodes(graph: GraphSpec, a_id: str, b_id: str, merged: NodeSpec) -> GraphSpec:
    """Replace nodes ``a`` and ``b`` with ``merged``.

    The merged spec supplies the union semantics (checks, costs); its
    dependency list is recomputed here as the union of the originals'
    minus the pair itself. Every other node's dependencies and
    observable term references to a/b re-point to the merged node, as
    do disturbance target lists. The result is re-validated.
    """
    if a_id == b_id:
        raise ValueError("cannot merge a node with itself")
    a, b = graph.node(a_id), graph.node(b_id)
    if merged.id in {n.id for n in graph.nodes} - {a_id, b_id}:
        raise DuplicateIdError(f"merged id {merged.id!r} collides with an existing node")
    mapping = {a_id: merged.id, b_id: merged.id}

    union_deps = sorted({*a.dependencies, *b.dependencies} - {a_id, b_id})
    merged = replace(merged, dependencies=tuple(union_deps))
    merged = _remap_terms(merged, mapping)

    new_nodes: list[NodeSpec] = []
    for n in graph.nodes:
        if n.id in (a_id, b_id):
            continue
        deps = []
        for d in n.dependencies:
            d2 = mapping.get(d, d)
            if d2 not in deps:
                deps.append(d2)
        n2 = replace(n, dependencies=tuple(deps))
        new_nodes.append(_remap_terms(n2, mapping))
    new_nodes.append(merged)

    new_dist = tuple(
        replace(d, affected=tuple(dict.fromkeys(mapping.get(x, x) for x in d.affected)))
        for d in graph.disturbances
    )
    out = GraphSpec(nodes=tuple(new_nodes), disturbances=new_dist)
    validate_graph(out)
    return out


def add_edge(graph: GraphSpec, from_id: str, to_id: str) -> GraphSpec:
    """Make ``from_id`` depend on ``to_id``; reject cycles and duplicates."""
    frm = graph.node(from_id)
    graph.node(to_id)
    if to_id in frm.dependencies:
        raise ValueError(f"edge {from_id} -> {to_id} already exists")
    new_from = replace(frm, dependencies=frm.dependencies + (to_id,))
    out = GraphSpec(
        nodes=tuple(new_from if n.id == from_id else n for n in graph.nodes),
        disturbances=graph.disturbances,
    )
    validate_graph(out)
    return out


def with_delays(graph: GraphSpec, delays: dict[str, int]) -> GraphSpec:
    """Return a copy with ``post_cal_delay`` replaced per ``delays``.

    Nodes absent from the mapping keep their current delay; an all-zero
    mapping therefore reproduces the default scheduling exactly.
    """
    for nid in delays:
        graph.node(nid)
    out = GraphSpec(
        nodes=tuple(
            replace(n, post_cal_delay=delays[n.id]) if n.id in delays else n
            for n in graph.nodes
        ),
        disturbances=graph.disturbances,
    )
    validate_graph(out)
    return out


def merged_node_spec(a: NodeSpec, b: NodeSpec, merged_id: str) -> NodeSpec:
    """Canonical union spec for merging ``a`` and ``b`` into one node.

    Parameters are concatenated (names must not collide) with stream
    tags pinned to their original ``node/param`` identities, checks are
    concatenated in (a, b) order, costs add, and the merged node is
    maintained at the faster of the two cadences. Pass the result to
    ``merge_nodes``, which recomputes dependencies and term references.
    """
    clash = {name for name, _ in a.params} & {name for name, _ in b.params}
    if clash:
        raise ValueError(f"cannot merge {a.id} and {b.id}: parameter names collide: {sorted(clash)}")

    def pinned(node: NodeSpec) -> tuple[tuple[str, ParamSpec], ...]:
        return tuple(
            (name, p if p.stream_tag is not None else replace(p, stream_tag=f"{node.id}/{name}"))
            for name, p in node.params
        )

    return NodeSpec(
        id=merged_id,
        check_cost=a.check_cost + b.check_cost,
        calibrate_cost=a.calibrate_cost + b.calibrate_cost,
        timeout=min(a.timeout, b.timeout),
        post_cal_delay=min(a.post_cal_delay, b.post_cal_delay),
        dependencies=(),
        params=pinned(a) + pinned(b),
        checks=a.checks + b.checks,
    )


# --- config file I/O ---


def _term_to_dict(t: Term) -> dict:
    out: dict = {"param": t.param}
    if t.node is not None:
        out["node"] = t.node
    if t.weight != 1.0:
        out["weight"] = t.weight
    return out


def _term_from_dict(raw, where: str) -> Term:
    _entry(raw, where, Term)
    return Term(param=raw["param"], node=raw.get("node"), weight=float(raw.get("weight", 1.0)))


def _observable_to_dict(o: ObservableSpec) -> dict:
    out: dict = {"kind": o.kind}
    if o.kind == LINEAR:
        out["offset"] = o.offset
        out["terms"] = [_term_to_dict(t) for t in o.terms]
        if o.compensate is not None:
            out["compensate"] = o.compensate
    else:
        out["omega"] = o.omega
        if o.t_nominal is not None:
            out["t_nominal"] = o.t_nominal
        if o.detuning_terms:
            out["detuning_terms"] = [_term_to_dict(t) for t in o.detuning_terms]
        if o.time_terms:
            out["time_terms"] = [_term_to_dict(t) for t in o.time_terms]
        if o.phase_terms:
            out["phase_terms"] = [_term_to_dict(t) for t in o.phase_terms]
        if o.background_terms:
            out["background_terms"] = [_term_to_dict(t) for t in o.background_terms]
    if o.noise:
        out["noise"] = o.noise
    return out


def _observable_from_dict(raw, where: str) -> ObservableSpec:
    _entry(raw, where, ObservableSpec)

    def terms(key: str) -> tuple[Term, ...]:
        return tuple(_term_from_dict(t, f"{where}.{key}[{i}]") for i, t in enumerate(raw.get(key, [])))

    return ObservableSpec(
        kind=raw.get("kind", LINEAR),
        offset=float(raw.get("offset", 0.0)),
        noise=float(raw.get("noise", 0.0)),
        compensate=raw.get("compensate"),
        omega=float(raw.get("omega", math.pi)),
        t_nominal=raw.get("t_nominal"),
        **{name: terms(name) for name in _TERM_FIELDS},
    )


def _node_to_dict(n: NodeSpec) -> dict:
    return {
        "id": n.id,
        "check_cost": n.check_cost,
        "calibrate_cost": n.calibrate_cost,
        "timeout": n.timeout,
        "post_cal_delay": n.post_cal_delay,
        "dependencies": list(n.dependencies),
        "params": {
            name: {
                "optimal": p.optimal,
                "tolerance": p.tolerance,
                "drift": drift_cfg_to_dict(p.drift),
                **({"cal_noise": p.cal_noise} if p.cal_noise is not None else {}),
                **({"stream_tag": p.stream_tag} if p.stream_tag is not None else {}),
            }
            for name, p in n.params
        },
        "checks": [
            {"observable": _observable_to_dict(c.observable), "rule": {
                "op": c.rule.op,
                "bound": c.rule.bound,
                **({"center": c.rule.center} if c.rule.center else {}),
            }}
            for c in n.checks
        ],
    }


def _entry(raw, where: str, cls=None, extra: tuple[str, ...] = ()) -> dict:
    """``raw``, once it is a mapping whose keys are ``cls``'s field names
    and ``extra``, with every ``extra`` key and every field that has no
    default; else ValueError naming ``where``. Without ``cls`` any keys
    are allowed. A class's fields are the keys its writer emits."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a mapping, got {raw!r}")
    if cls is not None:
        required = {f.name: f.default is MISSING for f in fields(cls)} | dict.fromkeys(extra, True)
        for key in raw:
            if key not in required:
                raise ValueError(f"{where}: unknown key {key!r}")
        for key, needed in required.items():
            if needed and key not in raw:
                raise ValueError(f"{where}: missing key {key!r}")
    return raw


def _exact_int(value, where: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def drift_cfg_from_dict(raw, where: str = "drift") -> DriftCfg:
    """Read a drift model mapping: its ``model`` and that model's fields,
    each a number."""
    model = _entry(raw, where).get("model")
    cls = DRIFT_MODELS.get(model) if isinstance(model, str) else None
    if cls is None:
        raise ValueError(f"{where}: unknown drift model {model!r}; expected one of {tuple(DRIFT_MODELS)}")
    values = {k: v for k, v in _entry(raw, where, cls, ("model",)).items() if k != "model"}
    for key, value in values.items():
        if type(value) not in (int, float):
            raise ValueError(f"{where}.{key} must be a number, got {value!r}")
    return cls(**values)


def _node_from_dict(raw, where: str) -> NodeSpec:
    _entry(raw, where, NodeSpec)
    params = []
    for name, p in _entry(raw.get("params", {}), f"{where}.params").items():
        at = f"{where}.params.{name}"
        _entry(p, at, ParamSpec)
        params.append((name, ParamSpec(
            optimal=float(p["optimal"]),
            tolerance=float(p["tolerance"]),
            drift=drift_cfg_from_dict(p["drift"], f"{at}.drift"),
            cal_noise=p.get("cal_noise"),
            stream_tag=p.get("stream_tag"),
        )))
    checks = []
    for i, c in enumerate(raw.get("checks", [])):
        at = f"{where}.checks[{i}]"
        rule = _entry(_entry(c, at, CheckSpec)["rule"], f"{at}.rule", Rule)
        checks.append(CheckSpec(
            observable=_observable_from_dict(c["observable"], f"{at}.observable"),
            rule=Rule(op=rule["op"], bound=float(rule["bound"]), center=float(rule.get("center", 0.0))),
        ))
    return NodeSpec(
        id=raw["id"],
        check_cost=_exact_int(raw["check_cost"], f"{where}.check_cost"),
        calibrate_cost=_exact_int(raw["calibrate_cost"], f"{where}.calibrate_cost"),
        timeout=_exact_int(raw["timeout"], f"{where}.timeout"),
        post_cal_delay=_exact_int(raw.get("post_cal_delay", 0), f"{where}.post_cal_delay"),
        dependencies=tuple(raw.get("dependencies", [])),
        params=tuple(params),
        checks=tuple(checks),
    )


def graph_to_dict(graph: GraphSpec) -> dict:
    out: dict = {
        "schema": GRAPH_SCHEMA,
        "nodes": [_node_to_dict(n) for n in graph.nodes],
    }
    if graph.disturbances:
        out["disturbances"] = [
            {
                "tag": d.tag,
                "affected": list(d.affected),
                "strength": d.strength,
                "drift": drift_cfg_to_dict(d.drift),
            }
            for d in graph.disturbances
        ]
    return out


def graph_from_dict(raw: dict) -> GraphSpec:
    schema = _entry(raw, "graph config").get("schema")
    if schema != GRAPH_SCHEMA:
        raise ValueError(f"unsupported graph schema {schema!r}; expected {GRAPH_SCHEMA!r}")
    raw_nodes = _entry(raw, "graph config", GraphSpec, ("schema",))["nodes"]
    if not isinstance(raw_nodes, list):
        raise ValueError(f"nodes must be a list, got {raw_nodes!r}")
    nodes = tuple(_node_from_dict(n, f"nodes[{i}]") for i, n in enumerate(raw_nodes))
    disturbances = []
    for i, d in enumerate(raw.get("disturbances", [])):
        at = f"disturbances[{i}]"
        _entry(d, at, DisturbanceSpec)
        disturbances.append(DisturbanceSpec(
            tag=d["tag"],
            affected=tuple(d["affected"]),
            strength=float(d["strength"]),
            drift=drift_cfg_from_dict(d["drift"], f"{at}.drift"),
        ))
    graph = GraphSpec(nodes=nodes, disturbances=tuple(disturbances))
    validate_graph(graph)
    return graph


def save_graph(graph: GraphSpec, path: str | Path) -> None:
    with atomic_write(path) as fh:
        yaml.safe_dump(graph_to_dict(graph), fh, sort_keys=False)


def load_graph(path: str | Path) -> GraphSpec:
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: graph config must be a mapping")
    return graph_from_dict(raw)


def builtin_config_path(name: str) -> Path:
    """Path of a packaged graph config (``xgate``, ``internode``, ``hidden``)."""
    path = Path(__file__).parent / "configs" / f"{name}.yaml"
    if not path.is_file():
        have = sorted(p.stem for p in path.parent.glob("*.yaml"))
        raise FileNotFoundError(f"no builtin config {name!r}; available: {have}")
    return path


def graph_hash(graph: GraphSpec) -> str:
    """Content hash of the canonical serialisation, for trace headers."""
    canon = json.dumps(graph_to_dict(graph), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
