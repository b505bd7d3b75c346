import copy
from dataclasses import fields, replace
from functools import reduce

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spaq.drift import DRIFT_MODELS
from spaq.errors import ConfigError, CycleError, DuplicateIdError, SpaqError, UnknownNodeError
from spaq.graph import (
    CheckSpec,
    DisturbanceSpec,
    GraphSpec,
    NodeSpec,
    ObservableSpec,
    ParamSpec,
    Rule,
    Term,
    add_edge,
    builtin_config_path,
    graph_from_dict,
    graph_hash,
    graph_to_dict,
    load_graph,
    merge_nodes,
    merged_node_spec,
    save_graph,
    topological_order,
    validate_graph,
    with_delays,
)
from tests.conftest import make_graph, make_node

from test_sim import rich_graph


class TestValidation:
    def test_valid_chain(self, chain_graph):
        validate_graph(chain_graph)

    def test_duplicate_id(self):
        g = make_graph(make_node("a"), make_node("a"))
        with pytest.raises(DuplicateIdError):
            validate_graph(g)

    def test_unknown_dependency(self):
        g = make_graph(make_node("a", deps=("ghost",)))
        with pytest.raises(UnknownNodeError):
            validate_graph(g)

    def test_self_dependency(self):
        g = make_graph(make_node("a", deps=("a",)))
        with pytest.raises(CycleError):
            validate_graph(g)

    def test_two_cycle(self):
        g = make_graph(make_node("a", deps=("b",)), make_node("b", deps=("a",)))
        with pytest.raises(CycleError):
            validate_graph(g)

    def test_unknown_term_node(self):
        from spaq.graph import Term

        g = make_graph(make_node("a", extra_terms=(Term(param="p", node="ghost"),)))
        with pytest.raises(UnknownNodeError):
            validate_graph(g)

    def test_unknown_term_param(self):
        from spaq.graph import Term

        g = make_graph(make_node("a"), make_node("b", extra_terms=(Term(param="q", node="a"),)))
        with pytest.raises(ValueError):
            validate_graph(g)

    def test_disturbance_targets_checked(self):
        from spaq.drift import LogisticDriftCfg
        from spaq.graph import DisturbanceSpec

        d = DisturbanceSpec(tag="env", affected=("ghost",), strength=1.0, drift=LogisticDriftCfg())
        g = make_graph(make_node("a"), disturbances=(d,))
        with pytest.raises(UnknownNodeError):
            validate_graph(g)


class TestTopologicalOrder:
    def test_chain(self, chain_graph):
        assert topological_order(chain_graph) == ["a", "b", "c"]

    def test_lexicographic_ties(self):
        g = make_graph(make_node("zeta"), make_node("alpha"), make_node("mid", deps=("alpha", "zeta")))
        assert topological_order(g) == ["alpha", "zeta", "mid"]

    def test_gate_shaped_graph(self):
        g = make_graph(
            make_node("x_gate", deps=("drive_frequency", "pulse_time")),
            make_node("drive_frequency", deps=("state_init",)),
            make_node("pulse_time", deps=("state_init",)),
            make_node("state_init"),
            make_node("A"),
            make_node("B"),
        )
        assert topological_order(g) == [
            "A",
            "B",
            "state_init",
            "drive_frequency",
            "pulse_time",
            "x_gate",
        ]

    @given(st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_order_respects_dependencies(self, seed):
        import random

        rnd = random.Random(seed)
        ids = [f"n{i}" for i in range(rnd.randint(1, 10))]
        nodes = []
        for i, nid in enumerate(ids):
            pool = ids[:i]
            deps = tuple(rnd.sample(pool, rnd.randint(0, len(pool))))
            nodes.append(make_node(nid, deps=deps))
        g = make_graph(*nodes)
        order = topological_order(g)
        pos = {nid: i for i, nid in enumerate(order)}
        for n in g.nodes:
            for d in n.dependencies:
                assert pos[d] < pos[n.id]


class TestSinks:
    def test_sinks_are_undepended(self, diamond_graph):
        assert diamond_graph.sink_ids() == ("d",)

    def test_isolated_nodes_are_sinks(self):
        g = make_graph(make_node("a"), make_node("b", deps=("a",)), make_node("c"))
        assert g.sink_ids() == ("b", "c")


class TestAddEdge:
    def test_adds_dependency(self):
        g = make_graph(make_node("top"), make_node("bottom"))
        g2 = add_edge(g, "top", "bottom")
        assert g2.node("top").dependencies == ("bottom",)
        assert g.node("top").dependencies == ()  # original untouched

    def test_rejects_cycle(self, chain_graph):
        with pytest.raises(CycleError):
            add_edge(chain_graph, "a", "c")

    def test_rejects_duplicate(self, chain_graph):
        with pytest.raises(ValueError):
            add_edge(chain_graph, "b", "a")

    def test_rejects_unknown(self, chain_graph):
        with pytest.raises(UnknownNodeError):
            add_edge(chain_graph, "a", "ghost")


class TestMergeNodes:
    def test_siblings_merge(self, diamond_graph):
        merged = make_node("bc", deps=("ignored",))
        g2 = merge_nodes(diamond_graph, "b", "c", merged)
        assert {n.id for n in g2.nodes} == {"a", "bc", "d"}
        assert g2.node("bc").dependencies == ("a",)  # recomputed union
        assert g2.node("d").dependencies == ("bc",)  # re-pointed, deduplicated

    def test_merge_remaps_terms(self):
        from spaq.graph import Term

        g = make_graph(
            make_node("a"),
            make_node("b"),
            make_node("w", extra_terms=(Term(param="p", node="a"),)),
        )
        g2 = merge_nodes(g, "a", "b", make_node("ab"))
        terms = g2.node("w").checks[0].observable.terms
        assert any(t.node == "ab" for t in terms)

    def test_merge_rejects_identity(self, chain_graph):
        with pytest.raises(ValueError):
            merge_nodes(chain_graph, "a", "a", make_node("aa"))

    def test_merge_rejects_id_collision(self, chain_graph):
        with pytest.raises(DuplicateIdError):
            merge_nodes(chain_graph, "a", "b", make_node("c"))

    def test_merge_adjacent_nodes_drops_internal_edge(self, chain_graph):
        g2 = merge_nodes(chain_graph, "a", "b", make_node("ab"))
        assert g2.node("ab").dependencies == ()
        assert g2.node("c").dependencies == ("ab",)


class TestConfigRoundTrip:
    def test_dict_round_trip(self, diamond_graph):
        raw = graph_to_dict(diamond_graph)
        again = graph_from_dict(raw)
        assert again == diamond_graph

    def test_file_round_trip(self, tmp_path, diamond_graph):
        p = tmp_path / "g.yaml"
        save_graph(diamond_graph, p)
        assert load_graph(p) == diamond_graph
        # parse -> serialize -> parse is identity
        save_graph(load_graph(p), tmp_path / "g2.yaml")
        assert load_graph(tmp_path / "g2.yaml") == diamond_graph

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch, chain_graph, diamond_graph):
        p = tmp_path / "g.yaml"
        save_graph(chain_graph, p)
        old = p.read_bytes()

        def fail(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(yaml, "safe_dump", fail)
        with pytest.raises(RuntimeError):
            save_graph(diamond_graph, p)
        assert p.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["g.yaml"]

    def test_schema_tag_required(self, tmp_path):
        (tmp_path / "bad.yaml").write_text("nodes: []\n")
        with pytest.raises(ValueError):
            load_graph(tmp_path / "bad.yaml")

    def test_unknown_drift_model_rejected(self, diamond_graph):
        raw = graph_to_dict(diamond_graph)
        raw["nodes"][0]["params"]["p"]["drift"]["model"] = "brownian"
        with pytest.raises(ValueError):
            graph_from_dict(raw)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("timeout", 2.5),
            ("timeout", 7.0),
            ("check_cost", True),
            ("calibrate_cost", None),
            ("post_cal_delay", "5"),
        ],
    )
    def test_integer_node_fields_must_be_exact_ints(self, diamond_graph, key, value):
        raw = graph_to_dict(diamond_graph)
        raw["nodes"][1][key] = value
        with pytest.raises(ValueError, match=rf"^nodes\[1\]\.{key} must be an integer"):
            graph_from_dict(raw)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw["nodes"].__setitem__(0, 5), r"^nodes\[0\] must be a mapping"),
            (lambda raw: raw["nodes"][0].__setitem__("timout", 7), r"^nodes\[0\]: unknown key 'timout'$"),
            (lambda raw: raw.__setitem__("nodes", 5), r"^nodes must be a list"),
        ],
        ids=["node_not_a_mapping", "unknown_node_key", "nodes_not_a_list"],
    )
    def test_malformed_nodes_are_rejected_with_their_path(self, diamond_graph, edit, message):
        raw = graph_to_dict(diamond_graph)
        edit(raw)
        with pytest.raises(ValueError, match=message):
            graph_from_dict(raw)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw.__setitem__("nodse", []), r"^graph config: unknown key 'nodse'$"),
            (lambda raw: raw["nodes"][0].pop("timeout"), r"^nodes\[0\]: missing key 'timeout'$"),
            (lambda raw: raw["nodes"][0].__setitem__("params", [1, 2]), r"^nodes\[0\]\.params must be a mapping"),
            (lambda raw: raw["nodes"][0]["params"]["p1"].__setitem__("bogus", 1),
             r"^nodes\[0\]\.params\.p1: unknown key 'bogus'$"),
            (lambda raw: raw["nodes"][0]["params"]["p1"]["drift"].__setitem__("sigmaa", 0.1),
             r"^nodes\[0\]\.params\.p1\.drift: unknown key 'sigmaa'$"),
            (lambda raw: raw["nodes"][0]["params"]["p1"]["drift"].__setitem__("sigma", "0.05"),
             r"^nodes\[0\]\.params\.p1\.drift\.sigma must be a number, got '0.05'$"),
            (lambda raw: raw["nodes"][0]["params"]["p1"]["drift"].pop("model"),
             r"^nodes\[0\]\.params\.p1\.drift: unknown drift model None"),
            (lambda raw: raw["nodes"][0]["checks"][0].__setitem__("weight", 1), r"^nodes\[0\]\.checks\[0\]: unknown key 'weight'$"),
            (lambda raw: raw["nodes"][0]["checks"][0]["observable"].__setitem__("noize", 0.1),
             r"^nodes\[0\]\.checks\[0\]\.observable: unknown key 'noize'$"),
            (lambda raw: raw["nodes"][0]["checks"][0]["observable"]["terms"][0].__setitem__("wieght", 2.0),
             r"^nodes\[0\]\.checks\[0\]\.observable\.terms\[0\]: unknown key 'wieght'$"),
            (lambda raw: raw["nodes"][0]["checks"][0]["rule"].__setitem__("bnd", 0.4),
             r"^nodes\[0\]\.checks\[0\]\.rule: unknown key 'bnd'$"),
            (lambda raw: raw["nodes"][0]["checks"][0]["rule"].pop("bound"),
             r"^nodes\[0\]\.checks\[0\]\.rule: missing key 'bound'$"),
            (lambda raw: raw["disturbances"][0].__setitem__("strenght", 0.5), r"^disturbances\[0\]: unknown key 'strenght'$"),
            (lambda raw: raw["disturbances"][0].__setitem__("drift", 5), r"^disturbances\[0\]\.drift must be a mapping"),
            (lambda raw: raw["nodes"][0].__setitem__("checks", 5), r"^nodes\[0\]\.checks must be a list, got 5$"),
            (lambda raw: raw["nodes"][2].__setitem__("dependencies", "top_1"),
             r"^nodes\[2\]\.dependencies must be a list, got 'top_1'$"),
            (lambda raw: raw["nodes"][0].__setitem__("id", 7), r"^nodes\[0\]\.id must be a string, got 7$"),
            (lambda raw: raw["nodes"][0]["checks"][0]["rule"].__setitem__("bound", "x"),
             r"^nodes\[0\]\.checks\[0\]\.rule\.bound must be a number, got 'x'$"),
            (lambda raw: raw["nodes"][0]["params"]["p1"].__setitem__("cal_noise", "x"),
             r"^nodes\[0\]\.params\.p1\.cal_noise must be a number, got 'x'$"),
            (lambda raw: raw["nodes"][0]["params"]["p1"].__setitem__("optimal", True),
             r"^nodes\[0\]\.params\.p1\.optimal must be a number, got True$"),
            (lambda raw: raw["nodes"][0]["params"]["p1"].__setitem__("optimal", float("nan")),
             r"^nodes\[0\]\.params\.p1\.optimal must be a number, got nan$"),
            (lambda raw: raw["nodes"][0]["checks"][0]["observable"]["terms"][0].__setitem__("weight", "2"),
             r"^nodes\[0\]\.checks\[0\]\.observable\.terms\[0\]\.weight must be a number, got '2'$"),
            (lambda raw: raw["nodes"][0]["checks"][0].__setitem__("observable", {"kind": "transition", "t_nominal": "x"}),
             r"^nodes\[0\]\.checks\[0\]\.observable\.t_nominal must be a number, got 'x'$"),
            (lambda raw: raw["nodes"][0]["params"]["p1"].__setitem__("stream_tag", 5),
             r"^nodes\[0\]\.params\.p1\.stream_tag must be a string, got 5$"),
            (lambda raw: raw["nodes"][0]["checks"][0]["observable"].__setitem__("omega", 2.0),
             r"^nodes\[0\]\.checks\[0\]\.observable: unknown key 'omega'$"),
            (lambda raw: raw["nodes"][0]["params"].__setitem__(5, raw["nodes"][0]["params"]["p1"]),
             r"^nodes\[0\]\.params: parameter name 5 is not a string$"),
            (lambda raw: raw["nodes"][0]["params"]["p1"].__setitem__("tolerance", 0),
             r"^nodes\[0\]\.params\.p1: tolerance must be > 0, got 0$"),
        ],
        ids=[
            "top_level_key", "missing_node_key", "params_not_a_mapping", "param_key", "drift_key",
            "drift_field_not_a_number", "drift_without_model", "check_key", "observable_key", "term_key",
            "rule_key", "missing_rule_key", "disturbance_key", "disturbance_drift_not_a_mapping",
            "checks_not_a_list", "dependencies_a_string", "id_not_a_string", "bound_not_a_number",
            "cal_noise_not_a_number", "optimal_a_bool", "optimal_nan", "weight_a_string", "t_nominal_not_a_number",
            "stream_tag_not_a_string", "key_of_another_observable_kind", "param_name_not_a_string",
            "range_check",
        ],
    )
    def test_malformed_entries_are_rejected_with_their_path(self, edit, message):
        raw = yaml.safe_load(builtin_config_path("hidden").read_text())
        edit(raw)
        with pytest.raises(ConfigError, match=message):
            graph_from_dict(raw)

    @pytest.mark.parametrize("name", ["xgate", "internode", "hidden", "rich_graph"])
    def test_every_key_the_writer_emits_reads_back(self, name):
        if name == "rich_graph":
            graph = rich_graph()
        else:
            path = builtin_config_path(name)
            graph = load_graph(path)
            assert graph_to_dict(graph) == yaml.safe_load(path.read_text())
            # the packaged files are what save_graph writes, key order included
            assert yaml.safe_dump(graph_to_dict(graph), sort_keys=False) == path.read_text()
        assert graph_from_dict(graph_to_dict(graph)) == graph

    def test_disturbance_listing_a_node_twice_is_rejected(self):
        # the simulator would otherwise add the disturbance to top_2 twice
        raw = yaml.safe_load(builtin_config_path("hidden").read_text())
        raw["disturbances"][0]["affected"] = ["top_2", "top_2", "bottom_2"]
        with pytest.raises(DuplicateIdError, match="'stray_field'.*'top_2' listed twice"):
            graph_from_dict(raw)


_PACKAGED = {name: yaml.safe_load(builtin_config_path(name).read_text()) for name in ("xgate", "internode", "hidden")}
_DROP = object()
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)
# a value of the same type as the one it replaces, so that some corrupted configs still load
_LIKE = {int: st.integers(), float: st.floats(), str: st.text(max_size=6), list: st.lists(_SCALARS, max_size=3)}
# a key an entry may gain: any config field name, the tags, or any text
_KEYS = st.sampled_from(sorted(
    {f.name for cls in (GraphSpec, NodeSpec, ParamSpec, CheckSpec, ObservableSpec, Rule, Term, DisturbanceSpec,
                        *DRIFT_MODELS.values()) for f in fields(cls)} | {"model", "schema"}
)) | st.text(max_size=6)


def _at(raw, path):
    return reduce(lambda entry, key: entry[key], path, raw)


def _places(raw, path=()):
    """The path of every entry of a nested config, depth first."""
    items = raw.items() if isinstance(raw, dict) else enumerate(raw) if isinstance(raw, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


@st.composite
def _corruptions(draw):
    """(config name, path, value): a packaged config's entry at ``path``
    replaced, dropped (``_DROP``) or added."""
    name = draw(st.sampled_from(sorted(_PACKAGED)))
    raw = _PACKAGED[name]
    places = list(_places(raw))
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "add":
        mappings = [()] + [p for p in places if isinstance(_at(raw, p), dict)]
        return name, draw(st.sampled_from(mappings)) + (draw(_KEYS),), draw(_VALUES)
    path = draw(st.sampled_from(places))
    if action == "drop":
        return name, path, _DROP
    old = _at(raw, path)
    return name, path, draw(st.one_of(_LIKE.get(type(old), _VALUES), _VALUES))


@given(corruption=_corruptions())
@settings(max_examples=300, deadline=None)
@example(corruption=("xgate", ("nodes", 0, "checks"), 5))
@example(corruption=("xgate", ("nodes", 1, "dependencies"), "state_init"))
@example(corruption=("xgate", ("nodes", 0, "id"), 7))
@example(corruption=("xgate", ("nodes", 0, "checks", 0, "rule", "bound"), "x"))
@example(corruption=("xgate", ("nodes", 0, "params", "bias", "cal_noise"), "x"))
@example(corruption=("xgate", ("nodes", 0, "params", "bias", "optimal"), True))
@example(corruption=("xgate", ("nodes", 0, "checks", 0, "observable", "terms", 0, "weight"), "2"))
@example(corruption=("xgate", ("nodes", 2, "checks", 0, "observable", "t_nominal"), "x"))
@example(corruption=("xgate", ("nodes", 0, "params", "bias", "stream_tag"), 5))
@example(corruption=("xgate", ("nodes", 0, "checks", 0, "observable", "omega"), 2.0))
@example(corruption=("xgate", ("nodes", 2, "checks", 0, "observable", "kind"), _DROP))  # reads as linear
def test_corrupted_configs_round_trip_or_raise_a_typed_error(corruption):
    name, path, value = corruption
    raw = copy.deepcopy(_PACKAGED[name])
    *head, last = path
    parent = _at(raw, head)
    if value is _DROP:
        del parent[last]
    else:
        parent[last] = value
    try:
        graph = graph_from_dict(raw)
    except SpaqError:
        return
    again = graph_from_dict(yaml.safe_load(yaml.safe_dump(graph_to_dict(graph), sort_keys=False)))
    assert again == graph and graph_hash(again) == graph_hash(graph)


class TestGraphHash:
    def test_stable_and_sensitive(self, chain_graph):
        h1 = graph_hash(chain_graph)
        assert h1 == graph_hash(chain_graph)
        g2 = add_edge(make_graph(*chain_graph.nodes), "c", "a")
        assert graph_hash(g2) != h1

    def test_hash_ignores_node_listing_order(self, chain_graph):
        shuffled = GraphSpec(nodes=tuple(reversed(chain_graph.nodes)))
        # listing order is part of the content: hash covers it
        assert graph_hash(shuffled) != graph_hash(chain_graph)


class TestRewriteHelpers:
    def test_with_delays_sets_post_cal_delay(self, chain_graph):
        g2 = with_delays(chain_graph, {"a": 7, "c": 3})
        assert g2.node("a").post_cal_delay == 7
        assert g2.node("b").post_cal_delay == 0
        assert g2.node("c").post_cal_delay == 3

    def test_with_delays_unknown_node(self, chain_graph):
        with pytest.raises(UnknownNodeError):
            with_delays(chain_graph, {"ghost": 1})

    def test_with_delays_keeps_everything_else(self, chain_graph):
        g2 = with_delays(chain_graph, {"b": 5})
        assert with_delays(g2, {"b": 0}) == chain_graph

    def test_merged_spec_sums_costs_and_tightens_cadence(self):
        a = make_node("a", check_cost=1, calibrate_cost=2, timeout=10)
        b = make_node("b", check_cost=2, calibrate_cost=5, timeout=6)
        b = replace(b, params=(("q", b.params[0][1]),), post_cal_delay=4)
        m = merged_node_spec(a, b, "ab")
        assert m.id == "ab"
        assert m.check_cost == 3 and m.calibrate_cost == 7
        assert m.timeout == 6 and m.post_cal_delay == 0
        assert [name for name, _ in m.params] == ["p", "q"]
        assert len(m.checks) == len(a.checks) + len(b.checks)

    def test_merged_spec_pins_rng_stream_tags(self):
        a, b = make_node("a"), make_node("b")
        b = replace(b, params=(("q", b.params[0][1]),))
        m = merged_node_spec(a, b, "ab")
        tags = {name: p.stream_tag for name, p in m.params}
        assert tags == {"p": "a/p", "q": "b/q"}

    def test_merged_spec_rejects_param_name_clash(self):
        with pytest.raises(ValueError):
            merged_node_spec(make_node("a"), make_node("b"), "ab")

    def test_builtin_configs_load_and_validate(self):
        expected = {
            "xgate": {"state_init", "pulse_time", "drive_frequency", "x_gate",
                      "node_A", "node_B"},
            "internode": {"A", "B"},
            "hidden": {"top_1", "top_2", "bottom_1", "bottom_2"},
        }
        for name, ids in expected.items():
            g = load_graph(builtin_config_path(name))
            validate_graph(g)
            assert {n.id for n in g.nodes} == ids

    def test_builtin_config_unknown_name(self):
        with pytest.raises(FileNotFoundError) as err:
            builtin_config_path("nope")
        assert "xgate" in str(err.value)  # lists what exists
