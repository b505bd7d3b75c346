"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spaq  # noqa: E402
from checks import Gate, file_sha, roundtrip_problem, verdict_problem  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Recorder, Span, beyond, percentile, self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS, property_suite  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0), Span("x", 1.0, 5.0, parent=0), Span("y", 3.0, 7.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_recorder_links_nested_calls_and_self_times_add_up():
    rec = Recorder()
    inner = rec.wrap("inner", lambda: sum(range(1000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(3)], attrs=lambda a, k, r: {"n": len(r)})
    outer()
    spans = rec.take()
    assert [s.name for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s.parent for s in spans] == [-1, 0, 0, 0]
    assert spans[0].attrs == {"n": 3}
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)
    assert rec.take() == []


def test_recorder_closes_a_span_whose_call_raised():
    rec = Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    (span,) = rec.take()
    assert span.end >= span.start and span.attrs == {}


@pytest.mark.parametrize(
    "n, q",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q
    if q is not None:
        assert beyond(n, q) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert beyond(100, 90) == 10
    assert percentile([7.0], 90) == 7.0


@pytest.fixture(scope="module")
def small_run():
    graph = spaq.load_graph(spaq.builtin_config_path("xgate"))
    return spaq.run_simulation(graph, spaq.SimConfig(total_cycles=300, seed=3, oracle_ttf=True), run_id="r")


def _flip(path: Path, pos: int) -> None:
    data = bytearray(path.read_bytes())
    data[pos] ^= 0x01
    path.write_bytes(bytes(data))


def test_any_flipped_trace_byte_trips_the_reference_gate(tmp_path, small_run):
    path = tmp_path / "r.jsonl"
    spaq.write_trace(path, small_run)
    reference = {"write:r": file_sha(path)}
    size = path.stat().st_size
    for pos in range(0, size, max(size // 50, 1)):
        spaq.write_trace(path, small_run)
        _flip(path, pos)
        gate = Gate(reference)
        gate.op("write:r", file_sha(path))
        assert gate.failed == 1, pos


def test_flipped_time_digit_trips_the_roundtrip_gate(tmp_path, small_run):
    path = tmp_path / "r.jsonl"
    spaq.write_trace(path, small_run)
    assert roundtrip_problem(path, small_run) is None
    text = path.read_text()
    _flip(path, text.rindex('{"t":') + len('{"t":'))  # last event's time
    gate = Gate(None)
    gate.op("write:r", file_sha(path), roundtrip_problem(path, small_run))
    assert gate.failed == 1


def test_unparseable_trace_trips_the_roundtrip_gate(tmp_path, small_run):
    path = tmp_path / "r.jsonl"
    spaq.write_trace(path, small_run)
    _flip(path, 0)  # '{' becomes 'z'
    assert roundtrip_problem(path, small_run) is not None


def test_gate_counts_reference_ops_that_never_ran():
    gate = Gate({"a": 1, "b": 2})
    gate.op("a", 1)
    gate.finish()
    assert (gate.attempted, gate.failed) == (2, 1)


def test_verdicts_outside_the_allowed_set_fail():
    ok = spaq.SmcResult(verdict=spaq.HOLDS, n_used=5)
    bound = spaq.SmcResult(verdict=None, n_used=5, bound=1.0, rank=1)
    assert verdict_problem("test x", ok) is None
    assert verdict_problem("ci x", bound) is None
    assert verdict_problem("test x", bound) is not None
    assert verdict_problem("ci x", spaq.SmcResult(verdict=None, n_used=0)) is not None


def test_layer_metric_names_match_the_benchmark_spec():
    names = set(layer_metrics([], [])) | {"tracing.overhead_s", "tracing.spans"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_every_per_layer_metric_says_what_it_should_move():
    mapping = json.loads((HERE / "mapping.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | set(mapping["printed"])
    workloads = set(WORKLOADS)
    assert set(mapping["layers"]) == {m["name"] for m in SPEC["per_layer"]}
    for moves in mapping["layers"].values():
        assert set(moves) <= end_to_end
        assert all(set(ws) <= workloads for ws in moves.values())
    assert mapping["default_seed"] != mapping["heldout_seed"]


def test_workloads_match_the_benchmark_spec():
    mapping = json.loads((HERE / "mapping.json").read_text())
    gated = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert gated == {w.name: w.why for w in WORKLOADS.values() if w.name in gated}
    assert set(gated) | set(mapping["ungated_workloads"]) == set(WORKLOADS)


def test_analysis_suite_exceeds_one_hundred_properties():
    graph = spaq.load_graph(spaq.builtin_config_path("xgate"))
    suite = property_suite(graph)
    assert len(suite) > 100 and len(set(suite)) == len(suite)
    for text in suite:
        spaq.parse_property(text)
