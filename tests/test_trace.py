import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaq.errors import ClockError, SchemaError
from spaq.trace import (
    CALIBRATE,
    CHECK_DATA,
    DRIFT_SAMPLE,
    FAIL,
    ORACLE_OUT_OF_SPEC,
    PASS,
    SUCCESS,
    Dataset,
    Run,
    RunMeta,
    TraceEvent,
    TraceWriter,
    extract_failures_from_timeseries,
    import_timeseries_csv,
    merge_runs,
    read_trace,
    write_trace,
)


def meta(run_id="r0", **kw):
    return RunMeta(run_id=run_id, seed=1, graph_hash="abc", **kw)


def ev(t, node="a", op=CHECK_DATA, outcome=PASS, dur=1, run_id="r0", **kw):
    return TraceEvent(run_id=run_id, time=t, node=node, op=op, outcome=outcome, duration=dur, **kw)


def cal(t, node="a", outcome=SUCCESS, run_id="r0"):
    return TraceEvent(
        run_id=run_id,
        time=t,
        node=node,
        op=CALIBRATE,
        outcome=outcome,
        duration=2,
        params_before=(("p", 0.5),),
        params_after=(("p", 0.01),),
    )


class TestEventValidation:
    def test_outcome_must_match_op(self):
        with pytest.raises(SchemaError):
            ev(0, op=CHECK_DATA, outcome=SUCCESS).validate()
        with pytest.raises(SchemaError):
            ev(0, op=ORACLE_OUT_OF_SPEC, outcome=PASS, dur=0).validate()

    def test_params_iff_calibrate(self):
        with pytest.raises(SchemaError):
            ev(0, params_before=(("p", 1.0),), params_after=(("p", 0.0),)).validate()
        bad = TraceEvent(run_id="r0", time=0, node="a", op=CALIBRATE, outcome=SUCCESS)
        with pytest.raises(SchemaError):
            bad.validate()
        cal(0).validate()

    def test_negative_duration_rejected(self):
        with pytest.raises(SchemaError):
            ev(0, dur=-1).validate()

    def test_params_sorted_at_construction(self):
        e = TraceEvent(
            run_id="r",
            time=0,
            node="a",
            op=CALIBRATE,
            outcome=SUCCESS,
            params_before=(("z", 1.0), ("a", 2.0)),
            params_after=(("z", 0.0), ("a", 0.0)),
        )
        assert e.params_before == (("a", 2.0), ("z", 1.0))


class TestFileRoundTrip:
    def test_round_trip_preserves_events(self, tmp_path):
        events = (ev(0), cal(1), ev(3, outcome=FAIL), ev(5, op=DRIFT_SAMPLE, dur=0, value=0.25),
                  ev(6, op=ORACLE_OUT_OF_SPEC, outcome=FAIL, dur=0))
        run = Run(meta=meta(total_cycles=10), events=events)
        p = tmp_path / "run.trace"
        write_trace(p, run)
        again = read_trace(p)
        assert again == run

    def test_byte_stability(self, tmp_path):
        events = (ev(0), cal(1))
        run = Run(meta=meta(), events=events)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_trace(p1, run)
        write_trace(p2, run)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_has_fixed_field_order(self, tmp_path):
        p = tmp_path / "run.trace"
        write_trace(p, Run(meta=meta(mode="adaptive", total_cycles=7), events=()))
        header = p.read_text().splitlines()[0]
        assert list(json.loads(header)) == ["schema", "run_id", "seed", "graph_hash", "mode", "total_cycles"]

    def test_writer_rejects_time_regression(self, tmp_path):
        w = TraceWriter(tmp_path / "t", meta())
        w.append_event(ev(5))
        with pytest.raises(ClockError):
            w.append_event(ev(4))
        w.close()

    def test_writer_rejects_foreign_run_id(self, tmp_path):
        with TraceWriter(tmp_path / "t", meta()) as w:
            with pytest.raises(SchemaError):
                w.append_event(ev(0, run_id="other"))

    def test_reader_rejects_bad_schema(self, tmp_path):
        p = tmp_path / "bad"
        p.write_text('{"schema":"nope","run_id":"r0","seed":1,"graph_hash":"h"}\n')
        with pytest.raises(SchemaError):
            read_trace(p)

    def test_reader_rejects_clock_regression(self, tmp_path):
        p = tmp_path / "bad"
        header = '{"schema":"spaq-trace-1","run_id":"r0","seed":1,"graph_hash":"h","mode":"baseline","total_cycles":5}'
        lines = [
            header,
            '{"t":3,"node":"a","op":"check_data","outcome":"pass","dur":1,"ep":0}',
            '{"t":1,"node":"a","op":"check_data","outcome":"pass","dur":1,"ep":0}',
        ]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ClockError):
            read_trace(p)

    def test_reader_rejects_garbage_line(self, tmp_path):
        p = tmp_path / "bad"
        header = '{"schema":"spaq-trace-1","run_id":"r0","seed":1,"graph_hash":"h"}'
        p.write_text(header + "\nnot json\n")
        with pytest.raises(SchemaError):
            read_trace(p)

    def test_empty_run_round_trips(self, tmp_path):
        run = Run(meta=meta(total_cycles=0), events=())
        p = tmp_path / "empty.trace"
        write_trace(p, run)
        assert read_trace(p) == run


HEADER = '{"schema":"spaq-trace-1","run_id":"r0","seed":1,"graph_hash":"h","mode":"baseline","total_cycles":5}'


class TestStrictReader:
    @pytest.mark.parametrize(
        "line",
        [
            '{"t":1.7,"node":"a","op":"check_data","outcome":"pass","dur":1,"ep":0}',
            '{"t":1,"node":"a","op":"check_data","outcome":"pass","dur":true,"ep":0}',
            '{"t":1,"node":7,"op":"check_data","outcome":"pass","dur":1,"ep":0}',
            '{"t":1,"node":"a","op":"drift_sample","outcome":"pass","dur":0,"ep":0,"value":"oops"}',
            '{"t":1,"node":"a","op":"drift_sample","outcome":"pass","dur":0,"ep":0,"value":NaN}',
            '{"t":1,"node":"a","op":"check_data","outcome":"pass","dur":1,"ep":0,"color":"red"}',
            '{"t":1,"node":"a","op":"calibrate","outcome":"success","dur":1,"ep":0,'
            '"before":{"p":true},"after":{"p":0.0}}',
            '[1, 2]',
        ],
    )
    def test_rejects_loose_event_fields(self, tmp_path, line):
        p = tmp_path / "bad"
        p.write_text(HEADER + "\n" + line + "\n")
        with pytest.raises(SchemaError):
            read_trace(p)

    @pytest.mark.parametrize(
        "header",
        [
            '{"schema":"spaq-trace-1","run_id":"r0","seed":"x","graph_hash":"h"}',
            '{"schema":"spaq-trace-1","run_id":"r0","seed":1,"graph_hash":"h","total_cycles":2.5}',
            '{"schema":"spaq-trace-1","run_id":"r0","seed":1,"graph_hash":"h","owner":"me"}',
            '["spaq-trace-1"]',
        ],
    )
    def test_rejects_bad_header_fields(self, tmp_path, header):
        p = tmp_path / "bad"
        p.write_text(header + "\n")
        with pytest.raises(SchemaError):
            read_trace(p)

    def test_rejects_invalid_utf8(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(HEADER.encode() + b'\n{"t":1,"node":"\xff","op":"check_data","outcome":"pass"}\n')
        with pytest.raises(SchemaError):
            read_trace(p)


# valid documents, loose ones and corrupted ones, so that the fuzz both
# round-trips real events and reaches every field check
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2**70), st.floats(), st.text(max_size=3)
)
_NUM = st.floats(-1, 1)
_PARAMS = st.dictionaries(st.sampled_from(["p", "q"]), _NUM, min_size=1, max_size=2)
_BASE = {"t": st.integers(0, 20), "node": st.sampled_from(["a", "b"]), "dur": st.integers(0, 3), "ep": st.integers(0, 3)}
_VALID_EVENT = st.one_of(
    st.fixed_dictionaries({**_BASE, "op": st.just(CHECK_DATA), "outcome": st.sampled_from([PASS, FAIL])}),
    st.fixed_dictionaries({**_BASE, "op": st.just(DRIFT_SAMPLE), "outcome": st.just(PASS), "value": _NUM}),
    st.fixed_dictionaries(
        {**_BASE, "op": st.just(CALIBRATE), "outcome": st.just(SUCCESS), "before": _PARAMS, "after": _PARAMS}
    ),
)
_LOOSE_EVENT = st.fixed_dictionaries(
    {
        "t": st.one_of(st.integers(0, 20), _SCALARS),
        "node": st.one_of(st.sampled_from(["a", "b"]), _SCALARS),
        "op": st.one_of(st.sampled_from([CHECK_DATA, CALIBRATE, DRIFT_SAMPLE, ORACLE_OUT_OF_SPEC]), _SCALARS),
        "outcome": st.one_of(st.sampled_from([PASS, FAIL, SUCCESS]), _SCALARS),
    },
    optional={
        "dur": st.one_of(st.integers(0, 3), _SCALARS),
        "ep": st.one_of(st.integers(0, 3), _SCALARS),
        "value": st.one_of(_NUM, _SCALARS),
        "before": st.dictionaries(st.sampled_from(["p", "q"]), st.one_of(_NUM, _SCALARS), max_size=2),
        "after": st.dictionaries(st.sampled_from(["p", "q"]), st.one_of(_NUM, _SCALARS), max_size=2),
        "extra": _SCALARS,
    },
)
_HEADER = st.fixed_dictionaries(
    {"schema": st.just("spaq-trace-1"), "run_id": st.sampled_from(["r0", ""])},
    optional={
        "seed": st.one_of(st.integers(-5, 2**70), _SCALARS),
        "graph_hash": st.one_of(st.just("h"), _SCALARS),
        "mode": st.one_of(st.just("baseline"), _SCALARS),
        "total_cycles": st.one_of(st.integers(-1, 30), _SCALARS),
    },
)
_DOCUMENT = st.builds(
    lambda header, events: "\n".join(json.dumps(o) for o in [header, *events]).encode() + b"\n",
    st.one_of(st.just(json.loads(HEADER)), _HEADER),
    st.one_of(
        st.lists(_VALID_EVENT, max_size=6).map(lambda evs: sorted(evs, key=lambda o: o["t"])),
        st.lists(st.one_of(_VALID_EVENT, _LOOSE_EVENT), max_size=5),
    ),
)
_CORRUPTED = st.builds(
    lambda doc, at, junk: doc[: at % (len(doc) + 1)] + junk + doc[at % (len(doc) + 1):],
    _DOCUMENT,
    st.integers(0, 10_000),
    st.binary(min_size=1, max_size=3),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(raw=st.one_of(_DOCUMENT, _CORRUPTED, st.binary(max_size=64)))
@settings(max_examples=400, deadline=None)
def test_any_bytes_round_trip_or_raise_typed_error(fuzz_dir, raw):
    src, out = fuzz_dir / "in.jsonl", fuzz_dir / "out.jsonl"
    src.write_bytes(raw)
    try:
        run = read_trace(src)
    except (SchemaError, ClockError):
        return
    write_trace(out, run)
    assert read_trace(out) == run


class TestMergeRuns:
    def test_merge(self):
        r1 = Run(meta=meta("r1"), events=(ev(0, run_id="r1"),))
        r2 = Run(meta=meta("r2"), events=(ev(0, run_id="r2"),))
        ds = merge_runs([r1, r2])
        assert ds.run_ids == ("r1", "r2")
        assert ds.nodes() == ("a",)

    def test_duplicate_run_id_rejected(self):
        r1 = Run(meta=meta("r1"), events=())
        with pytest.raises(SchemaError):
            merge_runs([r1, r1])


class TestCsvImport:
    def test_reads_columns(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("time,value\n0,0.0\n1,0.5\n2,1.2\n")
        t, v = import_timeseries_csv(p)
        assert list(t) == [0.0, 1.0, 2.0]
        assert list(v) == [0.0, 0.5, 1.2]

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,reading\n0,1\n")
        with pytest.raises(SchemaError):
            import_timeseries_csv(p)

    def test_time_regression_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,value\n2,1\n1,2\n")
        with pytest.raises(ClockError):
            import_timeseries_csv(p)


class TestFailureExtraction:
    def test_reference_reset_rule(self):
        t = np.arange(5.0)
        v = np.array([0.0, 0.5, 1.2, 1.3, 2.5])
        res = extract_failures_from_timeseries(t, v, threshold=1.0)
        assert res.failure_times == (2.0, 4.0)
        assert res.intervals == (2.0, 2.0)

    def test_no_failures(self):
        t = np.arange(4.0)
        v = np.array([0.0, 0.2, -0.3, 0.4])
        res = extract_failures_from_timeseries(t, v, threshold=1.0)
        assert res.failure_times == ()
        assert res.intervals == ()

    def test_threshold_is_strict(self):
        t = np.arange(2.0)
        v = np.array([0.0, 1.0])
        assert extract_failures_from_timeseries(t, v, 1.0).failure_times == ()

    def test_intervals_positive_and_bounded_by_span(self):
        rng = np.random.default_rng(5)
        t = np.arange(500.0)
        v = np.cumsum(rng.normal(0, 0.2, size=500))
        res = extract_failures_from_timeseries(t, v, threshold=1.0)
        assert all(i > 0 for i in res.intervals)
        assert sum(res.intervals) <= t[-1] - t[0]

    def test_empty_series(self):
        res = extract_failures_from_timeseries(np.array([]), np.array([]), 1.0)
        assert res.failure_times == ()
