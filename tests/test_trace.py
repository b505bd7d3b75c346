import copy
import gc
import inspect
import json
import math
import pickle
import re
import tracemalloc
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_event_line, reference_read_trace
from test_golden import CONFIGS, MODES
from spaq import trace
from spaq.errors import ClockError, SchemaError
from spaq.graph import builtin_config_path, load_graph
from spaq.sim import SimConfig, run_simulation
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

    def test_init_takes_every_field_in_order_with_its_default(self):
        params = inspect.signature(TraceEvent).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            (f.name, inspect.Parameter.empty if f.default is MISSING else f.default) for f in fields(TraceEvent)
        ]
        e = TraceEvent("r", 3, "a", DRIFT_SAMPLE, PASS, 0, 7, 0.5)
        assert replace(e, ep=8) == TraceEvent("r", 3, "a", DRIFT_SAMPLE, PASS, ep=8, value=0.5)

    def test_slotted_event_pickles_copies_and_stays_frozen(self):
        e = cal(3)
        copies = [pickle.loads(pickle.dumps(e, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in [*copies, copy.copy(e), copy.deepcopy(e)]:
            assert other == e and hash(other) == hash(e) and repr(other) == repr(e)
        with pytest.raises(FrozenInstanceError):
            e.time = 4
        assert not hasattr(e, "__dict__")


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

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path):
        p = tmp_path / "run.trace"
        write_trace(p, Run(meta=meta(), events=(ev(0), cal(1))))
        old = p.read_bytes()
        bad = Run(meta=RunMeta("r0", True, "abc"), events=(ev(3), ev(5)))
        with pytest.raises(SchemaError):
            write_trace(p, bad)
        assert p.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["run.trace"]
        with pytest.raises(SchemaError):
            write_trace(tmp_path / "new.trace", bad)
        assert [f.name for f in tmp_path.iterdir()] == ["run.trace"]

    def test_writer_rejects_time_regression(self, tmp_path):
        # one rule, one message, whether the run is built from events or
        # from the simulator's rows
        with pytest.raises(ClockError, match="event time 4 precedes previous 5"):
            Run(meta(), (ev(5), ev(4)))
        rows = [(5, "a", 0, 1, 0, None, None, None), (4, "a", 0, 1, 0, None, None, None)]
        path = tmp_path / "t"
        with pytest.raises(ClockError, match=f"^{re.escape(str(path))}: run 'r0': event time 4 precedes previous 5$"):
            write_trace(path, trace.run_from_rows(meta(), rows))

    @pytest.mark.parametrize(
        "bad",
        [
            ev(5, op=DRIFT_SAMPLE, dur=0, value=math.nan),
            ev(5, op=DRIFT_SAMPLE, dur=0, value=-math.inf),
            ev(5, op=DRIFT_SAMPLE, dur=0, value=10**400),
            ev(5, op=DRIFT_SAMPLE, dur=0, value=True),
            TraceEvent("r0", 5, "a", CALIBRATE, SUCCESS, 2, params_before=(("p", math.inf),), params_after=(("p", 0.0),)),
            TraceEvent("r0", 5, "a", CALIBRATE, SUCCESS, 2, params_before=(("p", 0.0),), params_after=(("p", math.nan),)),
            TraceEvent("r0", 5, "a", CALIBRATE, SUCCESS, 2, params_before=(("p", 0.0), ("p", 1.0)),
                       params_after=(("p", 0.0),)),
            ev(2**63),
            ev(5, dur=2**63),
            ev(5, ep=-(2**63) - 1),
            ev(5, dur=True),
            ev(5, node=7),
            RunMeta("r0", True, "abc"),
            RunMeta("r0", np.int64(3), "abc"),
            RunMeta("r0", 2**63, "abc"),
            RunMeta("r0", 1, "abc", total_cycles=2**63),
        ],
    )
    def test_writer_rejects_what_the_reader_would_reject(self, tmp_path, bad):
        # a bad event is refused when the run is built, a bad header when
        # it is written, before any file is opened
        if isinstance(bad, RunMeta):
            run = Run(meta=bad, events=(ev(1),))
            with pytest.raises(SchemaError):
                write_trace(tmp_path / "t", run)
            assert not any(tmp_path.iterdir())
        else:
            with pytest.raises(SchemaError):
                Run(meta(), (ev(1), bad))

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([(-1, "a", 0, 1, 0, None, None, None)], SchemaError),
            ([(1, "a", 0, -1, 0, None, None, None)], SchemaError),
            ([(1, "a", 0, 1, 0, math.nan, None, None)], SchemaError),
            ([(1, "a", 2, 1, 0, None, (("p", 0.0),), None)], SchemaError),
            ([(1, "a", 2, 1, 0, None, (("p", 0.0), ("p", 1.0)), (("p", 0.0),))], SchemaError),
            ([(1, "a", 2, 1, 0, None, (("p", 0.0),), (("p", math.inf),))], SchemaError),
            # a high surrogate then a low one would read back as one character
            ([(1, "a\ud83d\ude00", 0, 1, 0, None, None, None)], SchemaError),
            ([(1, "a", 2, 1, 0, None, (("\ud83d\ude00", 0.0),), (("p", 0.0),))], SchemaError),
            ([(5, "a", 0, 1, 0, None, None, None), (4, "a", 0, 1, 0, None, None, None)], ClockError),
        ],
    )
    def test_writer_rejects_columns_that_no_line_can_hold(self, tmp_path, rows, error):
        # rows as the simulator emits them (kind 0 is check_data/pass, 2 is
        # calibrate/success), which Run(meta, events) does not check
        with pytest.raises(error):
            write_trace(tmp_path / "t", trace.run_from_rows(meta(), rows))
        assert not any(tmp_path.iterdir())

    def test_writer_rejects_foreign_run_id(self):
        with pytest.raises(SchemaError):
            Run(meta(), (ev(0, run_id="other"),))

    def test_reader_rejects_bad_schema(self, tmp_path):
        p = tmp_path / "bad"
        p.write_text('{"schema":"nope","run_id":"r0","seed":1,"graph_hash":"h","mode":"baseline","total_cycles":5}\n')
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
        with pytest.raises(ClockError, match=":3: event time 1 precedes previous 3$"):
            read_trace(p)

    def test_reader_rejects_garbage_line(self, tmp_path):
        p = tmp_path / "bad"
        header = '{"schema":"spaq-trace-1","run_id":"r0","seed":1,"graph_hash":"h","mode":"baseline","total_cycles":5}'
        p.write_text(header + "\nnot json\n")
        with pytest.raises(SchemaError):
            read_trace(p)

    def test_int64_edges_round_trip(self, tmp_path):
        run = Run(meta=RunMeta("r0", -(2**63), "abc", total_cycles=2**63 - 1),
                  events=(ev(2**63 - 1, dur=2**63 - 1, ep=-(2**63)),))
        p = tmp_path / "edge.trace"
        write_trace(p, run)
        assert '"t":9223372036854775807,' in p.read_text()
        assert read_trace(p) == run

    def test_read_back_run_holds_no_more_than_the_simulated_one(self, tmp_path):
        # the reader shares one string per op, outcome, node and parameter
        # name, as the simulator does; a private string per event made a
        # read-back xgate run hold about 1.7 times the simulated one
        def held(make):
            gc.collect()
            tracemalloc.start()
            try:
                made = make()
                gc.collect()
                return made, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        graph = load_graph(builtin_config_path("xgate"))
        cfg = SimConfig(total_cycles=10_000, seed=1)
        run_simulation(graph, cfg)  # first-call caches are not the run's
        simulated, simulated_bytes = held(lambda: run_simulation(graph, cfg))
        p = tmp_path / "run.trace"
        write_trace(p, simulated)
        read_trace(p)
        read_back, read_bytes = held(lambda: read_trace(p))
        assert read_back == simulated and len(read_back.events) > 1000
        assert read_bytes <= 1.1 * simulated_bytes, (read_bytes, simulated_bytes)

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
            '{"t":1180591620717411303424,"node":"a","op":"check_data","outcome":"pass","dur":1,"ep":0}',
            '{"t":1,"node":"a","op":"check_data","outcome":"pass","dur":9223372036854775808,"ep":0}',
            '{"t":1,"node":"a","op":"check_data","outcome":"pass","dur":1,"ep":-9223372036854775809}',
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
            '{"schema":"spaq-trace-1","run_id":"r0","seed":"x","graph_hash":"h","mode":"baseline","total_cycles":5}',
            '{"schema":"spaq-trace-1","run_id":"r0","seed":1,"graph_hash":"h","mode":"baseline","total_cycles":2.5}',
            '{"schema":"spaq-trace-1","run_id":"r0","seed":1,"graph_hash":"h","mode":"baseline","total_cycles":5,'
            '"owner":"me"}',
            '["spaq-trace-1"]',
            '{"schema":"spaq-trace-1","run_id":"r0","seed":1,"graph_hash":"h","mode":"baseline",'
            '"total_cycles":1180591620717411303424}',
            '{"schema":"spaq-trace-1","run_id":"r0","seed":1,"graph_hash":"h","mode":"baseline",'
            '"total_cycles":9223372036854775808}',
            '{"schema":"spaq-trace-1","run_id":"r0","seed":9223372036854775808,"graph_hash":"h","mode":"baseline",'
            '"total_cycles":5}',
            '{"schema":"spaq-trace-1","run_id":"r0","seed":-9223372036854775809,"graph_hash":"h","mode":"baseline",'
            '"total_cycles":5}',
        ],
    )
    def test_rejects_bad_header_fields(self, tmp_path, header):
        p = tmp_path / "bad"
        p.write_text(header + "\n")
        with pytest.raises(SchemaError):
            read_trace(p)

    @pytest.mark.parametrize("field", list(json.loads(HEADER)))
    def test_rejects_header_missing_a_field(self, tmp_path, field):
        header = json.loads(HEADER)
        del header[field]
        p = tmp_path / "bad"
        p.write_text(json.dumps(header) + "\n")
        with pytest.raises(SchemaError, match=repr(field)):
            read_trace(p)

    @pytest.mark.parametrize(
        "line",
        [
            '{"t":1,"node":"a","op":"bogus","outcome":"pass","dur":1,"ep":0}',
            '{"t":1,"node":"a","op":"check_data","outcome":"success","dur":1,"ep":0}',
            '{"t":1,"node":"a","op":"check_data","outcome":"pass","dur":1,"ep":0,"color":"red"}',
            '{"t":-1,"node":"a","op":"check_data","outcome":"pass","dur":1,"ep":0}',
            '{"t":1,"node":"a","op":"drift_sample","outcome":"pass","dur":0,"ep":0,"value":Infinity}',
            '{"t":1,"node":"a","op":"calibrate","outcome":"success","dur":1,"ep":0,"before":{}}',
            '{"t":1,"node":"a","op":"check_data","outcome":"pass","dur":1,"ep":0} x',
            '[1, 2]',
        ],
    )
    def test_event_line_errors_name_the_file_and_line(self, tmp_path, line):
        p = tmp_path / "bad"
        p.write_text(HEADER + "\n" + line + "\n")
        with pytest.raises(SchemaError, match=r":2:") as info:
            read_trace(p)
        assert str(info.value).startswith(f"{p}:2: ")

    @pytest.mark.parametrize(
        "line",
        [
            '{"t":1,"node":"a","op":"drift_sample","outcome":"pass","dur":0,"ep":0,"value":-0}',
            '{"t":1,"node":"a","op":"drift_sample","outcome":"pass","dur":0,"ep":0,"value":7}',
            '{"t":1,"node":"a","op":"drift_sample","outcome":"pass","dur":0,"ep":0,"value":1E2}',
            '{"t":1,"node":"a","op":"drift_sample","outcome":"pass","dur":0,"ep":0,"value":1e400}',
            '{"t":1,"node":"a","op":"drift_sample","outcome":"pass","dur":0,"ep":0,"value":-1e400}',
            '{"t":1,"node":"a","op":"drift_sample","outcome":"pass","dur":0,"ep":0,"value":' + "9" * 400 + "}",
            '{"t":1,"node":"a","op":"calibrate","outcome":"success","dur":2,"ep":0,'
            '"before":{"p":-0},"after":{"p":-0.0}}',
            '{"t":1,"node":"a","op":"calibrate","outcome":"success","dur":2,"ep":0,'
            '"before":{"p":1e400},"after":{"p":0.5}}',
        ],
    )
    def test_numbers_written_another_way_read_as_json_loads_reads_them(self, tmp_path, line):
        # the fast path reads only floats as the writer writes them; every
        # other number, -0 above all, is read as json.loads reads it
        p = tmp_path / "t"
        p.write_text(HEADER + "\n" + line + "\n")
        try:
            expected = repr(reference_read_trace(p))
        except SchemaError:
            with pytest.raises(SchemaError):
                read_trace(p)
        else:
            assert repr(read_trace(p)) == expected

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


def _int64_safe(run) -> bool:
    numbers = [run.meta.seed, run.meta.total_cycles, *(n for e in run.events for n in (e.time, e.duration, e.ep))]
    return all(-(2**63) <= n < 2**63 for n in numbers)


_EVENT = b'{"t":1,"node":"a","op":"check_data","outcome":"pass","dur":1,"ep":0}'


@given(raw=st.one_of(_DOCUMENT, _CORRUPTED, st.binary(max_size=64)))
@settings(max_examples=400, deadline=None)
# bytes that str.strip(), str.splitlines() or a bulk parse treat
# differently from json.loads on each line
@example(raw=HEADER.encode() + b"\n\x0b" + _EVENT + b"\n")
@example(raw=HEADER.encode() + b"\n\x0b\n" + _EVENT + b"\n")
@example(raw=HEADER.encode() + "\n\u2028".encode() + _EVENT + b"\n")
@example(raw=HEADER.encode() + "\n\u2028\n".encode() + _EVENT + b"\n")
@example(raw=HEADER.encode() + b"\n" + _EVENT + b",{}\n")
@example(raw=HEADER.encode() + b"\n " + _EVENT + b" \t\r\n\r\n")
@example(raw=b"\xef\xbb\xbf" + HEADER.encode() + b"\n" + _EVENT + b"\n")
@example(raw=HEADER.encode() + b"\n\xef\xbb\xbf" + _EVENT + b"\n")
@example(raw=HEADER.encode() + b"\n" + _EVENT[:30] + b"\n" + _EVENT[30:] + b"\n")
@example(raw=HEADER.encode() + b"\n" + _EVENT[:30] + b"\r" + _EVENT[30:] + b"\n")
@example(raw=HEADER.encode() + b'\n{"t":9223372036854775808,"node":"a","op":"check_data","outcome":"pass"}\n')
@example(raw=HEADER.replace('"seed":1', '"seed":9223372036854775808').encode() + b"\n")
def test_any_bytes_round_trip_or_raise_typed_error(fuzz_dir, raw):
    """read_trace accepts what the reference reader accepts, less runs with
    a number outside int64, reads it as the same run, and writes it back so
    that it reads the same again."""
    src, out = fuzz_dir / "in.jsonl", fuzz_dir / "out.jsonl"
    src.write_bytes(raw)
    try:
        expected = reference_read_trace(src)
    except (SchemaError, ClockError, UnicodeDecodeError):
        expected = None
    try:
        run = read_trace(src)
    except (SchemaError, ClockError):
        assert expected is None or not _int64_safe(expected)
        return
    assert expected is not None and _int64_safe(expected)
    assert run == expected
    write_trace(out, run)
    assert read_trace(out) == run


# names with quotes, backslashes, control characters, non-ASCII and
# surrogates, but no high surrogate followed by a low one, which the
# writer refuses; and floats at the edges of their range
_NAME = st.text(st.characters(blacklist_categories=()), max_size=6).filter(
    lambda name: not any("\ud800" <= a <= "\udbff" and "\udc00" <= b <= "\udfff" for a, b in zip(name, name[1:]))
)
_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1e16, 1e-7]))
_VALUE = st.one_of(_FLOAT, st.integers(-(2**70), 2**70))
_LINE_PARAMS = st.dictionaries(_NAME, st.one_of(_FLOAT, st.integers(-(2**53), 2**53)), max_size=3).map(
    lambda d: tuple(d.items())
)
_INT64 = st.integers(0, 2**63 - 1)
_WRITABLE_EVENT = st.one_of(
    st.builds(TraceEvent, st.just("r0"), _INT64, _NAME, st.just(CHECK_DATA), st.sampled_from([PASS, FAIL]),
              _INT64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(TraceEvent, st.just("r0"), _INT64, _NAME, st.just(DRIFT_SAMPLE), st.sampled_from([PASS, FAIL]),
              st.just(0), st.integers(0, 5), _VALUE),
    st.builds(TraceEvent, st.just("r0"), _INT64, _NAME, st.just(ORACLE_OUT_OF_SPEC), st.just(FAIL)),
    st.builds(TraceEvent, st.just("r0"), _INT64, _NAME, st.just(CALIBRATE), st.sampled_from([SUCCESS, "failed"]),
              _INT64, st.integers(0, 5), st.none() | _VALUE, _LINE_PARAMS, _LINE_PARAMS),
)


@given(events=st.lists(_WRITABLE_EVENT, max_size=6))
@settings(max_examples=300, deadline=None)
def test_a_run_writes_each_events_line(fuzz_dir, events):
    """A run holds an int value as the float nearest to it, writes each
    event's line as json.dumps writes that event, and reads it back."""
    events = sorted(events, key=lambda e: e.time)
    held = tuple(replace(e, value=None if e.value is None else float(e.value)) for e in events)
    run = Run(meta=meta(), events=events)
    assert repr(run.events) == repr(held)
    path = fuzz_dir / "written.jsonl"
    write_trace(path, run)
    assert path.read_text().split("\n")[1:] == [reference_event_line(e) for e in held] + [""]
    assert repr(read_trace(path).events) == repr(held)


# field texts that a hand-written or corrupted line may carry instead of
# the writer's: JSON that reads the same, JSON that reads otherwise, and
# text that is not JSON
_INT_TEXTS = ["0", "7", "007", "-0", "-1", "1.0", "1e2", "true", '"7"', "123456789012345678",
              "1234567890123456789", str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1)]
_FIELD_TEXTS = {
    "t": _INT_TEXTS,
    "dur": _INT_TEXTS,
    "ep": _INT_TEXTS,
    "node": ['"a"', '"\\u0061"', '"é"', '"\\u00e9"', '"a\\"b"', '"\\ud800"', '"a\\\\b"', '""', '"\\n"', "7"],
    "op": ['"check_data"', '"calibrate"', '"drift_sample"', '"oracle_out_of_spec"', '"bogus"'],
    "outcome": ['"pass"', '"fail"', '"success"', '"failed"'],
    "value": ["-0", "-0.0", "0e0", "1E2", "1e+2", "1e-7", "1e400", "-1e400", "7", "12345678901234567890123",
              "01", "1.", ".5", "NaN", '"x"', "null", "true"],
    "before": ["{}", '{"p":0.5}', '{"p":01}', '{"p":1e400}', '{"p":1,"p":2}', '{"\\u0070":0.5}', '{"p":-0}',
               '{"q":0.5,"p":-1E-3}', "[]"],
    "after": ["{}", '{"p":0.5}', '{"p":-0.0}', '{"p":NaN}', '{"q":2}'],
    "extra": ["1"],
}
_EDIT = st.one_of(
    st.sampled_from(sorted(_FIELD_TEXTS)).flatmap(lambda k: st.tuples(st.just("set"), st.just(k),
                                                                      st.sampled_from(_FIELD_TEXTS[k]))),
    st.tuples(st.just("drop"), st.sampled_from(sorted(_FIELD_TEXTS))),
    st.tuples(st.just("swap"), st.integers(0, 8)),
    st.tuples(st.just("space"), st.integers(0, 8)),
)


def _perturbed(e: TraceEvent, edits) -> str:
    fields = [[k, json.dumps(v, separators=(",", ":"))] for k, v in json.loads(reference_event_line(e)).items()]
    for edit in edits:
        keys = [k for k, _ in fields]
        if edit[0] == "set":
            if edit[1] in keys:
                fields[keys.index(edit[1])][1] = edit[2]
            else:
                fields.append([edit[1], edit[2]])
        elif edit[0] == "drop" and edit[1] in keys:
            del fields[keys.index(edit[1])]
        elif edit[0] == "swap" and edit[1] + 1 < len(fields):
            fields[edit[1]], fields[edit[1] + 1] = fields[edit[1] + 1], fields[edit[1]]
        elif edit[0] == "space" and edit[1] < len(fields):
            fields[edit[1]][1] = " " + fields[edit[1]][1]
    return "{" + ",".join(f'"{k}":{v}' for k, v in fields) + "}"


@given(
    lines=st.lists(st.tuples(_WRITABLE_EVENT, st.lists(_EDIT, max_size=3)), min_size=1, max_size=3),
)
@settings(max_examples=400, deadline=None)
def test_perturbed_writer_lines_read_as_the_reference_reads_them(fuzz_dir, lines):
    """The fast paths read a line only as json.loads and the strict checks
    would: the reader agrees with the reference reader on lines the writer
    wrote and then had a field written another way, reordered, dropped or
    added, less a run with a number outside int64, which it refuses."""
    events = sorted((e for e, _ in lines), key=lambda e: e.time)
    text = "".join(_perturbed(e, edits) + "\n" for e, (_, edits) in zip(events, lines))
    src = fuzz_dir / "perturbed.jsonl"
    src.write_text(HEADER + "\n" + text)
    try:
        expected = reference_read_trace(src)
    except (SchemaError, ClockError):
        expected = None
    try:
        run = read_trace(src)
    except (SchemaError, ClockError):
        assert expected is None or not _int64_safe(expected)
        return
    assert expected is not None and _int64_safe(expected)
    assert run == expected and repr(run) == repr(expected)


def _short(n: int) -> int:
    return n if abs(n) < 10**18 else n // 10


def _fast_form(e: TraceEvent) -> TraceEvent:
    """``e`` with ints of at most 18 digits, which the fast path leaves
    to the strict one."""
    return replace(e, time=_short(e.time), duration=_short(e.duration), ep=_short(e.ep))


def _read_on_the_fast_path(path) -> Run:
    def strict(line, names):
        raise AssertionError(f"read line by line: {line!r}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_event_from_line", strict)
        return read_trace(path)


@given(events=st.lists(_WRITABLE_EVENT.map(_fast_form), max_size=6))
@settings(max_examples=300, deadline=None)
@example(events=[ev(t, op=DRIFT_SAMPLE, dur=0, value=v) for t, v in enumerate([5e-324, 1e16, -0.0, 1.5e300, 3])])
@example(events=[ev(0, node="x_gaté"), ev(1, node='q"\\'), ev(2, node="\x00\b\t\n\x0c\r\x1f\x7f"),
                 ev(3, node="x_gaté"), ev(4, node="😀 ∆"), ev(4, node="\ud83d"), ev(4, node="\ude00\ud83d"),
                 TraceEvent("r0", 5, "x_gaté", CALIBRATE, SUCCESS, 2, params_before=(("ω", 1.0), ("a\\u00e9", 2.0)),
                            params_after=(("ω", 1.5), ("a\\u00e9", 2.5)))])
def test_writer_files_are_read_on_the_fast_path(fuzz_dir, events):
    """Every number the writer writes, an int value held as a float among
    them, and every name it escapes, are ones that the fast path reads:
    the whole file is read by one regex pass, never line by line, and as
    the strict reader reads it."""
    run = Run(meta=meta(), events=sorted(events, key=lambda e: e.time))
    path = fuzz_dir / "fast.jsonl"
    write_trace(path, run)
    back = _read_on_the_fast_path(path)
    assert back == run and repr(back) == repr(run)
    assert repr(back) == repr(reference_read_trace(path))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", CONFIGS)
def test_simulated_runs_are_read_on_the_fast_path(tmp_path, config, mode):
    graph = load_graph(builtin_config_path(config))
    run = run_simulation(graph, SimConfig(total_cycles=3_000, seed=3, **MODES[mode]))
    path = tmp_path / "run.trace"
    write_trace(path, run)
    assert _read_on_the_fast_path(path) == run


class TestColumnarRun:
    def test_events_come_back_from_the_columns(self):
        events = (
            ev(0),
            ev(1, op=DRIFT_SAMPLE, dur=0),
            ev(1, op=DRIFT_SAMPLE, dur=0, value=0.0),
            ev(2, op=DRIFT_SAMPLE, outcome=FAIL, dur=0, value=-0.0),
            TraceEvent("r0", 3, "b", CALIBRATE, SUCCESS, 2, params_before=(), params_after=()),
            cal(4),
            ev(5, node="b", op=ORACLE_OUT_OF_SPEC, outcome=FAIL, dur=0, ep=-3),
        )
        run = Run(meta=meta(), events=events)
        data = pickle.dumps(run)
        assert b"TraceEvent" not in data
        for r in (run, pickle.loads(data)):
            assert r.events == events and repr(r.events) == repr(events)
            assert [e.value for e in r.events[:4]] == [None, None, 0.0, -0.0]
            assert math.copysign(1.0, r.events[3].value) == -1.0
            assert r.events[4].params_before == ()

    def test_simulated_and_read_back_runs_pickle_as_columns(self, tmp_path):
        graph = load_graph(builtin_config_path("xgate"))
        run = run_simulation(graph, SimConfig(total_cycles=3_000, seed=2))
        path = tmp_path / "run.trace"
        write_trace(path, run)
        back = read_trace(path)
        assert back == run and len(run.events) > 100  # the events are built, and kept
        for r in (run, back):
            data = pickle.dumps(r)
            assert b"TraceEvent" not in data
            again = pickle.loads(data)
            assert again == r and repr(again) == repr(r)

    def test_blank_lines_keep_a_writer_file_on_the_fast_path(self, tmp_path, monkeypatch):
        run = Run(meta=meta(total_cycles=10), events=(ev(0), cal(1), ev(3, op=DRIFT_SAMPLE, dur=0, value=0.5)))
        path = tmp_path / "run.trace"
        write_trace(path, run)
        header, *lines = path.read_text().splitlines()
        path.write_text("\n".join([header, lines[0], "", lines[1], "  \x0b", lines[2], "", ""]))

        def strict(line, names):
            raise AssertionError(f"read line by line: {line!r}")

        monkeypatch.setattr(trace, "_event_from_line", strict)
        assert read_trace(path) == run

    def test_a_run_holds_only_what_a_trace_line_can_hold(self, tmp_path):
        for bad in (ev(1, run_id="other"), ev(2**63)):
            with pytest.raises(SchemaError):
                Run(meta=meta(), events=(bad,))
        run = Run(meta=meta(), events=(ev(2, op=DRIFT_SAMPLE, dur=0, value=3),))
        held = ev(2, op=DRIFT_SAMPLE, dur=0, value=3.0)
        assert run.value.tolist() == [3.0] and repr(run) == f"Run(meta={meta()!r}, events=({held!r},))"
        write_trace(tmp_path / "t", run)
        assert (tmp_path / "t").read_text().split("\n")[1].endswith(',"value":3.0}')
        back = read_trace(tmp_path / "t")
        assert back == run and repr(back) == repr(run)


class TestMergeRuns:
    def test_merge(self):
        r1 = Run(meta=meta("r1"), events=(ev(0, run_id="r1"),))
        r2 = Run(meta=meta("r2"), events=(ev(0, run_id="r2"),))
        ds = merge_runs([r1, r2])
        assert tuple(r.meta.run_id for r in ds.runs) == ("r1", "r2")
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
