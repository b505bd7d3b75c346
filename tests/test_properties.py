import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spaq.errors import PropertyRangeError, PropertySyntaxError
from spaq.properties import (
    _METRIC_ARGS,
    CI,
    NEXT_CHECK,
    TEST,
    CondQuery,
    EventPattern,
    MetricQuery,
    MetricRef,
    PropertyAst,
    parse_property,
    property_to_text,
)


class TestParseMetricQueries:
    def test_basic_test_property(self):
        ast = parse_property("test ttf(x_gate) > 120 @ F=0.8 C=0.9")
        assert ast == PropertyAst(
            mode=TEST,
            body=MetricQuery(metric=MetricRef(name="ttf", node="x_gate"), cmp=">", threshold=120.0),
            C=0.9,
            F=0.8,
        )

    def test_metric_args(self):
        ast = parse_property("test failures(b, window=100) < 3 @ F=0.9 C=0.95")
        assert ast.body.metric.args == (("window", 100),)
        assert ast.body.cmp == "<"

    def test_param_metric(self):
        ast = parse_property("ci param(a, name=param_A, when=before) @ F=0.05 C=0.95")
        assert ast.mode == CI
        assert ast.body.metric.arg("name") == "param_A"
        assert ast.body.cmp is None and ast.body.threshold is None

    def test_f_defaults_to_none(self):
        ast = parse_property("test ttf(a) > 10 @ C=0.9")
        assert ast.F is None

    def test_ttf_anchor_arg(self):
        ast = parse_property("ci ttf(a, anchor=calibration, oracle=true) @ F=0.05 C=0.95")
        assert ast.body.metric.arg("anchor") == "calibration"
        assert ast.body.metric.arg("oracle") == "true"


class TestParseCondQueries:
    def test_window_cycles(self):
        text = "test prob[fail(top_2) -> fail(bottom_2) within 25] > 0.33 @ C=0.9"
        ast = parse_property(text)
        assert ast.body == CondQuery(
            trigger=EventPattern(kind="fail", node="top_2"),
            response=EventPattern(kind="fail", node="bottom_2"),
            window=25,
            cmp=">",
            probability=0.33,
        )

    def test_next_check_window(self):
        text = "test prob[shift(a, param=param_A, by=0.1) -> fail(b) within next_check] > 0.33 @ C=0.95"
        ast = parse_property(text)
        assert ast.body.window == NEXT_CHECK
        assert ast.body.trigger.arg("by") == 0.1

    def test_calibrate_trigger(self):
        ast = parse_property("test prob[calibrate(a) -> fail(b) within 10] > 0.5 @ C=0.9")
        assert ast.body.trigger.kind == "calibrate"


class TestParseImplication:
    def test_is_a_syntax_error_at_the_arrow(self):
        text = "test ttf(a) > 5 -> failures(b, window=10) > 2 @ C=0.9"
        with pytest.raises(PropertySyntaxError) as ei:
            parse_property(text)
        assert ei.value.pos == text.index("->")


class TestArgumentTable:
    @pytest.mark.parametrize(
        "text, at",
        [
            ("ci prob[fail(a) -> fail(b) within 5] @ C=0.9", "prob"),
            ("test prob[fail(a) -> fail(b) within 5] > 0.2 @ F=0.5 C=0.9", "F="),
            ("test ttf(a, color=red) > 1 @ C=0.9", "color"),
            ("test prob[fail(a) -> latency(b) within 5] > 0.2 @ C=0.9", "latency"),
            ("test prob[shift(a, by=0.1) -> fail(b) within 5] > 0.2 @ C=0.9", ")"),
        ],
    )
    def test_form_outside_the_grammar_is_a_syntax_error_with_caret(self, text, at):
        with pytest.raises(PropertySyntaxError) as ei:
            parse_property(text)
        assert ei.value.pos == text.index(at)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MetricRef(name="ttf", node="a", args=(("oracle", "maybe"),)),
            lambda: MetricRef(name="ttf", node="a", args=(("oracle", True),)),
            lambda: MetricRef(name="failures", node="a", args=(("window", 0),)),
            lambda: MetricRef(name="failures", node="a", args=(("window", 2.5),)),
            lambda: MetricRef(name="param", node="a", args=(("name", 5),)),
            lambda: EventPattern(kind="shift", node="a", args=(("param", "p"), ("by", 0))),
        ],
    )
    def test_direct_construction_checks_values(self, build):
        with pytest.raises(PropertyRangeError):
            build()

    @pytest.mark.parametrize(
        "build, caret",
        [
            (lambda: MetricRef(name="latency", node="a"), 0),
            (lambda: EventPattern(kind="drift", node="a"), 0),
            (lambda: MetricRef(name="shift", node="a"), 0),
            (lambda: MetricRef(name="ttf", node="a", args=(("oracle", "true"), ("color", "red"))), 20),
            (lambda: MetricRef(name="failures", node="a"), 10),
        ],
    )
    def test_direct_construction_checks_names_and_keys(self, build, caret):
        with pytest.raises(PropertySyntaxError) as ei:
            build()
        assert ei.value.pos == caret

    def test_directly_built_ci_of_a_prob_query_is_a_syntax_error(self):
        body = CondQuery(trigger=EventPattern(kind="fail", node="a"), response=EventPattern(kind="fail", node="b"))
        with pytest.raises(PropertySyntaxError) as ei:
            PropertyAst(mode=CI, body=body, C=0.9)
        assert ei.value.text[ei.value.pos:].startswith("prob[")

    def test_directly_built_prob_test_with_f_is_a_syntax_error(self):
        body = CondQuery(trigger=EventPattern(kind="fail", node="a"), response=EventPattern(kind="fail", node="b"),
                         window=5, cmp=">", probability=0.2)
        with pytest.raises(PropertySyntaxError) as ei:
            PropertyAst(mode=TEST, body=body, C=0.9, F=0.3)
        assert ei.value.text[ei.value.pos:].startswith("F=")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PropertyAst(mode="verify", body=MetricQuery(metric=MetricRef("ttf", "a")), C=0.9),
            lambda: PropertyAst(mode=TEST, body=MetricQuery(metric=MetricRef("ttf", "a")), C=0.9),
            lambda: PropertyAst(mode=CI, body=MetricQuery(MetricRef("ttf", "a"), ">", 1.0), C=0.9),
            lambda: PropertyAst(mode=TEST, body="ttf(a) > 1", C=0.9),
            lambda: MetricQuery(metric=MetricRef("ttf", "a"), cmp=">"),
            lambda: MetricQuery(metric=MetricRef("ttf", "a"), cmp=">=", threshold=1.0),
            lambda: MetricQuery(metric=MetricRef("ttf", "a"), cmp=">", threshold="1"),
            lambda: MetricQuery(metric="ttf(a)"),
            lambda: CondQuery(trigger=EventPattern("fail", "a"), response="fail(b)"),
            lambda: CondQuery(trigger=EventPattern("fail", "a"), response=EventPattern("fail", "b"), window=2.5),
            lambda: CondQuery(trigger=EventPattern("fail", "a"), response=EventPattern("fail", "b"), probability=0.2),
        ],
    )
    def test_direct_construction_checks_the_form(self, build):
        with pytest.raises(PropertySyntaxError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PropertyAst(mode=CI, body=MetricQuery(metric=MetricRef("ttf", "a")), C=0.5),
            lambda: PropertyAst(mode=CI, body=MetricQuery(metric=MetricRef("ttf", "a")), C=0.9, F=1.0),
            lambda: PropertyAst(mode=CI, body=MetricQuery(metric=MetricRef("ttf", "a")), C=None),
            lambda: CondQuery(trigger=EventPattern("fail", "a"), response=EventPattern("fail", "b"), window=0),
            lambda: CondQuery(trigger=EventPattern("fail", "a"), response=EventPattern("fail", "b"),
                              cmp=">", probability=1.5),
            lambda: MetricQuery(metric=MetricRef("ttf", "a"), cmp=">", threshold=math.inf),
            lambda: MetricQuery(metric=MetricRef("ttf", "a"), cmp="<", threshold=-math.inf),
            lambda: MetricQuery(metric=MetricRef("ttf", "a"), cmp=">", threshold=math.nan),
            lambda: EventPattern("shift", "a", (("param", "p"), ("by", math.inf))),
        ],
    )
    def test_direct_construction_checks_the_ranges(self, build):
        with pytest.raises(PropertyRangeError):
            build()

    def test_omitted_argument_reads_its_default(self):
        ref = parse_property("ci ttf(a) @ C=0.9").body.metric
        assert (ref.arg("anchor"), ref.arg("oracle")) == ("verification", "false")
        assert parse_property("ci param(a, name=k) @ C=0.9").body.metric.arg("when") == "after"


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, message, pos, expected",
        [
            ("", "expected 'test' or 'ci', found 'end of input'", 0, (TEST, CI)),
            ("verify ttf(a) > 1 @ C=0.9", "expected 'test' or 'ci', found 'verify'", 0, (TEST, CI)),
            ("test ttf(a) >= 1 @ C=0.9", "expected a number, found '='", 13, ("number",)),
            ("test ttf(a) > 1 @ C", "expected '=', found 'end of input'", 19, ("=",)),
            ("test ttf(a) > 1", "expected '@', found 'end of input'", 15, ("@",)),
            ("test ttf(a) > 1 @ C=0.9 garbage", "trailing input 'garbage'", 24, ()),
            ("test ttf(a > 1 @ C=0.9", "expected ')', found '>'", 11, (")",)),
            ("test prob[fail(a) fail(b) within 5] > 0.2 @ C=0.9",
             "expected '->' between trigger and response", 18, ("->",)),
            ("test prob[fail(a) -> fail(b) within] > 0.2 @ C=0.9",
             "expected 'next_check', found ']'", 35, (NEXT_CHECK,)),
            ("test prob[fail(a) -> fail(b) within 5.5] > 0.2 @ C=0.9", "window must be a positive integer", 36, ()),
            ("ci ttf(a) > 1 @ C=0.9", "expected '@', found '>'", 10, ("@",)),
            # fixed param order: F before C
            ("test ttf(a) > 1 @ C=0.9 F=0.5", "trailing input 'F'", 24, ()),
            # events are not metrics
            ("test shift(a) > 1 @ C=0.9", "unknown metric 'shift'", 5, tuple(_METRIC_ARGS)),
            (">>", "expected 'test' or 'ci', found '>'", 0, (TEST, CI)),
            ("! ", "unexpected character '!'", 0, ()),
            ("- fail(b)", "unexpected character '-'", 0, ()),
            ("test prob[fail(a) -> fail(b) within -3] > 0.2 @ C=0.9", "window must be a positive integer", 36, ()),
            ("ci prob[fail(a) -> fail(b) within 5] @ C=0.9",
             "ci takes a metric; compare a prob[...] in a test instead", 3, tuple(_METRIC_ARGS)),
            ("test prob[fail(a) -> fail(b) within 5] > 0.2 @ F=0.5 C=0.9",
             "F= belongs to metric properties; a prob test's threshold is its probability", 47, ("C",)),
            ("  test   ttf( a ,oracle = true )>1@C=0.9  x", "trailing input 'x'", 42, ()),
            ("test ttf(a, oracle=) > 1 @ C=0.9", "expected a name, found ')'", 19, ()),
            ("test ttf(a) > 1 @ F=0.5 D=1", "expected 'C', found 'D'", 24, ("C",)),
            ("ci ttf(a) @", "expected 'F' or 'C', found 'end of input'", 11, ("F", "C")),
            ("test prob[fail(a) -> fail(b) within 5] 0.2", "expected '>' or '<', found '0.2'", 39, (">", "<")),
        ],
    )
    def test_rejects(self, text, message, pos, expected):
        with pytest.raises(PropertySyntaxError) as ei:
            parse_property(text)
        assert (str(ei.value), ei.value.pos, ei.value.expected) == (message, pos, expected)

    def test_unknown_metric_lists_choices(self):
        with pytest.raises(PropertySyntaxError) as ei:
            parse_property("test latency(a) > 1 @ C=0.9")
        assert "ttf" in ei.value.expected

    def test_unknown_arg_key(self):
        with pytest.raises(PropertySyntaxError):
            parse_property("test ttf(a, color=red) > 1 @ C=0.9")

    def test_duplicate_arg_key(self):
        with pytest.raises(PropertySyntaxError):
            parse_property("test failures(a, window=5, window=6) > 1 @ C=0.9")

    def test_missing_required_arg(self):
        with pytest.raises(PropertySyntaxError):
            parse_property("test prob[shift(a) -> fail(b) within 5] > 0.2 @ C=0.9")

    def test_caret_diagnostic_points_at_error(self):
        try:
            parse_property("test ttf(a) >> 1 @ C=0.9")
        except PropertySyntaxError as e:
            diag = e.caret_diagnostic()
            lines = diag.splitlines()
            assert lines[1].index("^") == e.pos
        else:
            pytest.fail("expected a syntax error")

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("test ttf(a) > 1 @ C=0.9\ntest ttf(b) > 1 @ C=0.9", "test ttf(b) > 1 @ C=0.9", 0),
            ("test\r\n  ttf(a) >> 1 @ C=0.9", "  ttf(a) >> 1 @ C=0.9", 10),
            ("test ttf(a) > 1\n\n@ C=0.9 x\nmore", "@ C=0.9 x", 8),
            # a tab is expanded to the next 8-column stop in the line and the caret
            ("test\tttf(a) >> 1 @ C=0.9", "test    ttf(a) >> 1 @ C=0.9", 16),
        ],
    )
    def test_caret_diagnostic_shows_the_line_that_holds_the_error(self, text, line, column):
        with pytest.raises(PropertySyntaxError) as ei:
            parse_property(text)
        shown, caret, _ = ei.value.caret_diagnostic().splitlines()
        assert (shown, caret) == (line, " " * column + "^")

    @pytest.mark.parametrize(
        "text",
        [
            "test ttf(a) > 1 @ F=1.5 C=0.9",
            "test ttf(a) > 1 @ C=1.0",
            "test ttf(a) > 1 @ C=0.3",
            "test ttf(a) > 1 @ C=0.5",
            "test prob[fail(a) -> fail(b) within 0] > 0.2 @ C=0.9",
            "test prob[fail(a) -> fail(b) within 5] > 1.2 @ C=0.9",
            "test prob[shift(a, param=p, by=0) -> fail(b) within 5] > 0.2 @ C=0.9",
            "ci ttf(x_gate, oracle=maybe) @ F=0.05 C=0.95",
            "ci ttf(x_gate, oracle=1) @ F=0.05 C=0.95",
            "ci ttf(x_gate, anchor=banana) @ F=0.05 C=0.95",
            "test failures(a, window=0) < 2 @ C=0.9",
            "test failures(a, window=2.5) < 2 @ C=0.9",
            "test failures(a, window=-3) < 2 @ C=0.9",
            "ci param(a, name=5) @ C=0.9",
            "ci param(a, name=k, when=during) @ C=0.9",
            "test time_between(a, event=check) > 1 @ C=0.9",
            "test pct_time(a, op=drift_sample) < 0.1 @ C=0.9",
            "test prob[shift(a, param=7, by=0.1) -> fail(b) within 5] > 0.2 @ C=0.9",
            "test prob[shift(a, param=p, by=-0.1) -> fail(b) within 5] > 0.2 @ C=0.9",
            "test ttf(a) > 1e999 @ C=0.9",
            "test ttf(a) < -1e999 @ C=0.9",
            "test prob[shift(a, param=p, by=1e999) -> fail(b) within 5] > 0.2 @ C=0.9",
            pytest.param("test prob[fail(a) -> fail(b) within %s] > 0.2 @ C=0.9" % ("9" * 5000), id="window_5000_digits"),
            pytest.param("test failures(a, window=%s) < 2 @ C=0.9" % ("9" * 5000), id="int_arg_5000_digits"),
        ],
    )
    def test_range_errors(self, text):
        with pytest.raises(PropertyRangeError):
            parse_property(text)


node_names = st.sampled_from(["a", "b2", "x_gate", "drive_frequency"])


@st.composite
def metric_refs(draw):
    """A metric call drawn from the argument table: each optional
    argument given or left out, each value from what its row allows,
    in any order."""
    name = draw(st.sampled_from(sorted(_METRIC_ARGS)))
    values = {
        int: st.integers(1, 10**6),
        float: st.floats(1e-6, 1e6) | st.integers(1, 1000),
        str: st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
    }
    args = [
        (key, draw(st.sampled_from(allowed) if isinstance(allowed, tuple) else values[allowed]))
        for key, (allowed, default) in _METRIC_ARGS[name].items()
        if default is None or draw(st.booleans())
    ]
    return MetricRef(name=name, node=draw(node_names), args=tuple(draw(st.permutations(args))))


class TestSerialisation:
    @pytest.mark.parametrize(
        "text",
        [
            "test ttf(x_gate) > 120 @ F=0.8 C=0.9",
            "ci ttf(x_gate, anchor=calibration) @ F=0.05 C=0.95",
            "test prob[shift(a, param=param_A, by=0.1) -> fail(b) within next_check] > 0.33 @ C=0.95",
            "test prob[fail(top_2) -> fail(bottom_2) within 25] > 0.33 @ C=0.9",
            "test failures(b, window=100) < 3 @ F=0.9 C=0.95",
            "test ttf(a, oracle=true, anchor=calibration) > 5 @ C=0.9",
            "ci param(a, name=k) @ C=0.9",
        ],
    )
    def test_round_trip(self, text):
        ast = parse_property(text)
        assert parse_property(property_to_text(ast)) == ast

    @given(
        node=node_names,
        other=node_names,
        window=st.one_of(st.integers(1, 500), st.just(NEXT_CHECK)),
        prob=st.floats(0.01, 0.99),
        C=st.floats(0.51, 0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_cond_round_trip_fuzz(self, node, other, window, prob, C):
        body = CondQuery(
            trigger=EventPattern(kind="fail", node=node),
            response=EventPattern(kind="fail", node=other),
            window=window,
            cmp=">",
            probability=round(prob, 6),
        )
        ast = PropertyAst(mode=TEST, body=body, C=round(C, 6))
        assert parse_property(property_to_text(ast)) == ast

    @given(
        metric=metric_refs(),
        mode=st.sampled_from([TEST, CI]),
        cmp=st.sampled_from([">", "<"]),
        threshold=st.floats(-1e6, 1e6),
        F=st.none() | st.floats(0.01, 0.99),
        C=st.floats(0.51, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_round_trip_fuzz(self, metric, mode, cmp, threshold, F, C):
        body = MetricQuery(metric=metric) if mode == CI else MetricQuery(metric=metric, cmp=cmp, threshold=threshold)
        ast = PropertyAst(mode=mode, body=body, C=C, F=F)
        assert parse_property(property_to_text(ast)) == ast


# Valid properties, split into tokens, that property_texts() edits.
_SEED_TOKENS = [
    text.split()
    for text in (
        "test ttf ( a , anchor = calibration , oracle = true ) > 120 @ F = 0.8 C = 0.9",
        "ci failures ( b , window = 5 ) @ C = 0.95",
        "ci param ( a , name = k , when = before ) @ F = 0.05 C = 0.95",
        "test time_between ( a , event = fail ) < 3.5 @ C = 0.9",
        "test pct_time ( a , op = calibrate ) < 0.1 @ C = 0.9",
        "test prob [ shift ( a , param = p , by = 0.1 ) -> fail ( b ) within next_check ] > 0.33 @ C = 0.95",
        "test prob [ calibrate ( a ) -> fail ( b ) within 25 ] < 0.5 @ C = 0.9",
    )
]
_TOKENS = sorted({tok for seed in _SEED_TOKENS for tok in seed} | {
    "-", "!", ".", "0", "-3", "1e3", "2.5", "1e999", "-1e999", "1e-999", "9" * 5000, "F", "C", "ci", "x",
})


@st.composite
def property_texts(draw):
    """A valid property with up to four tokens inserted, replaced or
    deleted, joined by no, some or line-breaking whitespace."""
    tokens = list(draw(st.sampled_from(_SEED_TOKENS)))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            tokens.insert(i, draw(st.sampled_from(_TOKENS)))
        elif i < len(tokens):
            tokens[i : i + 1] = [draw(st.sampled_from(_TOKENS))] if edit == "replace" else []
    gaps = draw(st.lists(st.sampled_from(["", " ", "  ", "\n", " \t"]), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(gap + tok for gap, tok in zip(gaps, tokens)) + gaps[-1]


class TestAnyText:
    @given(text=property_texts())
    @example(text="test ttf(a) > 1e999 @ C=0.9")
    @example(text="test ttf(a) > -1e999 @ C=0.9")
    @example(text="test prob[shift(a, param=p, by=1e999) -> fail(b) within 5] > 0.2 @ C=0.9")
    @example(text="test prob[fail(a) -> fail(b) within %s] > 0.2 @ C=0.9" % ("9" * 5000))
    @example(text="test failures(a, window=%s) < 2 @ C=0.9" % ("9" * 5000))
    @settings(max_examples=500, deadline=None)
    def test_parses_to_a_round_trip_or_raises_a_typed_error(self, text):
        try:
            ast = parse_property(text)
        except PropertySyntaxError as e:
            assert e.text == text and 0 <= e.pos <= len(text)
        except PropertyRangeError:
            pass
        else:
            assert parse_property(property_to_text(ast)) == ast
