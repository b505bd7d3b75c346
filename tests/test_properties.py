import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaq.errors import PropertyRangeError, PropertySyntaxError
from spaq.properties import (
    CI,
    NEXT_CHECK,
    TEST,
    CondQuery,
    EventPattern,
    Implication,
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
    def test_parses_to_deferred_node(self):
        ast = parse_property("test ttf(a) > 5 -> failures(b, window=10) > 2 @ C=0.9")
        assert isinstance(ast.body, Implication)
        assert ast.body.antecedent.metric.name == "ttf"
        assert ast.body.consequent.metric.name == "failures"


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "verify ttf(a) > 1 @ C=0.9",
            "test ttf(a) >= 1 @ C=0.9",
            "test ttf(a) > 1 @ C",
            "test ttf(a) > 1",
            "test ttf(a) > 1 @ C=0.9 garbage",
            "test ttf(a > 1 @ C=0.9",
            "test prob[fail(a) fail(b) within 5] > 0.2 @ C=0.9",
            "test prob[fail(a) -> fail(b) within] > 0.2 @ C=0.9",
            "test prob[fail(a) -> fail(b) within 5.5] > 0.2 @ C=0.9",
            "ci ttf(a) > 1 @ C=0.9",
            "test ttf(a) > 1 @ C=0.9 F=0.5",   # fixed param order: F before C
            "test shift(a) > 1 @ C=0.9",        # events are not metrics
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(PropertySyntaxError):
            parse_property(text)

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
        "text",
        [
            "test ttf(a) > 1 @ F=1.5 C=0.9",
            "test ttf(a) > 1 @ C=1.0",
            "test ttf(a) > 1 @ C=0.3",
            "test ttf(a) > 1 @ C=0.5",
            "test prob[fail(a) -> fail(b) within 0] > 0.2 @ C=0.9",
            "test prob[fail(a) -> fail(b) within 5] > 1.2 @ C=0.9",
            "test prob[shift(a, param=p, by=0) -> fail(b) within 5] > 0.2 @ C=0.9",
        ],
    )
    def test_range_errors(self, text):
        with pytest.raises(PropertyRangeError):
            parse_property(text)


class TestSerialisation:
    @pytest.mark.parametrize(
        "text",
        [
            "test ttf(x_gate) > 120 @ F=0.8 C=0.9",
            "ci ttf(x_gate, anchor=calibration) @ F=0.05 C=0.95",
            "test prob[shift(a, param=param_A, by=0.1) -> fail(b) within next_check] > 0.33 @ C=0.95",
            "test prob[fail(top_2) -> fail(bottom_2) within 25] > 0.33 @ C=0.9",
            "test failures(b, window=100) < 3 @ F=0.9 C=0.95",
            "test ttf(a) > 5 -> failures(b, window=10) > 2 @ C=0.9",
            "ci param(a, name=k) @ C=0.9",
        ],
    )
    def test_round_trip(self, text):
        ast = parse_property(text)
        assert parse_property(property_to_text(ast)) == ast

    node_names = st.sampled_from(["a", "b2", "x_gate", "drive_frequency"])

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
