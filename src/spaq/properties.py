"""Property language for statistical queries over trace datasets.

Grammar::

    property  := mode body "@" params
    mode      := "test" | "ci"
    body      := simple ("->" simple)?
    simple    := metric cmp number
               | "prob" "[" event "->" event "within" window "]" cmp number
    metric    := name "(" node ("," key "=" value)* ")"
    event     := ("fail" | "calibrate" | "shift") "(" node ("," key "=" value)* ")"
    window    := integer | "next_check"
    params    := ("F=" float)? "C=" float
    cmp       := ">" | "<"

``F`` must lie in (0, 1) and ``C`` in (0.5, 1); a value outside its
range raises PropertyRangeError at parse time.

In ``ci`` mode the comparator and number are omitted (the bound is what
gets computed). A body of the form ``metric cmp number -> metric cmp
number`` (run-level implication) parses into an AST but its evaluation
is deliberately not implemented; callers receive UnsupportedPropertyError.

Examples::

    test ttf(x_gate) > 120 @ F=0.8 C=0.9
    ci ttf(x_gate, anchor=calibration) @ F=0.05 C=0.95
    test prob[shift(a, param=param_A, by=0.10) -> fail(b) within next_check] > 0.33 @ C=0.95
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PropertyRangeError, PropertySyntaxError

TEST = "test"
CI = "ci"

FAIL_EVENT = "fail"
CALIBRATE_EVENT = "calibrate"
SHIFT_EVENT = "shift"
EVENT_KINDS = (FAIL_EVENT, CALIBRATE_EVENT, SHIFT_EVENT)

NEXT_CHECK = "next_check"

TTF = "ttf"
FAILURES = "failures"
PARAM = "param"
TIME_BETWEEN = "time_between"
PCT_TIME = "pct_time"
METRIC_NAMES = (TTF, FAILURES, PARAM, TIME_BETWEEN, PCT_TIME)

# allowed argument keys and whether they are required
_METRIC_ARGS: dict[str, dict[str, bool]] = {
    TTF: {"anchor": False, "oracle": False},
    FAILURES: {"window": True},
    PARAM: {"name": True, "when": False},
    TIME_BETWEEN: {"event": True},
    PCT_TIME: {"op": True},
}
_EVENT_ARGS: dict[str, dict[str, bool]] = {
    FAIL_EVENT: {},
    CALIBRATE_EVENT: {},
    SHIFT_EVENT: {"param": True, "by": True},
}

ArgValue = str | float | int
Args = tuple[tuple[str, ArgValue], ...]


class _ArgLookup:
    """Keyword-argument lookup shared by metric and event references."""

    args: Args

    def arg(self, key: str, default: ArgValue | None = None) -> ArgValue | None:
        for k, v in self.args:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class MetricRef(_ArgLookup):
    name: str
    node: str
    args: Args = ()


@dataclass(frozen=True)
class EventPattern(_ArgLookup):
    kind: str
    node: str
    args: Args = ()


@dataclass(frozen=True)
class MetricQuery:
    metric: MetricRef
    cmp: str | None = None
    threshold: float | None = None


@dataclass(frozen=True)
class CondQuery:
    trigger: EventPattern
    response: EventPattern
    window: int | str = NEXT_CHECK
    cmp: str | None = None
    probability: float | None = None


@dataclass(frozen=True)
class Implication:
    antecedent: MetricQuery
    consequent: MetricQuery


Body = MetricQuery | CondQuery | Implication


@dataclass(frozen=True)
class PropertyAst:
    mode: str
    body: Body
    C: float
    F: float | None = None


# --- tokenizer ---

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\],=@><])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # arrow | number | ident | punct | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise PropertySyntaxError(f"unexpected character {text[i]!r}", text, i)
        i = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append(_Token(kind=kind, text=m.group(), pos=m.start()))
    tokens.append(_Token(kind="end", text="", pos=len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> PropertySyntaxError:
        return PropertySyntaxError(message, self.text, self.cur.pos, expected)

    def expect_punct(self, ch: str) -> _Token:
        if self.cur.kind == "punct" and self.cur.text == ch:
            return self.advance()
        raise self.fail(f"expected {ch!r}, found {self.cur.text or 'end of input'!r}", (ch,))

    def expect_ident(self, *names: str) -> _Token:
        if self.cur.kind == "ident" and (not names or self.cur.text in names):
            return self.advance()
        what = " or ".join(repr(n) for n in names) if names else "a name"
        raise self.fail(f"expected {what}, found {self.cur.text or 'end of input'!r}", names)

    def expect_number(self) -> float:
        if self.cur.kind == "number":
            return float(self.advance().text)
        raise self.fail(f"expected a number, found {self.cur.text or 'end of input'!r}", ("number",))

    # --- grammar ---

    def parse(self) -> PropertyAst:
        mode = self.expect_ident(TEST, CI).text
        body = self.parse_body(mode)
        self.expect_punct("@")
        F, C = self.parse_params()
        if self.cur.kind != "end":
            raise self.fail(f"trailing input {self.cur.text!r}")
        return PropertyAst(mode=mode, body=body, C=C, F=F)

    def parse_body(self, mode: str) -> Body:
        first = self.parse_simple(mode)
        if self.cur.kind == "arrow":
            if not isinstance(first, MetricQuery):
                raise self.fail("implication arms must be metric comparisons")
            self.advance()
            second = self.parse_simple(mode)
            if not isinstance(second, MetricQuery):
                raise self.fail("implication arms must be metric comparisons")
            return Implication(antecedent=first, consequent=second)
        return first

    def parse_simple(self, mode: str) -> MetricQuery | CondQuery:
        if self.cur.kind == "ident" and self.cur.text == "prob":
            return self.parse_cond(mode)
        return self.parse_metric_query(mode)

    def parse_metric_query(self, mode: str) -> MetricQuery:
        name_tok = self.expect_ident()
        if name_tok.text not in METRIC_NAMES:
            raise PropertySyntaxError(
                f"unknown metric {name_tok.text!r}", self.text, name_tok.pos, METRIC_NAMES
            )
        node, args = self.parse_call_args(name_tok.text, _METRIC_ARGS[name_tok.text])
        metric = MetricRef(name=name_tok.text, node=node, args=args)
        if mode == CI:
            # ci mode carries no comparator/threshold: the bound is what gets computed
            return MetricQuery(metric=metric)
        cmp = self.parse_cmp()
        threshold = self.expect_number()
        return MetricQuery(metric=metric, cmp=cmp, threshold=threshold)

    def parse_cond(self, mode: str) -> CondQuery:
        self.expect_ident("prob")
        self.expect_punct("[")
        trigger = self.parse_event()
        if self.cur.kind != "arrow":
            raise self.fail("expected '->' between trigger and response", ("->",))
        self.advance()
        response = self.parse_event()
        self.expect_ident("within")
        window: int | str
        if self.cur.kind == "number":
            tok = self.advance()
            if "." in tok.text or "e" in tok.text.lower() or tok.text.startswith("-"):
                raise PropertySyntaxError("window must be a positive integer", self.text, tok.pos)
            window = int(tok.text)
            if window < 1:
                raise PropertyRangeError(f"window must be >= 1, got {window}")
        else:
            tok = self.expect_ident(NEXT_CHECK)
            window = NEXT_CHECK
        self.expect_punct("]")
        if mode == CI:
            return CondQuery(trigger=trigger, response=response, window=window)
        cmp = self.parse_cmp()
        probability = self.expect_number()
        if not 0.0 < probability < 1.0:
            raise PropertyRangeError(f"probability threshold must be in (0, 1), got {probability}")
        return CondQuery(
            trigger=trigger, response=response, window=window, cmp=cmp, probability=probability
        )

    def parse_event(self) -> EventPattern:
        kind_tok = self.expect_ident(*EVENT_KINDS)
        node, args = self.parse_call_args(kind_tok.text, _EVENT_ARGS[kind_tok.text])
        if kind_tok.text == SHIFT_EVENT:
            by = dict(args).get("by")
            if not isinstance(by, (int, float)) or by <= 0:
                raise PropertyRangeError(f"shift 'by' must be a positive number, got {by!r}")
        return EventPattern(kind=kind_tok.text, node=node, args=args)

    def parse_call_args(self, ctx: str, schema: dict[str, bool]) -> tuple[str, Args]:
        self.expect_punct("(")
        node = self.expect_ident().text
        args: list[tuple[str, ArgValue]] = []
        while self.cur.kind == "punct" and self.cur.text == ",":
            self.advance()
            key_tok = self.expect_ident()
            if key_tok.text not in schema:
                raise PropertySyntaxError(
                    f"{ctx} does not take argument {key_tok.text!r}",
                    self.text,
                    key_tok.pos,
                    tuple(schema),
                )
            if any(k == key_tok.text for k, _ in args):
                raise PropertySyntaxError(
                    f"duplicate argument {key_tok.text!r}", self.text, key_tok.pos
                )
            self.expect_punct("=")
            if self.cur.kind == "number":
                raw = self.advance().text
                value: ArgValue = int(raw) if re.fullmatch(r"-?\d+", raw) else float(raw)
            else:
                value = self.expect_ident().text
            args.append((key_tok.text, value))
        self.expect_punct(")")
        missing = [k for k, required in schema.items() if required and all(a != k for a, _ in args)]
        if missing:
            raise self.fail(f"{ctx} is missing required argument(s): {', '.join(missing)}")
        return node, tuple(args)

    def parse_cmp(self) -> str:
        if self.cur.kind == "punct" and self.cur.text in (">", "<"):
            return self.advance().text
        raise self.fail(f"expected '>' or '<', found {self.cur.text or 'end of input'!r}", (">", "<"))

    def parse_params(self) -> tuple[float | None, float]:
        F: float | None = None
        key = self.expect_ident("F", "C")
        if key.text == "F":
            self.expect_punct("=")
            F = self.expect_number()
            if not 0.0 < F < 1.0:
                raise PropertyRangeError(f"F must be in (0, 1), got {F}")
            key = self.expect_ident("C")
        self.expect_punct("=")
        C = self.expect_number()
        if not 0.5 < C < 1.0:
            raise PropertyRangeError(f"C must be in (0.5, 1), got {C}")
        return F, C


def parse_property(text: str) -> PropertyAst:
    """Parse property text; raises PropertySyntaxError / PropertyRangeError."""
    return _Parser(text).parse()


# --- canonical serialisation ---


def _fmt_value(v: ArgValue) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    return str(v)


def _fmt_call(name: str, node: str, args: Args) -> str:
    parts = [node] + [f"{k}={_fmt_value(v)}" for k, v in args]
    return f"{name}({', '.join(parts)})"


def _fmt_simple(q: MetricQuery | CondQuery) -> str:
    if isinstance(q, MetricQuery):
        base = _fmt_call(q.metric.name, q.metric.node, q.metric.args)
        if q.cmp is None:
            return base
        return f"{base} {q.cmp} {repr(q.threshold)}"
    trig = _fmt_call(q.trigger.kind, q.trigger.node, q.trigger.args)
    resp = _fmt_call(q.response.kind, q.response.node, q.response.args)
    w = str(q.window)
    base = f"prob[{trig} -> {resp} within {w}]"
    if q.cmp is None:
        return base
    return f"{base} {q.cmp} {repr(q.probability)}"


def property_to_text(ast: PropertyAst) -> str:
    """Canonical text form; reparsing it yields an equal AST."""
    if isinstance(ast.body, Implication):
        body = f"{_fmt_simple(ast.body.antecedent)} -> {_fmt_simple(ast.body.consequent)}"
    else:
        body = _fmt_simple(ast.body)
    params = f"C={repr(ast.C)}" if ast.F is None else f"F={repr(ast.F)} C={repr(ast.C)}"
    return f"{ast.mode} {body} @ {params}"
