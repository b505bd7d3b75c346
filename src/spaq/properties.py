"""Property language for statistical queries over trace datasets.

Grammar::

    property  := "ci" metric "@" params
               | "test" metric cmp number "@" params
               | "test" prob cmp number "@" "C=" float
    metric    := name "(" node ("," key "=" value)* ")"
    prob      := "prob" "[" event "->" event "within" window "]"
    event     := ("fail" | "calibrate" | "shift") "(" node ("," key "=" value)* ")"
    window    := integer | "next_check"
    params    := ("F=" float)? "C=" float
    cmp       := ">" | "<"

``F`` must lie in (0, 1) and ``C`` in (0.5, 1); a prob test has no
``F``, since its threshold is the probability. In ``ci`` mode the
comparator and number are omitted (the bound is what gets computed).

Each metric and event takes the keyword arguments that its row of
``_METRIC_ARGS`` or ``_EVENT_ARGS`` lists, with their allowed values
and defaults. A ``MetricRef`` or ``EventPattern`` checks itself against
that row when it is built, whether by the parser or directly: an
unknown name or key, a repeated key or a missing required argument
raises PropertySyntaxError, and a value the argument does not allow
raises PropertyRangeError, as does any other value out of range.

Examples::

    test ttf(x_gate) > 120 @ F=0.8 C=0.9
    ci ttf(x_gate, anchor=calibration) @ F=0.05 C=0.95
    test prob[shift(a, param=param_A, by=0.10) -> fail(b) within next_check] > 0.33 @ C=0.95
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import PropertyRangeError, PropertySyntaxError
from .trace import CALIBRATE, CHECK_DATA

TEST = "test"
CI = "ci"

FAIL_EVENT = "fail"
CALIBRATE_EVENT = "calibrate"
SHIFT_EVENT = "shift"

NEXT_CHECK = "next_check"

TTF = "ttf"
FAILURES = "failures"
PARAM = "param"
TIME_BETWEEN = "time_between"
PCT_TIME = "pct_time"

ArgValue = str | float | int
Args = tuple[tuple[str, ArgValue], ...]

# The argument table: key -> (allowed values, default), where a default
# of None marks a required argument. Allowed values are a tuple of names,
# or a type: int for a positive integer, float for a positive number,
# str for a name.
_KINDS = {int: "a positive integer", float: "a positive number", str: "a name"}
_METRIC_ARGS: dict[str, dict[str, tuple]] = {
    TTF: {
        "anchor": (("verification", "calibration"), "verification"),
        "oracle": (("true", "false"), "false"),
    },
    FAILURES: {"window": (int, None)},
    PARAM: {"name": (str, None), "when": (("before", "after"), "after")},
    TIME_BETWEEN: {"event": ((CALIBRATE_EVENT, FAIL_EVENT), None)},
    PCT_TIME: {"op": ((CHECK_DATA, CALIBRATE), None)},
}
_EVENT_ARGS: dict[str, dict[str, tuple]] = {
    FAIL_EVENT: {},
    CALIBRATE_EVENT: {},
    SHIFT_EVENT: {"param": (str, None), "by": (float, None)},
}


def _allows(allowed, value) -> bool:
    if isinstance(allowed, tuple):
        return value in allowed
    if allowed is str:
        return type(value) is str
    # int admits only ints; float admits ints and finite floats (bool is neither)
    return type(value) in (int, allowed) and 0 < value < math.inf


def _check_call(table, what: str, name: str, node: str, args: Args, text=None, at=()) -> None:
    """Check a metric or event call against its row of the argument table.

    A name or key error raises PropertySyntaxError with the caret at
    ``at[i]`` in ``text``: item 0 is the name, item i the i-th argument
    and the last item the closing parenthesis. Without ``text`` the
    caret points into the call's canonical text. A value the argument
    does not allow raises PropertyRangeError.
    """

    def syntax_error(i: int, message: str, expected: tuple[str, ...] = ()) -> PropertySyntaxError:
        where, pos = (text, at) if text is not None else _call_text(name, node, args)
        return PropertySyntaxError(message, where, pos[i], expected)

    row = table.get(name)
    if row is None:
        raise syntax_error(0, f"unknown {what} {name!r}", tuple(table))
    given: set[str] = set()
    for i, (key, value) in enumerate(args, 1):
        if key not in row:
            raise syntax_error(i, f"{name} does not take argument {key!r}", tuple(row))
        if key in given:
            raise syntax_error(i, f"duplicate argument {key!r}")
        given.add(key)
        allowed = row[key][0]
        if not _allows(allowed, value):
            must = _KINDS.get(allowed) or " or ".join(allowed)
            raise PropertyRangeError(f"{name} argument {key!r} must be {must}, got {value!r}")
    missing = [k for k, (_, default) in row.items() if default is None and k not in given]
    if missing:
        raise syntax_error(-1, f"{name} is missing required argument(s): {', '.join(missing)}")


def _arg(row: dict, args: Args, key: str) -> ArgValue:
    for k, v in args:
        if k == key:
            return v
    return row[key][1]


@dataclass(frozen=True)
class MetricRef:
    name: str
    node: str
    args: Args = ()

    def __post_init__(self) -> None:
        _check_call(_METRIC_ARGS, "metric", self.name, self.node, self.args)

    def arg(self, key: str) -> ArgValue:
        """The argument's value, or its default from the table."""
        return _arg(_METRIC_ARGS[self.name], self.args, key)


@dataclass(frozen=True)
class EventPattern:
    kind: str
    node: str
    args: Args = ()

    def __post_init__(self) -> None:
        _check_call(_EVENT_ARGS, "event", self.kind, self.node, self.args)

    def arg(self, key: str) -> ArgValue:
        """The argument's value, or its default from the table."""
        return _arg(_EVENT_ARGS[self.kind], self.args, key)


_CMPS = (">", "<")


def _check_open(name: str, value, lo: float, hi: float) -> None:
    """PropertyRangeError unless ``value`` is a number in (lo, hi)."""
    if type(value) not in (int, float) or not lo < value < hi:
        raise PropertyRangeError(f"{name} must be in ({lo:g}, {hi:g}), got {value}")


def _check_comparison(cmp, number, head) -> None:
    """A query's comparator and number, both or neither. ``head()`` gives
    the query's canonical text before them, for the caret of an error."""
    if (cmp is None and number is None) or (cmp in _CMPS and type(number) in (int, float)):
        return
    head = head()
    text = f"{head} {cmp} {number!r}"
    if cmp not in _CMPS:
        raise PropertySyntaxError(f"expected '>' or '<', found {cmp!r}", text, len(head) + 1, _CMPS)
    raise PropertySyntaxError(f"expected a number, found {number!r}", text, len(head) + 3, ("number",))


@dataclass(frozen=True)
class MetricQuery:
    """A metric, and in a test the comparator and threshold its samples
    are compared with. Checks itself when built."""

    metric: MetricRef
    cmp: str | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.metric, MetricRef):
            raise PropertySyntaxError(f"expected a metric, found {self.metric!r}", repr(self.metric), 0)
        _check_comparison(self.cmp, self.threshold, lambda: _fmt_call(self.metric.name, self.metric.node, self.metric.args))
        if self.threshold is not None and not -math.inf < self.threshold < math.inf:
            raise PropertyRangeError(f"threshold must be finite, got {self.threshold}")


@dataclass(frozen=True)
class CondQuery:
    """A trigger -> response query, and in a test the comparator and
    probability threshold. Checks itself when built."""

    trigger: EventPattern
    response: EventPattern
    window: int | str = NEXT_CHECK
    cmp: str | None = None
    probability: float | None = None

    def __post_init__(self) -> None:
        for pattern in (self.trigger, self.response):
            if not isinstance(pattern, EventPattern):
                raise PropertySyntaxError(f"expected an event, found {pattern!r}", repr(pattern), 0)
        if self.window != NEXT_CHECK and type(self.window) is not int:
            head = self._head()
            raise PropertySyntaxError("window must be a positive integer", f"{head}{self.window!r}]", len(head))
        if self.window != NEXT_CHECK and self.window < 1:
            raise PropertyRangeError(f"window must be >= 1, got {self.window}")
        _check_comparison(self.cmp, self.probability, lambda: f"{self._head()}{self.window}]")
        if self.probability is not None:
            _check_open("probability threshold", self.probability, 0.0, 1.0)

    def _head(self) -> str:
        """The query's canonical text up to its window."""
        trigger, response = self.trigger, self.response
        return (f"prob[{_fmt_call(trigger.kind, trigger.node, trigger.args)} -> "
                f"{_fmt_call(response.kind, response.node, response.args)} within ")


Body = MetricQuery | CondQuery


@dataclass(frozen=True)
class PropertyAst:
    """A whole property. Checks itself when built, with the parser's own
    errors: a ci takes a metric and no comparator, a test takes a
    comparator, ``F`` belongs to metric properties, and ``F`` and ``C``
    lie in their ranges."""

    mode: str
    body: Body
    C: float
    F: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in (TEST, CI):
            raise PropertySyntaxError(f"expected 'test' or 'ci', found {self.mode!r}", repr(self.mode), 0, (TEST, CI))
        if not isinstance(self.body, (MetricQuery, CondQuery)):
            raise PropertySyntaxError(f"expected a metric or a prob[...], found {self.body!r}", repr(self.body), 0)
        if self.F is not None:
            _check_open("F", self.F, 0.0, 1.0)
        _check_open("C", self.C, 0.5, 1.0)
        cond, cmp = isinstance(self.body, CondQuery), self.body.cmp
        if self.mode == CI and cond:
            raise self._refuse("ci takes a metric; compare a prob[...] in a test instead", "prob", tuple(_METRIC_ARGS))
        if self.mode == CI and cmp is not None:
            raise self._refuse("ci takes no comparator: the bound is what it computes", f" {cmp} ", (), 1)
        if self.mode == TEST and cmp is None:
            raise self._refuse("expected '>' or '<', found '@'", " @ ", _CMPS, 1)
        if cond and self.F is not None:
            raise self._refuse(_F_ON_PROB, "F=", ("C",))

    def _refuse(self, message: str, at: str, expected: tuple[str, ...], skip: int = 0) -> PropertySyntaxError:
        """A syntax error with the caret ``skip`` characters after the first
        ``at`` in the property's canonical text."""
        text = property_to_text(self)
        return PropertySyntaxError(message, text, text.index(at) + skip, expected)


_F_ON_PROB = "F= belongs to metric properties; a prob test's threshold is its probability"


# --- tokens and parser ---

# Every character falls in some match: whitespace before a token is
# skipped, and any other character the grammar has no token for is "bad".
_TOKEN_RE = re.compile(
    r"""\s*(?:
    (?P<arrow>->)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\],=@><])
  | (?P<bad>\S)
    )""",
    re.VERBOSE,
)

# what an ``expect`` of a kind with any text reports it wanted
_ANY = {"ident": ("a name", ()), "number": ("a number", ("number",))}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in _TOKEN_RE.finditer(text)]
        self.tokens.append(("end", "", len(text)))
        self.i = 0
        for kind, tok, pos in self.tokens:
            if kind == "bad":
                raise PropertySyntaxError(f"unexpected character {tok!r}", text, pos)

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> PropertySyntaxError:
        return PropertySyntaxError(message, self.text, self.tokens[self.i][2], expected)

    def at(self, kind: str, *texts: str) -> bool:
        """Whether the next token is a ``kind`` token with one of ``texts``
        (with any text when none are given)."""
        tok_kind, tok, _ = self.tokens[self.i]
        return tok_kind == kind and (not texts or tok in texts)

    def expect(self, kind: str, *texts: str) -> tuple[str, int]:
        """Take the next token, which must be as ``at`` says; its text and
        position."""
        _, tok, pos = self.tokens[self.i]
        if self.at(kind, *texts):
            self.i += 1
            return tok, pos
        what, expected = (" or ".join(map(repr, texts)), texts) if texts else _ANY[kind]
        raise self.fail(f"expected {what}, found {tok or 'end of input'!r}", expected)

    def number(self, ints: bool = False) -> float | int:
        """Take a number token: an int if ``ints`` and it is written as one,
        else a float."""
        tok, _ = self.expect("number")
        if not (ints and tok.lstrip("-").isdigit()):
            return float(tok)
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise PropertyRangeError(f"integer {tok[:12]}... is too long ({len(tok)} characters)") from None

    def cmp(self) -> str:
        return self.expect("punct", *_CMPS)[0]

    # --- grammar ---

    def parse(self) -> PropertyAst:
        mode, _ = self.expect("ident", TEST, CI)
        body: Body
        if self.at("ident", "prob"):
            if mode == CI:
                raise self.fail("ci takes a metric; compare a prob[...] in a test instead", tuple(_METRIC_ARGS))
            body = self.parse_cond()
        else:
            metric = self.parse_call(MetricRef, _METRIC_ARGS, "metric")
            # ci mode carries no comparator/threshold: the bound is what gets computed
            body = MetricQuery(metric) if mode == CI else MetricQuery(metric, self.cmp(), self.number())
        self.expect("punct", "@")
        F: float | None = None
        key, pos = self.expect("ident", "F", "C")
        if key == "F":
            if isinstance(body, CondQuery):
                raise PropertySyntaxError(_F_ON_PROB, self.text, pos, ("C",))
            self.expect("punct", "=")
            F = self.number()
            self.expect("ident", "C")
        self.expect("punct", "=")
        C = self.number()
        if not self.at("end"):
            raise self.fail(f"trailing input {self.tokens[self.i][1]!r}")
        return PropertyAst(mode=mode, body=body, C=C, F=F)

    def parse_cond(self) -> CondQuery:
        self.expect("ident", "prob")
        self.expect("punct", "[")
        trigger = self.parse_call(EventPattern, _EVENT_ARGS, "event")
        if not self.at("arrow"):
            raise self.fail("expected '->' between trigger and response", ("->",))
        self.i += 1
        response = self.parse_call(EventPattern, _EVENT_ARGS, "event")
        self.expect("ident", "within")
        window: int | str = NEXT_CHECK
        if self.at("number"):
            _, tok, pos = self.tokens[self.i]
            if not tok.isdigit():
                raise PropertySyntaxError("window must be a positive integer", self.text, pos)
            window = self.number(ints=True)
        else:
            self.expect("ident", NEXT_CHECK)
        self.expect("punct", "]")
        return CondQuery(trigger, response, window, self.cmp(), self.number())

    def parse_call(self, cls, table, what: str):
        """``name(node, key=value, ...)`` built as a ``cls``, which checks
        it against ``table``."""
        name, name_pos = self.expect("ident")
        self.expect("punct", "(")
        node, _ = self.expect("ident")
        pairs: list[tuple[str, ArgValue]] = []
        at = [name_pos]
        while self.at("punct", ","):
            self.i += 1
            key, pos = self.expect("ident")
            self.expect("punct", "=")
            pairs.append((key, self.number(ints=True) if self.at("number") else self.expect("ident")[0]))
            at.append(pos)
        at.append(self.expect("punct", ")")[1])
        args = tuple(pairs)
        try:
            return cls(name, node, args)
        except PropertySyntaxError:
            # the same check again raises with the caret in the property text
            _check_call(table, what, name, node, args, self.text, at)
            raise


def parse_property(text: str) -> PropertyAst:
    """Parse property text; raises PropertySyntaxError / PropertyRangeError."""
    return _Parser(text).parse()


# --- canonical serialisation ---


def _fmt_value(v: ArgValue) -> str:
    return repr(v) if isinstance(v, (int, float)) else str(v)


def _fmt_call(name: str, node: str, args: Args) -> str:
    parts = [node] + [f"{k}={_fmt_value(v)}" for k, v in args]
    return f"{name}({', '.join(parts)})"


def _call_text(name: str, node: str, args: Args) -> tuple[str, list[int]]:
    """A call's canonical text, and where its name, each argument and its
    closing parenthesis start in it."""
    at, pos = [0], len(name) + 1 + len(node)
    for k, v in args:
        at.append(pos + 2)
        pos += 2 + len(f"{k}={_fmt_value(v)}")
    return _fmt_call(name, node, args), at + [pos]


def _fmt_body(q: Body) -> str:
    if isinstance(q, MetricQuery):
        base = _fmt_call(q.metric.name, q.metric.node, q.metric.args)
        if q.cmp is None:
            return base
        return f"{base} {q.cmp} {repr(q.threshold)}"
    return f"{q._head()}{q.window}] {q.cmp} {repr(q.probability)}"


def property_to_text(ast: PropertyAst) -> str:
    """Canonical text form; reparsing it yields an equal AST."""
    params = f"C={repr(ast.C)}" if ast.F is None else f"F={repr(ast.F)} C={repr(ast.C)}"
    return f"{ast.mode} {_fmt_body(ast.body)} @ {params}"
