"""Exception types shared across the package."""


class SpaqError(Exception):
    """Base class for all package errors."""


# --- statistics ---

class EmptySamplesError(SpaqError):
    """An estimator was given zero samples."""


class InsufficientDataError(SpaqError):
    """No rank pair can achieve the requested interval coverage."""


# --- graph ---

class GraphError(SpaqError):
    """Base class for graph construction/validation errors."""


class DuplicateIdError(GraphError):
    pass


class UnknownNodeError(GraphError):
    pass


class CycleError(GraphError):
    pass


class ConfigError(SpaqError, ValueError):
    """A graph config or a config override is malformed; the message
    names the entry's path. Also a ValueError, so callers that catch
    ValueError keep catching it."""


# --- traces ---

class SchemaError(SpaqError):
    """A trace line or header violates the trace schema."""


class ClockError(SpaqError):
    """Event timestamps within a run are not monotonically non-decreasing."""


# --- property DSL ---

class PropertySyntaxError(SpaqError):
    """Property text failed to parse.

    Carries the character position and the set of expected tokens so the
    CLI can print a caret diagnostic.
    """

    def __init__(self, message: str, text: str, pos: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.text = text
        self.pos = pos
        self.expected = expected

    def caret_diagnostic(self) -> str:
        """The line of ``text`` that holds ``pos``, a caret under it, and
        the message."""
        # the line's text before pos and from pos on; the "^" sentinel
        # makes a line break just before pos start an empty line
        before = (self.text[: self.pos] + "^").splitlines()[-1][:-1]
        after = (self.text[self.pos :].splitlines() or [""])[0]
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        # tabs expanded to 8-column stops, so the caret lines up in a terminal
        line, column = (before + after).expandtabs(), len(before.expandtabs())
        return f"{line}\n{' ' * column}^\n{self}{hint}"


class PropertyRangeError(SpaqError):
    """A value in a property is outside the range or set it allows."""


# --- extraction ---

class NoSamplesError(SpaqError):
    """Extraction produced zero samples for the requested metric."""


class UnknownParamError(SpaqError):
    """A referenced parameter never appears in the dataset."""
