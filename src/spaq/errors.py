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
        line = self.text.splitlines()[0] if self.text else ""
        caret = " " * self.pos + "^"
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{line}\n{caret}\n{self}{hint}"


class PropertyRangeError(SpaqError):
    """A numeric parameter in a property is outside its legal range."""


class UnsupportedPropertyError(SpaqError):
    """The property parsed but its evaluation is not defined."""


# --- extraction ---

class NoSamplesError(SpaqError):
    """Extraction produced zero samples for the requested metric."""


class UnknownParamError(SpaqError):
    """A referenced parameter never appears in the dataset."""
