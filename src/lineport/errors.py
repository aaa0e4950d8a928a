"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: input errors (netlist parse errors among
them) exit 2, model/validation errors exit 3, violated numerical
preconditions exit 4.
"""


class LineportError(Exception):
    """Base class for all lineport errors."""


class InputError(LineportError):
    """Unreadable or malformed user input: a missing file, a bad value."""


class NetlistParseError(InputError):
    """Malformed netlist text. Carries the offending 1-based line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(LineportError):
    """A model invariant or input-value constraint is violated."""


class NumericalPreconditionError(LineportError):
    """A numerical precondition (echo window, contour placement, stability)
    does not hold; the message states the corrective action."""
