"""Exception hierarchy shared by the whole package.

Each class's ``exit_code`` is the status the CLI exits with when a command
raises it; the attributes below are the only record of that mapping.
"""


class LineportError(Exception):
    """Base class for all lineport errors."""

    exit_code = 3


class InputError(LineportError):
    """Unreadable or malformed user input: a missing file, a bad value."""

    exit_code = 2


class NetlistParseError(InputError):
    """Malformed netlist text. Carries the offending 1-based line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(LineportError):
    """A model invariant or input-value constraint is violated."""

    exit_code = 3


class NumericalPreconditionError(LineportError):
    """A numerical precondition (echo window, contour placement, stability)
    does not hold; the message states the corrective action."""

    exit_code = 4
