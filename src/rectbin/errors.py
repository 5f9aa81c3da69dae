"""Shared exception types."""


class RectbinError(Exception):
    """Base class for all package errors."""


class GuessFailed(RectbinError):
    """A packing routine ran under an optimistic guess that turned out wrong.

    Raised when a step that is guaranteed to succeed for a correct guess
    (for example "this instance fits in one bin") fails its runtime check.
    Callers treat this as "try the next guess", never as a crash.
    """


class PreconditionViolated(RectbinError):
    """A caller invoked an operation without establishing its precondition.

    Raised as this class itself, it is a caller bug that the solvers let
    through; its subclass ConditionViolated is a failed guess instead.
    """


class ConditionViolated(PreconditionViolated, GuessFailed):
    """A packer's sufficient condition does not hold for its input.

    A correct guess only hands packers input that meets their conditions,
    so the solvers treat this as any other GuessFailed.
    """


class PackingStuck(RectbinError):
    """A constructive packing routine could not finish despite its guarantee.

    This signals a bug in the construction, not a property of the input;
    it exists so failures surface as loud errors instead of bad layouts.
    """


class InstanceTooLarge(RectbinError):
    """An exact enumeration was requested beyond its configured size limit."""


class ParseError(RectbinError):
    """A text file does not conform to the instance or packing format."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")
