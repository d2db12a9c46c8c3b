"""Exception types shared across the package.

Everything raised on purpose derives from :class:`SpiderBPError` so callers
can catch one base class. The CLI maps these onto its exit-code table.
"""


class SpiderBPError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(SpiderBPError):
    """Tensor/message dimensions do not line up."""


class ObjectMismatchError(SpiderBPError):
    """Messages over different objects were combined."""


class BadSplitError(SpiderBPError):
    """Row/column axis split is not a partition of the tensor's axes."""


class TooLargeError(SpiderBPError):
    """A tensor or enumeration exceeds the configured size cap."""


class CliqueTooLargeError(TooLargeError):
    """A junction-tree clique's state space exceeds the tensor size cap."""


class ZeroMessageError(SpiderBPError):
    """Normalization hit an all-zero aggregate (dead support).

    Carries the offending, unchanged message values in ``values`` so the
    caller still sees what was computed.
    """

    def __init__(self, message="cannot normalize a zero message", values=None):
        super().__init__(message)
        self.values = values


class ContradictionError(SpiderBPError):
    """A normalized message lost all support.

    Raised only by the per-wire reference rules of ``spiderbp.engine``; a run
    reports dead support on its state and result instead (``dead_wire``).
    """

    def __init__(self, wire, message=None):
        super().__init__(message or f"zero message on wire {wire}")
        self.wire = wire


class NotATreeError(SpiderBPError):
    """A tree-only operation was asked to run on a graph with cycles."""


class NoTotalOrderError(SpiderBPError):
    """The semiring has no total order, so argmax decoding is undefined."""


class ValidationError(SpiderBPError):
    """A graph or document failed structural validation.

    ``report`` holds the full :class:`~spiderbp.graph.ValidationReport`
    when one is available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(SpiderBPError):
    """Input text could not be parsed; message includes position info."""


class UnsupportedPreambleError(ParseError):
    """The network type named in a file preamble is not supported."""


class FormatWarning(UserWarning):
    """Non-fatal oddity found while reading or writing a file."""
