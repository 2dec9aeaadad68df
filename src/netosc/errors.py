"""Exception hierarchy.

Two families matter to callers: ``DataError`` (malformed or unusable input)
and ``NumericError`` (a computation that cannot proceed or has left its
domain of validity).  The CLI maps them to exit codes 2 and 3.
"""


class NetoscError(Exception):
    """Base class for all package errors."""


class DataError(NetoscError):
    """Input data is malformed, empty, or out of contract."""


class NumericError(NetoscError):
    """A numeric procedure failed or left its domain of validity."""


# --- data errors -----------------------------------------------------------

class InvalidGraph(DataError):
    """Graph violates its invariants (self-loop, duplicate edge, bad weight)."""


class ParseError(DataError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EmptyInput(DataError):
    pass


class TooShort(DataError):
    pass


class AllZero(DataError):
    pass


class WindowTooLarge(DataError):
    pass


class BadCutoff(DataError):
    pass


class OutOfRange(DataError):
    pass


class NoOverlap(DataError):
    pass


class ZeroAnchor(DataError):
    pass


class Disconnected(DataError):
    """The zero eigenvalue of the Laplacian is not simple, as a disconnected
    graph's is not (left_null_vector's SVD nullity test, or its null vector's
    residual), or a node is unreachable from another along directed edges
    (betweenness_weights' BFS)."""


# --- numeric errors --------------------------------------------------------

class NotSymmetrizableError(NumericError):
    """An operation requiring a symmetrizable graph was given one that is not.

    check_symmetrizable also sets ``reason`` ("nonpositive_mass" or
    "detailed_balance"), ``pair`` (the offending node, or node pair) and
    ``detail``; the message is then f"{reason}: {detail}".
    """

    def __init__(self, message, reason=None, pair=None, detail=None):
        super().__init__(message)
        self.reason = reason
        self.pair = pair
        self.detail = detail


class DefectiveMatrix(NumericError):
    """Eigenvector basis numerically dependent; mode expansion invalid."""

    def __init__(self, message, basis_condition=None):
        super().__init__(message)
        self.basis_condition = basis_condition


class ComplexSpectrum(NumericError):
    """Operation requires a real spectrum but non-real eigenvalues are present."""


class BadBracket(NumericError):
    """Transition bracket is empty or not finite, has tol <= 0 or a non-finite
    tol, or is non-real at lo."""


class NoTransition(NumericError):
    """The transition search found a real spectrum at every point up to hi."""


class Unstable(NumericError):
    """Numeric trajectory exceeded the divergence cutoff."""

    def __init__(self, message, t_diverge=None):
        super().__init__(message)
        self.t_diverge = t_diverge
