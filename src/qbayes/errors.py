"""Exception types shared across the library.

InternalInconsistency is special: it signals a numerical violation of an
equivalence that is a proven theorem. It is a bug alarm, not a mathematical
"no" verdict, and the CLI maps it to a dedicated exit code.
"""

from typing import Optional


class QBayesError(Exception):
    """Base class for all library errors."""


class NotHermitian(QBayesError):
    """Input matrix is not Hermitian within tolerance; block is the index of
    the state's block whose density it is, if any."""

    def __init__(self, message: str, block: Optional[int] = None):
        super().__init__(message)
        self.block = block


class NoConvergence(QBayesError):
    """Eigensolver exhausted its iteration budget."""


class NegativeEigenvalue(QBayesError):
    """PSD-only functional calculus hit a genuinely negative eigenvalue; block
    is the index of the state's block whose density holds it, if any."""

    def __init__(self, message: str, block: Optional[int] = None):
        super().__init__(message)
        self.block = block


class ShapeMismatch(QBayesError):
    """Element, state, channel or matrix shapes do not match their algebra,
    or do not factor as required."""


class NotCP(QBayesError):
    """Operation requires a completely positive map and the input is not."""


class InternalInconsistency(QBayesError):
    """Numerical violation of a mathematically proven equivalence."""


class ExtensionFailure(QBayesError):
    """A constructed off-support extension failed its own verification."""


class InvalidCertificate(QBayesError):
    """A factorization certificate does not pass its residual checks."""


class ParseError(QBayesError):
    """Malformed JSON input."""


class SchemaError(QBayesError):
    """JSON is well-formed but violates a schema; names the offending field."""
