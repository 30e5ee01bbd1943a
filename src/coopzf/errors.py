"""Exception types shared across the package.

Every error raised intentionally by this package derives from
:class:`CoopZfError`, so callers can catch one base type.  The concrete
subclasses distinguish caller mistakes (bad parameters, violated
preconditions, unsupported inputs) from internal failures (a linear solve
that unexpectedly degenerates, a decomposition search that comes up empty)
and from deliberate resource guards on exponential searches.  The JSON
readers share one context manager that reports a malformed document as
an invalid parameter.
"""

from __future__ import annotations

from contextlib import contextmanager


class CoopZfError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(CoopZfError):
    """A parameter is outside the domain an operation supports."""


class PreconditionViolationError(CoopZfError):
    """An input object fails a documented structural precondition."""


class UnsupportedError(CoopZfError):
    """The request is well-formed but outside what is implemented."""


class SolverFailureError(CoopZfError):
    """A numeric solve degenerated (singular system, no solution)."""


class DecompositionFailureError(CoopZfError):
    """A structural decomposition search found no valid result."""


class ResourceLimitError(CoopZfError):
    """An exact search exceeded its node or time budget."""


@contextmanager
def _document_errors(kind: str):
    """Re-raise JSON syntax and document-shape errors as :class:`InvalidParameterError`."""
    try:
        yield
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise InvalidParameterError(
            f"malformed {kind} document ({type(exc).__name__}: {exc})"
        ) from exc
