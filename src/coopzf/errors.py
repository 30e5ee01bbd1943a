"""Exception types shared across the package.

Every error raised intentionally by this package derives from
:class:`CoopZfError`, so callers can catch one base type.  The concrete
subclasses distinguish caller mistakes (bad parameters, violated
preconditions, unsupported inputs) from internal failures (a linear solve
that unexpectedly degenerates) and from deliberate resource guards on
exponential searches.  The JSON readers share one context manager that
reports a malformed document as an invalid parameter, one check of the
user indices they read, and one check of the JSON type of their other
fields.  Integer parameters of the generators and topology builders pass
one check too.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import contextmanager
import operator


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


def _check_users(kind: str, K, users: Iterable) -> None:
    """Reject a document unless ``K`` and every one of ``users`` is a user of it.

    A user is a plain ``int``, not a ``bool``, in ``1..K``; ``K`` must be
    one too, so a document has at least one user.  Each value is compared
    with the bounds only, so a document claiming a huge ``K`` costs
    nothing here.  Values are checked as parsed, before any set merges
    ``true`` or ``2.0`` into an equal ``int``.

    Raises:
        InvalidParameterError: naming the first value that is not a user.
    """
    if type(K) is not int or K < 1:
        raise InvalidParameterError(f"malformed {kind} document (K={K!r} is not a positive int)")
    for u in users:
        if type(u) is not int or not 1 <= u <= K:
            raise InvalidParameterError(
                f"malformed {kind} document (user {u!r} is not an int or lies outside 1..{K})"
            )


def _check_fields(kind: str, obj: dict, /, **types: type) -> None:
    """Reject a document whose named fields, where present, are not of the given types.

    Only the types are named in the message, so a huge value costs nothing
    to report.  A missing field is left to the reader's own lookup.

    Raises:
        InvalidParameterError: naming the first field of another type.
    """
    for name, expected in types.items():
        if name in obj and not isinstance(obj[name], expected):
            raise InvalidParameterError(
                f"malformed {kind} document ({name} is a {type(obj[name]).__name__}, not a {expected.__name__})"
            )


def _check_int(name: str, value) -> int:
    """``value`` as a plain ``int``, for an integer parameter called ``name``.

    A ``bool`` is refused, and so is any value that is not an integer
    type (``7.0`` and ``Fraction(7)`` included), so a caller's mistake
    never reaches arithmetic that fails with a bare ``TypeError``.

    Raises:
        InvalidParameterError: naming the parameter and the type given.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameterError(f"{name} must be an integer, not {type(value).__name__}")
