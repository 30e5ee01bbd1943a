"""Exception types shared across the package.

Every error raised intentionally by this package derives from
:class:`CoopZfError`, so callers can catch one base type.  The concrete
subclasses distinguish caller mistakes (bad parameters, violated
preconditions, unsupported inputs) from internal failures (a linear solve
that unexpectedly degenerates) and from deliberate resource guards on
exponential searches.  The JSON readers share one context manager that
reports a malformed document as an invalid parameter, one check of the
user indices they read, and one check of the JSON type of their other
fields.  Every numeric parameter passes one of two checks: integers,
each with its floor, through :func:`_check_int`, and reals through
:func:`_check_real`; the calls that take a topology, an assignment or a
scheme together check that they agree on ``K`` through one more,
:func:`_check_sizes`.  The calls that build or walk per-user tables share
one decorator that pauses the cyclic garbage collector while they run.
"""

from __future__ import annotations

from collections.abc import Iterable
import functools
import gc
import numbers
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
    """An exact search passed its node budget, ``node_limit``."""


class _document_errors:
    """Re-raise JSON syntax and document-shape errors as :class:`InvalidParameterError`.

    A class, not a generator under ``contextlib.contextmanager``: from
    Python 3.12 on, throwing the error into the generator leaves the
    error, its traceback and the frames between them in a reference
    cycle, which only the cyclic collector frees.
    """

    def __init__(self, kind: str):
        self.kind = kind

    def __enter__(self) -> None:
        pass

    def __exit__(self, _type, exc, _traceback) -> bool:
        if isinstance(exc, (ValueError, LookupError, TypeError, AttributeError, ArithmeticError)):
            raise InvalidParameterError(
                f"malformed {self.kind} document ({type(exc).__name__}: {exc})"
            ) from exc
        return False


def _collector_paused(fn):
    """``fn`` run with CPython's cyclic garbage collector paused.

    The calls decorated with this build or walk tables of ``K`` rows, and
    each row is a container the collector would scan, again and again,
    as the call allocates.  No call of this package makes a reference
    cycle (``tests/test_package.py`` pins that), so reference counting
    frees everything such a call allocates and those scans find nothing:
    pausing the collector changes no result, only when cyclic garbage
    made elsewhere is collected.  A collector that is already off is
    left off and the call runs straight through, so nested calls and
    callers that turned the collector off themselves keep their choice.

    Known limit: the state is process-wide, so another thread that turns
    the collector off while a paused call runs has it turned back on when
    the call returns, and one that turns it on ends the pause early.
    Mercurial's ``util.nogc`` makes the same trade.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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


def _check_sizes(**parts) -> int:
    """The ``K`` all of ``parts`` share; else ``InvalidParameterError("a and b sizes disagree")`` names them."""
    K, *others = {part.K for part in parts.values()}
    if others:
        *first, last = parts
        raise InvalidParameterError(f"{', '.join(first)} and {last} sizes disagree")
    return K


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


def _check_int(name: str, value, least: int | None = None) -> int:
    """``value`` as a plain ``int``, for an integer parameter called ``name``.

    A ``bool`` is refused, and so is any value that is not an integer
    type (``7.0`` and ``Fraction(7)`` included), so a caller's mistake
    never reaches arithmetic that fails with a bare ``TypeError``.

    Raises:
        InvalidParameterError: naming the parameter and the type given,
            or the floor when ``least`` is given and ``value`` is below it.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidParameterError(f"{name} must be an integer, not {type(value).__name__}")
    value = operator.index(value)
    if least is not None and value < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {value}")
    return value


def _check_real(name: str, value):
    """``value`` unchanged, unless it is a ``bool`` or not a :class:`numbers.Real`; callers check the range.

    Raises:
        InvalidParameterError: naming the parameter and the type given.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a real number, not {type(value).__name__}")
    return value
