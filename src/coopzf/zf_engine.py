"""Numerical zero-forcing engine.

Samples generic complex channel coefficients on a topology's support,
solves for per-message beam coefficients that null each message at its
cancellation receivers, and verifies — numerically, against a concrete
realization — that every active receiver sees its own message clearly
and no residual interference.  Noise is never simulated: the
degrees-of-freedom count is a pure coefficient property.

The channel draw takes all its normals in one call and reads them as one
array of complex gains.  Beam design finishes each message's beam before
it starts the next, and depends only on the set of the message's
cancellation receivers: it solves one coefficient at a time where it
can (one peel, :func:`_peel`), reads the beam's support off the matching that decides
deliverability where it cannot, and finishes the cyclic rest with one
dense solve.  Verification scatters each beam over the active receivers
that hear it, reading each transmitter's gains once, so its cost is
linear in ``sum |T_i| * degree``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
from typing import TYPE_CHECKING

from ._rank import _mask, _support_matching
from .assignment import MessageAssignment
from .errors import InvalidParameterError, SolverFailureError, _check_int, _check_real, _check_sizes, _collector_paused
from .schemes import ZfScheme
from .topology import NetworkTopology

if TYPE_CHECKING:
    import numpy as np

_MAGNITUDE_FLOOR = 1e-6
_DEFAULT_TOL = 1e-8


@dataclass
class ChannelRealization:
    """Complex channel coefficients on the hearing support.

    Attributes:
        coefficients: map ``(receiver, transmitter) -> complex gain``,
            defined exactly for ``transmitter in hears(receiver)``; no
            stored gain has magnitude below 1e-6 (resampled).
        seed: the RNG seed that produced the draw.
    """

    coefficients: dict[tuple[int, int], complex]
    seed: int

    def gain(self, receiver: int, transmitter: int) -> complex:
        """Coefficient from ``transmitter`` at ``receiver`` (0 outside support)."""
        return self.coefficients.get((receiver, transmitter), 0j)


@dataclass
class BeamDesign:
    """Per-message beam coefficient vectors over the transmit sets."""

    beams: dict[int, dict[int, complex]]


@dataclass
class VerificationReport:
    """Outcome of a numerical interference-free delivery check.

    Attributes:
        passed: True iff every active receiver's desired coefficient
            magnitude exceeds the floor and every cross coefficient is
            below ``tol`` relative to the desired magnitude.
        dof: number of active messages.
        max_residual: worst interference-to-desired magnitude ratio.
        per_receiver: one row per active receiver with its desired
            magnitude and largest absolute interference coefficient.
    """

    passed: bool
    dof: int
    max_residual: float
    per_receiver: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The JSON object form; :meth:`to_json` encodes it."""
        return {
            "pass": self.passed,
            "dof": self.dof,
            "max_residual": self.max_residual,
            "per_receiver": self.per_receiver,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _normal_stream(normals: np.ndarray, rng: np.random.Generator):
    """The rest of a batch of normals, then further pairs from the same generator."""
    yield from normals
    while True:
        yield from rng.standard_normal(2)


@_collector_paused
def sample_channels(topology: NetworkTopology, seed: int) -> ChannelRealization:
    """Draw i.i.d. standard circular complex gains on the hearing support.

    Deterministic given ``seed``; receivers are visited in ascending
    order and their heard transmitters in ascending order, each gain
    taking the next (real, imaginary) pair of one normal stream.  The
    ``2 * sum |hears(k)|`` normals the support needs come from a single
    batched draw, scaled and read as complex gains in one array.  A gain
    with magnitude below 1e-6 is redrawn from the following pair, so no
    stored gain is degenerate: from the first such gain on, the draw
    continues pair by pair (the rest of the batch, then fresh pairs from
    the same generator), exactly as a per-gain loop would.  Cost is
    linear in the support size.

    Raises:
        InvalidParameterError: ``seed`` is not an integer (a ``bool``
            included), or is negative.
    """
    seed = _check_int("seed", seed, 0)
    import numpy as np  # here, so that importing coopzf leaves numpy unloaded

    rng = np.random.default_rng(seed)
    keys = [(i, t) for i in range(1, topology.K + 1) for t in sorted(topology.hears[i])]
    scale = np.sqrt(2)
    normals = rng.standard_normal(2 * len(keys))
    gains = (normals / scale).view(np.complex128)
    low = np.flatnonzero(np.abs(gains) < _MAGNITUDE_FLOOR)
    cut = int(low[0]) if low.size else len(keys)
    coefficients = dict(zip(keys, gains[:cut].tolist()))
    stream = _normal_stream(normals[2 * cut + 2 :], rng)
    for key in keys[cut:]:
        h = 0j
        while abs(h) < _MAGNITUDE_FLOOR:
            h = complex(next(stream), next(stream)) / scale
        coefficients[key] = h
    return ChannelRealization(coefficients=coefficients, seed=seed)


def _peel(
    gains: dict[tuple[int, int], complex],
    hears: dict[int, frozenset[int]],
    message: int,
    members: frozenset[int],
    v: dict[int, complex],
    rows: list[int],
) -> list[int]:
    """Set in ``v`` each coefficient that one row of ``rows`` determines; return the rows left.

    A row ``c`` with one coefficient ``u`` of ``members`` heard at ``c``
    and not yet in ``v`` sets ``v[u] = -sum(H[c,t] * v[t]) / H[c,u]``,
    summed from int 0 over the other heard ``t`` ascending (the pinned
    beam bits depend on this order).  A row is sorted only when it sets
    a coefficient.  The first pass takes ``rows`` in the given order and
    later passes alternate direction over the rows left, so a chain peels
    in two passes whichever way it runs; peeling stops when a pass sets
    nothing.  A row left has no unset coefficient or several.

    Raises:
        SolverFailureError: the pivot gain ``H[c,u]`` is zero.
    """
    while True:
        left = []
        for c in rows:
            involved = hears[c] & members
            u = None
            for t in involved:
                if t not in v:
                    if u is not None:  # a second unset coefficient
                        u = None
                        break
                    u = t
            if u is None:
                left.append(c)
                continue
            h_u = gains.get((c, u), 0j)
            if h_u == 0:
                raise SolverFailureError(f"cancellation system for message {message} is singular")
            acc = 0
            for t in sorted(involved):
                if t != u:
                    acc += gains.get((c, t), 0j) * v[t]
            v[u] = -acc / h_u
        if not left or len(left) == len(rows):
            return left
        rows = left[::-1]


def _support(
    gains: dict[tuple[int, int], complex],
    hears: dict[int, frozenset[int]],
    message: int,
    members: frozenset[int],
    serving: int,
    cancel: tuple[int, ...],
) -> dict[int, complex]:
    """A message's beam over its transmit set ``members``, designed start to finish.

    The serving coefficient is pinned to 1 and the cancellation rows,
    ascending, are peeled (:func:`_peel`).  If none are left, the
    coefficients still unset are 0, appended in ascending order; a beam
    the peel fills sorts nothing.  Otherwise the support is read off the
    matching that decides generic deliverability
    (:func:`coopzf._rank._deliverable`): the desired row's column is
    pinned to 1, unmatched columns are 0, unmatched rows are dropped
    (generically in the span of the matched ones), and the rest is
    peeled again.  Rows still left form a square system with a perfect
    matching, which :func:`_solve_cyclic` finishes.  Each coefficient is
    set by the one row that can set it, so only the sorted set of
    ``cancel`` matters.

    Raises:
        InvalidParameterError: ``serving`` is outside ``members``.
        SolverFailureError: the desired row is unmatched (the message is
            not deliverable), a pivot gain is zero, or the square system
            is singular.
    """
    if serving not in members:
        raise InvalidParameterError(
            f"serving transmitter {serving} of message {message} is outside its transmit set {sorted(members)}"
        )
    rows = sorted(cancel)
    v = {serving: 1.0 + 0j}
    if not _peel(gains, hears, message, members, v, rows):
        if len(v) < len(members):
            for t in sorted(members):
                v.setdefault(t, 0j)
        return v
    T = sorted(members)
    crows = [_mask(hears[c] & members) for c in rows]
    match = _support_matching(_mask(hears[message] & members), crows)
    if len(rows) not in match.values():
        raise SolverFailureError(f"cancellation system for message {message} is singular")
    v = {t: 1.0 + 0j for t, r in match.items() if r == len(rows)}
    v.update((t, 0j) for t in T if t not in match)
    rows = _peel(gains, hears, message, members, v, [rows[r] for r in sorted(match.values())[:-1]])
    if rows:
        _solve_cyclic(gains, message, v, [t for t in T if t not in v], rows)
    return v


def _solve_cyclic(
    gains: dict[tuple[int, int], complex],
    message: int,
    v: dict[int, complex],
    columns: list[int],
    rows: list[int],
) -> None:
    """Append to beam ``v`` its unset ``columns``, solved densely from as many peeled-out ``rows``.

    Raises:
        SolverFailureError: the system is singular, or its solution
            misses its right-hand side.
    """
    import numpy as np

    A = np.array([[gains.get((c, t), 0j) for t in columns] for c in rows], dtype=complex)
    b = np.array([-sum(gains.get((c, t), 0j) * x for t, x in v.items()) for c in rows], dtype=complex)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.isclose(A @ x, b, rtol=1e-9, atol=1e-12).all():
        raise SolverFailureError(f"cancellation system for message {message} is singular")
    v.update(zip(columns, x.tolist()))


@_collector_paused
def design_beams(
    topology: NetworkTopology,
    channels: ChannelRealization,
    assignment: MessageAssignment,
    scheme: ZfScheme,
) -> BeamDesign:
    """Solve every active message's beam vector.

    Each receiver in a message's cancellation list contributes one
    linear constraint zeroing the message's received coefficient there;
    only the set of receivers matters, never its order.  The messages
    are designed one at a time in ascending order, each start to finish
    (:func:`_support`): peeled one coefficient at a time, which finishes
    every generator's scheme, and what stays cyclic solved densely.

    Raises:
        InvalidParameterError: the sizes disagree, or an active
            message's serving transmitter is outside its transmit set.
        SolverFailureError: a message is not deliverable, or its system
            is singular on this realization (measure zero under generic
            channels).  When several apply, the error of the
            lowest-numbered message is raised.
    """
    _check_sizes(topology=topology, assignment=assignment, scheme=scheme)
    gains, hears = channels.coefficients, topology.hears
    transmit_sets, serving, cancel_at = assignment.transmit_sets, scheme.serving, scheme.cancel_at
    empty = frozenset()
    beams = {}
    for i in sorted(scheme.active_messages):
        beams[i] = _support(gains, hears, i, transmit_sets.get(i, empty), serving.get(i), cancel_at[i])
    return BeamDesign(beams=beams)


@_collector_paused
def verify(
    topology: NetworkTopology,
    channels: ChannelRealization,
    scheme: ZfScheme,
    beams: BeamDesign,
    tol: float = _DEFAULT_TOL,
) -> VerificationReport:
    """Check interference-free delivery on a concrete realization.

    For every active receiver ``k``, the received coefficient of each
    active message ``i`` is ``sum over t in T_i heard at k of
    H[k,t] * v_i[t]``.  The desired coefficient (``i = k``) must exceed
    the 1e-6 magnitude floor; every other must stay below ``tol`` times
    the desired magnitude.  Failures are reported as data, never raised.

    The sums are scattered: each active message's beam, in ascending
    message order, adds ``H[k,t] * v_i[t]`` at every active ``k`` in
    ``hearers(t)``, taking the beam's items in order from a start of 0,
    as :func:`sum` does.  A message whose beam uses no transmitter heard
    at ``k`` contributes exactly zero there and is never visited, so the
    cost is linear in ``sum |T_i| * degree``.  Each transmitter's active
    hearers and their gains from it are read once per call, when a beam
    first uses it, and each desired magnitude is taken once.

    Raises:
        InvalidParameterError: the sizes disagree, or ``tol`` is not a
            real number in (0, 1).
    """
    _check_sizes(topology=topology, scheme=scheme)
    if not 0 < _check_real("tol", tol) < 1:
        raise InvalidParameterError(f"tol must be in (0, 1), got {tol}")
    active_set = scheme.active_messages
    active = sorted(active_set)
    gains = channels.coefficients
    received: dict[int, dict[int, complex]] = {k: {} for k in active}
    # transmitter -> (row, gain) for each of its active hearers, read once
    audience: dict[int, list[tuple[dict[int, complex], complex]]] = {}
    for i in active:
        for t, v in beams.beams[i].items():
            listeners = audience.get(t)
            if listeners is None:
                listeners = audience[t] = [
                    (received[k], gains.get((k, t), 0j)) for k in topology.hearers(t) & active_set
                ]
            for row, h in listeners:
                row[i] = row.get(i, 0) + h * v
    per_receiver: list[dict] = []
    passed = True
    max_residual = 0.0
    for k in active:
        row = received[k]
        desired = abs(row.pop(k, 0j))
        # the fold max(worst, |coef|) from 0.0 in message order, NaNs included
        worst = max([0.0, *map(abs, row.values())])
        per_receiver.append({"rx": k, "desired_mag": desired, "max_interf": worst})
        if desired <= _MAGNITUDE_FLOOR:
            passed = False
            max_residual = float("inf") if worst else max_residual
            continue
        residual = worst / desired
        max_residual = max(max_residual, residual)
        if residual >= tol:
            passed = False
    return VerificationReport(
        passed=passed, dof=len(active), max_residual=max_residual, per_receiver=per_receiver
    )
