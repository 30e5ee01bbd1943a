"""Numerical zero-forcing engine.

Samples generic complex channel coefficients on a topology's support,
solves for per-message beam coefficients that null each message at its
cancellation receivers, and verifies — numerically, against a concrete
realization — that every active receiver sees its own message clearly
and no residual interference.  Noise is never simulated: the
degrees-of-freedom count is a pure coefficient property.

Each stage works in batches rather than coefficient by coefficient.  The
channel draw takes all its normals in one call and reads them as one
array of complex gains.  Beam design solves chain-ordered systems by
forward substitution and every other system in one stacked dense solve
per system size.  Verification scatters each beam over the active
receivers that hear it, so its cost is linear in ``sum |T_i| * degree``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import json

import numpy as np

from .assignment import MessageAssignment, metrics
from .errors import InvalidParameterError, SolverFailureError
from .schemes import DofReport, ZfScheme
from .topology import NetworkTopology

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
        InvalidParameterError: ``seed`` is negative.
    """
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
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


def _chain_solve(
    gains: dict[tuple[int, int], complex],
    hears: dict[int, frozenset[int]],
    T: list[int],
    serving: int,
    cancel: tuple[int, ...],
) -> dict[int, complex] | None:
    """Forward substitution along the cancellation order, if it applies.

    Succeeds when every constraint, taken in stored order, involves
    exactly one not-yet-determined transmitter coefficient; transmitters
    touched by no constraint are fixed to zero.  ``gains`` is a
    realization's coefficient map (absent keys read as 0).
    """
    v: dict[int, complex] = {serving: 1.0 + 0j}
    for c in cancel:
        heard = hears[c]
        involved = [t for t in T if t in heard]
        unknown = [t for t in involved if t not in v]
        if len(unknown) != 1:
            return None
        u = unknown[0]
        h_u = gains.get((c, u), 0j)
        if h_u == 0:
            return None
        acc = sum(gains.get((c, t), 0j) * v[t] for t in involved if t != u)
        v[u] = -acc / h_u
    for t in T:
        v.setdefault(t, 0j)
    return v


def _solve_one(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One system: a direct solve, or least squares when it is singular."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(A, b, rcond=None)[0]


def _dense_solve(
    gains: dict[tuple[int, int], complex],
    systems: list[tuple[int, list[int], int, tuple[int, ...]]],
) -> dict[int, dict[int, complex]]:
    """Direct linear solves of cancellation systems, stacked by size.

    Each system is ``(message, T, serving, cancel)``.  Its unknowns are
    the non-serving transmitters in ascending order; when there are more
    unknowns than constraints, the trailing extras are fixed to zero so
    the system is square.  The systems of one size go through one
    stacked ``np.linalg.solve`` and one vectorised residual check; only
    a stack that raises ``LinAlgError`` is solved system by system, with
    ``lstsq`` for the singular ones.

    Returns:
        Each message's beam, in ``systems`` order.

    Raises:
        SolverFailureError: a solution misses its right-hand side; the
            first such message in ``systems`` order is named.
    """
    stacks: dict[int, list[int]] = {}
    for index, system in enumerate(systems):
        stacks.setdefault(len(system[3]), []).append(index)
    solutions: list = [None] * len(systems)
    for m, members in stacks.items():
        A = np.zeros((len(members), m, m), dtype=complex)
        b = np.empty((len(members), m, 1), dtype=complex)
        columns = []
        for row, index in enumerate(members):
            _, T, serving, cancel = systems[index]
            free = [t for t in T if t != serving]
            solve_for = free[:m]
            A[row, :, : len(solve_for)] = [[gains.get((c, t), 0j) for t in solve_for] for c in cancel]
            b[row, :, 0] = [-gains.get((c, serving), 0j) for c in cancel]
            columns.append(free)
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            x = np.stack([_solve_one(a, rhs) for a, rhs in zip(A, b)])
        solved = np.isclose(A @ x, b, rtol=1e-9, atol=1e-12).all(axis=(1, 2))
        for row, index in enumerate(members):
            solutions[index] = (solved[row], columns[row], x[row, :, 0].tolist())
    beams: dict[int, dict[int, complex]] = {}
    for (message, _, serving, cancel), (ok, free, x) in zip(systems, solutions):
        if not ok:
            raise SolverFailureError(f"cancellation system for message {message} is singular")
        v = {serving: 1.0 + 0j}
        v.update(zip(free, x))
        v.update((t, 0j) for t in free[len(cancel) :])
        beams[message] = v
    return beams


def design_beams(
    topology: NetworkTopology,
    channels: ChannelRealization,
    assignment: MessageAssignment,
    scheme: ZfScheme,
) -> BeamDesign:
    """Solve every active message's beam vector.

    The serving transmitter's coefficient is pinned to 1; each receiver
    in the cancellation list contributes one linear constraint zeroing
    the message's received coefficient there.  Cancellation lists
    produced by the generators are chain-ordered, so forward
    substitution applies, reading ``channels.coefficients`` directly;
    every other system is collected and solved densely, one stacked
    solve per system size (:func:`_dense_solve`).

    Raises:
        InvalidParameterError: an active message's serving transmitter
            is outside its transmit set.
        SolverFailureError: a cancellation system is singular (measure
            zero under generic channels).  When both apply, the error of
            the lower-numbered message is raised.
    """
    gains = channels.coefficients
    beams: dict[int, dict[int, complex] | None] = {}
    dense = []
    outside = None
    for i in sorted(scheme.active_messages):
        T = sorted(assignment.transmit_sets.get(i, ()))
        serving = scheme.serving.get(i)
        if serving not in T:
            outside = InvalidParameterError(
                f"serving transmitter {serving} of message {i} is outside its transmit set {T}"
            )
            break
        cancel = scheme.cancel_at[i]
        beams[i] = _chain_solve(gains, topology.hears, T, serving, cancel)
        if beams[i] is None:
            dense.append((i, T, serving, cancel))
    beams.update(_dense_solve(gains, dense))
    if outside is not None:
        raise outside
    return BeamDesign(beams=beams)


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
    cost is linear in ``sum |T_i| * degree``.

    Raises:
        InvalidParameterError: ``tol`` is not a number in (0, 1).
    """
    if not 0 < tol < 1:
        raise InvalidParameterError(f"tol must be in (0, 1), got {tol}")
    active = sorted(scheme.active_messages)
    gains = channels.coefficients
    audience: dict[int, frozenset[int]] = {}  # transmitter -> its active hearers
    received: dict[int, dict[int, complex]] = {k: {} for k in active}
    for i in active:
        for t, v in beams.beams[i].items():
            listeners = audience.get(t)
            if listeners is None:
                listeners = audience[t] = topology.hearers(t) & scheme.active_messages
            for k in listeners:
                row = received[k]
                row[i] = row.get(i, 0) + gains.get((k, t), 0j) * v
    per_receiver: list[dict] = []
    passed = True
    max_residual = 0.0
    for k in active:
        row = received[k]
        desired = row.pop(k, 0j)
        # the fold max(worst, |coef|) from 0.0 in message order, NaNs included
        worst = max([0.0, *map(abs, row.values())])
        per_receiver.append(
            {"rx": k, "desired_mag": float(abs(desired)), "max_interf": float(worst)}
        )
        if abs(desired) <= _MAGNITUDE_FLOOR:
            passed = False
            max_residual = float("inf") if worst else max_residual
            continue
        residual = worst / abs(desired)
        max_residual = max(max_residual, residual)
        if residual >= tol:
            passed = False
    return VerificationReport(
        passed=passed, dof=len(active), max_residual=max_residual, per_receiver=per_receiver
    )


def dof_report(scheme: ZfScheme, assignment: MessageAssignment) -> DofReport:
    """Exact degrees-of-freedom and backhaul accounting for a scheme."""
    achieved = len(scheme.active_messages)
    return DofReport(
        achieved_dof=achieved,
        per_user_dof=Fraction(achieved, scheme.K),
        backhaul=metrics(assignment).B,
        scheme_name=scheme.name,
    )
