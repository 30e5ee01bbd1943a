"""Numerical zero-forcing engine.

Samples generic complex channel coefficients on a topology's support,
solves for per-message beam coefficients that null each message at its
cancellation receivers, and verifies — numerically, against a concrete
realization — that every active receiver sees its own message clearly
and no residual interference.  Noise is never simulated: the
degrees-of-freedom count is a pure coefficient property.
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "pass": self.passed,
                "dof": self.dof,
                "max_residual": self.max_residual,
                "per_receiver": self.per_receiver,
            }
        )


def _normal_stream(rng: np.random.Generator, count: int):
    """The generator's standard normal stream: one batch of ``count``, then pairs on demand."""
    yield from rng.standard_normal(count)
    while True:
        yield from rng.standard_normal(2)


def sample_channels(topology: NetworkTopology, seed: int) -> ChannelRealization:
    """Draw i.i.d. standard circular complex gains on the hearing support.

    Deterministic given ``seed``; receivers are visited in ascending
    order and their heard transmitters in ascending order, each gain
    taking the next (real, imaginary) pair of one normal stream.  The
    ``2 * sum |hears(k)|`` normals the support needs come from a single
    batched draw; a gain with magnitude below 1e-6 is redrawn from the
    following pair, so no stored gain is degenerate.  Cost is linear in
    the support size.

    Raises:
        InvalidParameterError: ``seed`` is negative.
    """
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    normals = _normal_stream(rng, 2 * sum(len(heard) for heard in topology.hears.values()))
    scale = np.sqrt(2)
    coefficients: dict[tuple[int, int], complex] = {}
    for i in range(1, topology.K + 1):
        for t in sorted(topology.hears[i]):
            h = 0j
            while abs(h) < _MAGNITUDE_FLOOR:
                h = complex(next(normals), next(normals)) / scale
            coefficients[(i, t)] = h
    return ChannelRealization(coefficients=coefficients, seed=seed)


def _chain_solve(
    channels: ChannelRealization,
    hears: dict[int, frozenset[int]],
    T: list[int],
    serving: int,
    cancel: tuple[int, ...],
) -> dict[int, complex] | None:
    """Forward substitution along the cancellation order, if it applies.

    Succeeds when every constraint, taken in stored order, involves
    exactly one not-yet-determined transmitter coefficient; transmitters
    touched by no constraint are fixed to zero.
    """
    v: dict[int, complex] = {serving: 1.0 + 0j}
    for c in cancel:
        involved = [t for t in T if t in hears[c]]
        unknown = [t for t in involved if t not in v]
        if len(unknown) != 1:
            return None
        u = unknown[0]
        h_u = channels.gain(c, u)
        if h_u == 0:
            return None
        acc = sum(channels.gain(c, t) * v[t] for t in involved if t != u)
        v[u] = -acc / h_u
    for t in T:
        v.setdefault(t, 0j)
    return v


def _dense_solve(
    channels: ChannelRealization,
    hears: dict[int, frozenset[int]],
    T: list[int],
    serving: int,
    cancel: tuple[int, ...],
    message: int,
) -> dict[int, complex]:
    """Direct linear solve of the cancellation system.

    Unknowns are the non-serving transmitters in ascending order; when
    there are more unknowns than constraints, the trailing extras are
    fixed to zero so the system is square.
    """
    free = [t for t in T if t != serving]
    m = len(cancel)
    solve_for, fixed_zero = free[:m], free[m:]
    A = np.zeros((m, m), dtype=complex)
    b = np.zeros(m, dtype=complex)
    for r, c in enumerate(cancel):
        for col, t in enumerate(solve_for):
            A[r, col] = channels.gain(c, t)
        b[r] = -channels.gain(c, serving)
    if m:
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            x, *_ = np.linalg.lstsq(A, b, rcond=None)
        if not np.allclose(A @ x, b, rtol=1e-9, atol=1e-12):
            raise SolverFailureError(f"cancellation system for message {message} is singular")
    else:
        x = np.zeros(0, dtype=complex)
    v = {serving: 1.0 + 0j}
    v.update({t: complex(x[col]) for col, t in enumerate(solve_for)})
    v.update({t: 0j for t in fixed_zero})
    return v


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
    substitution applies; anything else falls back to a dense solve.

    Raises:
        InvalidParameterError: an active message's serving transmitter
            is outside its transmit set.
        SolverFailureError: a cancellation system is singular (measure
            zero under generic channels).
    """
    beams: dict[int, dict[int, complex]] = {}
    for i in sorted(scheme.active_messages):
        T = sorted(assignment.transmit_sets.get(i, ()))
        serving = scheme.serving.get(i)
        if serving not in T:
            raise InvalidParameterError(
                f"serving transmitter {serving} of message {i} is outside its transmit set {T}"
            )
        cancel = scheme.cancel_at[i]
        v = _chain_solve(channels, topology.hears, T, serving, cancel)
        if v is None:
            v = _dense_solve(channels, topology.hears, T, serving, cancel, i)
        beams[i] = v
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

    A message whose beam uses no transmitter heard at ``k`` contributes
    exactly zero there, so receiver ``k`` only visits the messages that
    an index from transmitter to carrying messages lists under
    ``hears(k)``; the cost is linear in ``sum |T_i| * degree``.

    Raises:
        InvalidParameterError: ``tol`` is not a number in (0, 1).
    """
    if not 0 < tol < 1:
        raise InvalidParameterError(f"tol must be in (0, 1), got {tol}")
    active = sorted(scheme.active_messages)
    carried_by: dict[int, list[int]] = {}
    for i in active:
        for t in beams.beams[i]:
            carried_by.setdefault(t, []).append(i)
    per_receiver: list[dict] = []
    passed = True
    max_residual = 0.0
    for k in active:
        heard = topology.hears[k]
        desired = 0j
        worst = 0.0
        for i in sorted(set().union(*(carried_by.get(t, ()) for t in heard))):
            coef = sum(
                channels.gain(k, t) * v for t, v in beams.beams[i].items() if t in heard
            )
            if i == k:
                desired = coef
            else:
                worst = max(worst, abs(coef))
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
