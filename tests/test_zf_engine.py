"""Numerical beam design and interference-free verification."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
import hashlib
import random

import numpy as np
import pytest

from coopzf import (
    BeamDesign,
    ChannelRealization,
    CoopZfError,
    InvalidParameterError,
    MessageAssignment,
    SolverFailureError,
    VerificationReport,
    ZfScheme,
    build_hexagonal,
    build_locally_connected,
    build_two_dim,
    build_wyner,
    certify_lower_bound,
    design_beams,
    dof_report,
    hexagonal_cooperative_scheme,
    hexagonal_coset_scheme,
    locally_connected_scheme,
    sample_channels,
    table1_row,
    table1_scheme,
    two_dim_scheme,
    validate_scheme,
    verify,
    wyner_backhaul_scheme,
)
from coopzf import zf_engine
from coopzf.zf_engine import _solve_cyclic


def _representatives():
    out = [
        (build_wyner(8), *wyner_backhaul_scheme(8, 2)),
        (build_wyner(12), *wyner_backhaul_scheme(12, 1)),
        (build_locally_connected(7, 3), *locally_connected_scheme(7, 3, 2)),
        (build_locally_connected(8, 2), *locally_connected_scheme(8, 2, 3)),
        (build_locally_connected(30, 3), *table1_scheme(30, 3)),
        (build_two_dim(144), *two_dim_scheme(144)),
    ]
    topo, lat = build_hexagonal(6)
    out.append((topo, *hexagonal_coset_scheme(lat)))
    out.append((topo, *hexagonal_cooperative_scheme(lat)))
    return out


def test_sampling_is_deterministic_and_on_support():
    topo = build_wyner(6)
    one = sample_channels(topo, 11)
    two = sample_channels(topo, 11)
    other = sample_channels(topo, 12)
    assert one.coefficients == two.coefficients
    assert one.coefficients != other.coefficients
    for (k, t), h in one.coefficients.items():
        assert t in topo.hears[k]
        assert abs(h) >= 1e-6
    assert set(one.coefficients) == {(k, t) for k in range(1, 7) for t in topo.hears[k]}


def test_sampling_support_size_small_chain():
    topo = build_wyner(4)
    ch = sample_channels(topo, 0)
    assert len(ch.coefficients) == 7  # 1 + 2 + 2 + 2 heard transmitters
    assert ch.gain(1, 4) == 0j  # off-support lookups are zero


def test_sampling_rejects_negative_seed():
    with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
        sample_channels(build_wyner(4), -5)


@pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, "3", None])
def test_sampling_rejects_a_seed_that_is_not_an_int(seed):
    # `True` once drew seed 1's channels and recorded `seed=True`.
    with pytest.raises(InvalidParameterError, match="seed must be an integer"):
        sample_channels(build_wyner(4), seed)


@pytest.mark.parametrize("tol", ["0.1", None, 1j])
def test_verify_rejects_a_tolerance_that_is_not_real(tol):
    topology = build_wyner(8)
    assignment, scheme = wyner_backhaul_scheme(8, 1)
    channels = sample_channels(topology, 0)
    beams = design_beams(topology, channels, assignment, scheme)
    with pytest.raises(InvalidParameterError, match="tol must be a real number"):
        verify(topology, channels, scheme, beams, tol)
    assert verify(topology, channels, scheme, beams, Fraction(1, 10)).passed


def test_hand_computed_beam():
    topo = build_wyner(2)
    channels = ChannelRealization(
        coefficients={(1, 1): 1.0 + 0j, (2, 1): 0.5 + 0j, (2, 2): 0.25 + 0j},
        seed=-1,
    )
    assignment = MessageAssignment(K=2, transmit_sets={1: frozenset({1, 2}), 2: frozenset()})
    scheme = ZfScheme(
        K=2,
        active_messages=frozenset({1}),
        serving={1: 1},
        cancel_at={1: (2,)},
        declared_pudof=Fraction(1, 2),
        declared_backhaul=Fraction(1),
    )
    beams = design_beams(topo, channels, assignment, scheme)
    assert beams.beams[1][1] == 1.0 + 0j
    assert abs(beams.beams[1][2] - (-2.0 + 0j)) < 1e-12
    report = verify(topo, channels, scheme, beams)
    assert report.passed and report.dof == 1


def test_empty_cancellation_gives_unit_beam():
    topo = build_wyner(2)
    channels = sample_channels(topo, 3)
    assignment = MessageAssignment(K=2, transmit_sets={1: frozenset({1}), 2: frozenset()})
    scheme = ZfScheme(
        K=2,
        active_messages=frozenset({1}),
        serving={1: 1},
        cancel_at={1: ()},
        declared_pudof=Fraction(1, 2),
        declared_backhaul=Fraction(1, 2),
    )
    beams = design_beams(topo, channels, assignment, scheme)
    assert beams.beams[1] == {1: 1.0 + 0j}


def test_chain_and_dense_routes_agree():
    # the dense solve, handed a generator message's whole system, reproduces the peeled beam
    for topo, assignment, scheme in _representatives():
        channels = sample_channels(topo, 5)
        peeled = design_beams(topo, channels, assignment, scheme).beams
        assert sorted(peeled) == sorted(scheme.active_messages)
        for i, v in peeled.items():
            dense = {scheme.serving[i]: 1 + 0j}
            free = sorted(assignment.transmit_sets[i] - {scheme.serving[i]})
            if free:  # a beam with one antenna is its serving coefficient
                _solve_cyclic(channels.coefficients, i, dense, free, sorted(scheme.cancel_at[i]))
            assert set(dense) == set(v) == assignment.transmit_sets[i], (scheme.name, i)
            for t in v:
                diff = abs(dense[t] - v[t])
                assert diff / max(1.0, abs(v[t])) <= 1e-10, (scheme.name, i, t)


def _cyclic_scheme(K, sizes):
    """Messages on ``build_locally_connected(K, 3)`` whose cancellation rows cannot be peeled.

    Message ``m`` of size 2 has ``T = {m, m+1, m+2}`` and cancels at
    ``m+1`` and ``m+2``, which both hear all of ``T``; size 3 adds
    antenna and receiver ``m+3``.  Messages sit six users apart, and
    their interference at each other is not nulled.
    """
    tsets = {i: frozenset() for i in range(1, K + 1)}
    serving, cancel = {}, {}
    for m, size in zip(range(1, K - 4, 6), sizes):
        tsets[m] = frozenset(range(m, m + size + 1))
        serving[m], cancel[m] = m, tuple(range(m + 1, m + size + 1))
    scheme = ZfScheme(
        K=K,
        active_messages=frozenset(serving),
        serving=serving,
        cancel_at=cancel,
        declared_pudof=Fraction(len(serving), K),
        declared_backhaul=Fraction(sum(map(len, tsets.values())), K),
    )
    return build_locally_connected(K, 3), MessageAssignment(K=K, transmit_sets=tsets), scheme


def test_each_cyclic_beam_is_finished_by_its_own_dense_solve(monkeypatch):
    topo, assignment, scheme = _cyclic_scheme(60, [2, 3, 2, 3, 3, 2, 2, 3])
    channels = sample_channels(topo, 2)
    solved = []
    solve = zf_engine._solve_cyclic
    monkeypatch.setattr(
        zf_engine,
        "_solve_cyclic",
        lambda g, message, v, columns, rows: (solved.append(rows), solve(g, message, v, columns, rows)),
    )
    beams = design_beams(topo, channels, assignment, scheme).beams
    assert sorted(map(len, solved)) == [2] * 4 + [3] * 4
    for i, v in beams.items():
        for c in scheme.cancel_at[i]:
            assert abs(sum(channels.gain(c, t) * x for t, x in v.items())) < 1e-12
        assert abs(sum(channels.gain(i, t) * x for t, x in v.items())) > 1e-6
        alone = dataclasses.replace(
            scheme, active_messages=frozenset({i}), serving={i: i}, cancel_at={i: scheme.cancel_at[i]}
        )
        assert design_beams(topo, channels, assignment, alone).beams == {i: v}


def test_singular_system_in_a_stack_is_named():
    topo, assignment, scheme = _cyclic_scheme(30, [2, 2, 2])
    gains = dict(sample_channels(topo, 0).coefficients)
    # receivers 8 and 9 now hear transmitters 8 and 9 alike, but transmitter 7
    # differently, and likewise 14 and 15: the lower message is named
    for m in (7, 13):
        gains[(m + 2, m + 1)], gains[(m + 2, m + 2)] = gains[(m + 1, m + 1)], gains[(m + 1, m + 2)]
    channels = ChannelRealization(coefficients=gains, seed=-1)
    with pytest.raises(SolverFailureError, match="message 7 is singular"):
        design_beams(topo, channels, assignment, scheme)
    # message 13 cannot null receivers 12 and 14 from transmitters 13 and 14,
    # since 12 hears only 13: it is not deliverable, and message 7 comes first
    assignment.transmit_sets[13] = frozenset({13, 14})
    scheme.cancel_at[13] = (12, 14)
    with pytest.raises(SolverFailureError, match="message 7 is singular"):
        design_beams(topo, channels, assignment, scheme)
    with pytest.raises(SolverFailureError, match="message 13 is singular"):
        design_beams(topo, sample_channels(topo, 0), assignment, scheme)


def test_zero_pivot_gain_is_named():
    # receiver 2 must null message 1 through transmitter 2, which it does not hear
    topo = build_wyner(2)
    channels = ChannelRealization(coefficients={(1, 1): 1.0 + 0j, (2, 1): 0.5 + 0j}, seed=-1)
    assignment = MessageAssignment(K=2, transmit_sets={1: frozenset({1, 2}), 2: frozenset()})
    scheme = ZfScheme(
        K=2,
        active_messages=frozenset({1}),
        serving={1: 1},
        cancel_at={1: (2,)},
        declared_pudof=Fraction(1, 2),
        declared_backhaul=Fraction(1),
    )
    with pytest.raises(SolverFailureError, match="message 1 is singular"):
        design_beams(topo, channels, assignment, scheme)


def test_serving_error_waits_for_earlier_singular_system():
    topo = build_wyner(3)
    channels = sample_channels(topo, 0)
    assignment = MessageAssignment(
        K=3, transmit_sets={1: frozenset({1, 3}), 2: frozenset(), 3: frozenset({2})}
    )
    scheme = ZfScheme(
        K=3,
        active_messages=frozenset({1, 3}),
        serving={1: 1, 3: 3},
        cancel_at={1: (2, 3), 3: ()},
        declared_pudof=Fraction(2, 3),
        declared_backhaul=Fraction(2, 3),
    )
    with pytest.raises(SolverFailureError, match="message 1"):
        design_beams(topo, channels, assignment, scheme)
    scheme.cancel_at[1] = ()
    with pytest.raises(InvalidParameterError, match="message 3"):
        design_beams(topo, channels, assignment, scheme)


def test_generators_verify_across_seeds():
    for topo, assignment, scheme in _representatives():
        for seed in range(20):
            channels = sample_channels(topo, seed)
            beams = design_beams(topo, channels, assignment, scheme)
            report = verify(topo, channels, scheme, beams)
            assert report.passed, (scheme.name, seed, report.max_residual)
            assert report.dof == len(scheme.active_messages)
            assert report.max_residual < 1e-8


def test_verification_invariant_under_channel_scaling():
    topo = build_wyner(8)
    assignment, scheme = wyner_backhaul_scheme(8, 2)
    base = sample_channels(topo, 9)
    for alpha in (2.0 + 0j, 0.001 + 0j, 3.0 - 4.0j):
        scaled = ChannelRealization(
            coefficients={kt: alpha * h for kt, h in base.coefficients.items()},
            seed=base.seed,
        )
        b0 = design_beams(topo, base, assignment, scheme)
        b1 = design_beams(topo, scaled, assignment, scheme)
        for i in scheme.active_messages:
            for t, v in b0.beams[i].items():
                assert abs(v - b1.beams[i][t]) <= 1e-9 * max(1.0, abs(v))
        assert verify(topo, scaled, scheme, b1).passed


def test_uncovered_interference_is_reported_not_raised():
    # both users active with self-service and no cancellation: receiver 2
    # still hears transmitter 1, so its interference is generic nonzero
    topo = build_wyner(2)
    channels = sample_channels(topo, 4)
    assignment = MessageAssignment(
        K=2, transmit_sets={1: frozenset({1}), 2: frozenset({2})}
    )
    scheme = ZfScheme(
        K=2,
        active_messages=frozenset({1, 2}),
        serving={1: 1, 2: 2},
        cancel_at={1: (), 2: ()},
        declared_pudof=Fraction(1),
        declared_backhaul=Fraction(1),
    )
    beams = design_beams(topo, channels, assignment, scheme)
    report = verify(topo, channels, scheme, beams)
    assert not report.passed
    assert report.max_residual > 1e-3
    rows = {row["rx"]: row for row in report.per_receiver}
    assert rows[2]["max_interf"] > 0.0
    assert rows[1]["max_interf"] == 0.0  # receiver 1 hears only transmitter 1


def test_desired_signal_below_the_floor_fails():
    # receiver 1 hears only transmitter 1, receiver 2 hears both
    topo = build_wyner(2)
    channels = ChannelRealization(coefficients={(1, 1): 1 + 0j, (2, 1): 0.5 + 0j, (2, 2): 1 + 0j}, seed=-1)
    scheme = ZfScheme(
        K=2,
        active_messages=frozenset({1, 2}),
        serving={1: 1, 2: 2},
        cancel_at={1: (), 2: ()},
        declared_pudof=Fraction(1),
        declared_backhaul=Fraction(1),
    )
    # a faint desired signal with interference beside it: the residual is infinite
    report = verify(topo, channels, scheme, BeamDesign(beams={1: {1: 1 + 0j}, 2: {2: 1e-9 + 0j}}))
    assert not report.passed
    assert report.max_residual == float("inf")
    assert report.per_receiver[1] == {"rx": 2, "desired_mag": 1e-9, "max_interf": 0.5}
    # a faint desired signal alone fails too, but adds no residual
    report = verify(topo, channels, scheme, BeamDesign(beams={1: {1: 1e-9 + 0j}, 2: {2: 1 + 0j}}))
    assert not report.passed
    assert report.max_residual == 5e-10
    assert report.per_receiver[0] == {"rx": 1, "desired_mag": 1e-9, "max_interf": 0.0}


def test_serving_outside_transmit_set_is_rejected():
    # message 2 is known only at transmitter 1 but claims transmitter 2
    topo = build_wyner(2)
    channels = sample_channels(topo, 0)
    assignment = MessageAssignment(K=2, transmit_sets={1: frozenset(), 2: frozenset({1})})
    scheme = ZfScheme(
        K=2,
        active_messages=frozenset({2}),
        serving={2: 2},
        cancel_at={2: ()},
        declared_pudof=Fraction(1, 2),
        declared_backhaul=Fraction(1, 2),
    )
    with pytest.raises(InvalidParameterError, match="outside its transmit set"):
        design_beams(topo, channels, assignment, scheme)


def test_all_inactive_scheme_passes_vacuously():
    topo = build_wyner(3)
    channels = sample_channels(topo, 1)
    assignment = MessageAssignment(K=3, transmit_sets={i: frozenset() for i in (1, 2, 3)})
    scheme = ZfScheme(
        K=3,
        active_messages=frozenset(),
        serving={},
        cancel_at={},
        declared_pudof=Fraction(0),
        declared_backhaul=Fraction(0),
    )
    beams = design_beams(topo, channels, assignment, scheme)
    report = verify(topo, channels, scheme, beams)
    assert report.passed and report.dof == 0 and report.max_residual == 0.0
    assert beams == BeamDesign(beams={})


def test_report_json_uses_pass_key():
    topo = build_wyner(4)
    assignment, scheme = wyner_backhaul_scheme(4, 1)
    channels = sample_channels(topo, 0)
    report = verify(topo, channels, scheme, design_beams(topo, channels, assignment, scheme))
    import json

    doc = json.loads(report.to_json())
    assert doc["pass"] is True
    assert doc["dof"] == 3
    assert isinstance(doc["max_residual"], float)
    assert len(doc["per_receiver"]) == 3


def test_dof_report_values():
    a, s = wyner_backhaul_scheme(8, 2)
    rep = dof_report(s, a)
    assert rep.achieved_dof == 7
    assert rep.per_user_dof == Fraction(7, 8)
    assert rep.backhaul == 2
    a, s = table1_scheme(42, 5)
    rep = dof_report(s, a)
    assert rep.per_user_dof == Fraction(11, 21)
    assert rep.backhaul == 1
    empty_a = MessageAssignment(K=2, transmit_sets={1: frozenset(), 2: frozenset()})
    empty_s = ZfScheme(
        K=2,
        active_messages=frozenset(),
        serving={},
        cancel_at={},
        declared_pudof=Fraction(0),
        declared_backhaul=Fraction(0),
        name="empty",
    )
    rep = dof_report(empty_s, empty_a)
    assert rep.achieved_dof == 0 and rep.per_user_dof == 0 and rep.backhaul == 0


# ---------------------------------------------------------------------------
# The indexed verify and validate_scheme against their all-pairs reference
# ---------------------------------------------------------------------------


def _verify_all_pairs(topology, channels, scheme, beams) -> VerificationReport:
    """Reference verification: every active receiver against every active message."""
    active = sorted(scheme.active_messages)
    per_receiver: list[dict] = []
    passed = True
    max_residual = 0.0
    for k in active:
        heard = topology.hears[k]
        desired = 0j
        worst = 0.0
        for i in active:
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
        if abs(desired) <= 1e-6:
            passed = False
            max_residual = float("inf") if worst else max_residual
            continue
        residual = worst / abs(desired)
        max_residual = max(max_residual, residual)
        if residual >= 1e-8:
            passed = False
    return VerificationReport(
        passed=passed, dof=len(active), max_residual=max_residual, per_receiver=per_receiver
    )


_COVERAGE = "but is not in its cancellation list"


def _coverage_all_pairs(topology, assignment, scheme) -> list[str]:
    """Reference coverage check: every active message against every active receiver."""
    problems = []
    for i in sorted(scheme.active_messages):
        T = assignment.transmit_sets.get(i, frozenset())
        if not T:
            continue
        C = scheme.cancel_at.get(i, ())
        for k in sorted(scheme.active_messages):
            if k != i and topology.hears[k] & T and k not in C:
                problems.append(f"active receiver {k} hears message {i} {_COVERAGE}")
    return problems


def _variants(topo, assignment, scheme):
    """The scheme as generated plus five edits of it, keyed by name.

    ``"swapped"`` trades the first cancellation receiver of the lowest
    message that an inactive receiver hears for the lowest such inactive
    receiver: the list keeps its length and stays within the receivers
    that hear ``T_i``, so only naming every active one catches it.
    """

    def edited(cancel=None, extra=None):
        tsets, serving = dict(assignment.transmit_sets), dict(scheme.serving)
        cancel_at = dict(scheme.cancel_at if cancel is None else cancel)
        active = scheme.active_messages
        if extra is not None:
            tsets[extra] = tsets[extra] or frozenset({extra})
            serving[extra] = min(tsets[extra])
            cancel_at[extra] = ()
            active = active | {extra}
        return (
            dataclasses.replace(assignment, transmit_sets=tsets),
            dataclasses.replace(scheme, active_messages=active, serving=serving, cancel_at=cancel_at),
        )

    out = {"generated": (assignment, scheme)}
    dropped = min((i for i in scheme.active_messages if scheme.cancel_at[i]), default=None)
    if dropped is not None:
        out["dropped"] = edited(cancel={**scheme.cancel_at, dropped: scheme.cancel_at[dropped][:-1]})
    out["reversed"] = edited(cancel={i: c[::-1] for i, c in scheme.cancel_at.items()})
    inactive = sorted(set(range(1, scheme.K + 1)) - scheme.active_messages)
    if inactive:
        out["extra_user"] = edited(extra=inactive[0])
    out["scrambled"] = edited(cancel={i: c[1:] + c[:1] for i, c in scheme.cancel_at.items()})
    for i in sorted(scheme.active_messages):
        C = scheme.cancel_at[i]
        heard = frozenset().union(*map(topo.hearers, assignment.transmit_sets[i]))
        idle = sorted(heard - scheme.active_messages - set(C))
        if C and idle:
            out["swapped"] = edited(cancel={**scheme.cancel_at, i: (idle[0], *C[1:])})
            break
    return out


def _cross_check_cases():
    schemes = []
    for B in (1, 2, 3):
        schemes.append((f"wyner_B{B}", build_wyner(12 * B), *wyner_backhaul_scheme(12 * B, B)))
    for L in range(2, 7):
        K = table1_row(L)["K_min"]
        schemes.append((f"table1_L{L}", build_locally_connected(K, L), *table1_scheme(K, L)))
    schemes.append(("two_dim", build_two_dim(144), *two_dim_scheme(144)))
    for n in (6, 12):
        topo, lattice = build_hexagonal(n)
        schemes.append((f"hex_coop_n{n}", topo, *hexagonal_cooperative_scheme(lattice)))
    topo, lattice = build_hexagonal(6)
    schemes.append(("hex_coset", topo, *hexagonal_coset_scheme(lattice)))
    return [
        (f"{name}-{variant}", topo, *pair)
        for name, topo, assignment, scheme in schemes
        for variant, pair in _variants(topo, assignment, scheme).items()
    ]


_CROSS_CHECK = _cross_check_cases()


@pytest.mark.parametrize(
    ("topo", "assignment", "scheme"),
    [case[1:] for case in _CROSS_CHECK],
    ids=[case[0] for case in _CROSS_CHECK],
)
def test_indexed_checks_match_all_pairs_reference(topo, assignment, scheme):
    problems = validate_scheme(topo, assignment, scheme)
    assert [p for p in problems if p.endswith(_COVERAGE)] == _coverage_all_pairs(topo, assignment, scheme)
    for seed in (0, 1):
        channels = sample_channels(topo, seed)
        beams = design_beams(topo, channels, assignment, scheme)
        expected = _verify_all_pairs(topo, channels, scheme, beams)
        assert verify(topo, channels, scheme, beams).to_json() == expected.to_json()


def test_cross_check_cases_include_failures():
    failing = 0
    for _, topo, assignment, scheme in _CROSS_CHECK:
        channels = sample_channels(topo, 0)
        beams = design_beams(topo, channels, assignment, scheme)
        invalid = validate_scheme(topo, assignment, scheme) != []
        failing += invalid or not verify(topo, channels, scheme, beams).passed
    assert 4 * failing >= len(_CROSS_CHECK), (failing, len(_CROSS_CHECK))


def _random_valid_schemes(count, seed=0):
    """``count`` random schemes on locally connected chains (L <= 3, K <= 8) that pass validate_scheme.

    Each active message's transmit set is either a random subset of the
    antennas heard within two users of its receiver, or one antenna its
    receiver hears plus antennas it does not; every active receiver that
    hears the set is cancelled, in random order.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        K, L = rng.randint(2, 8), rng.randint(1, 3)
        topo = build_locally_connected(K, L)
        users = range(1, K + 1)
        active = frozenset(i for i in users if rng.random() < 0.5)
        tsets = dict.fromkeys(users, frozenset())
        serving, cancel = {}, {}
        for i in sorted(active):
            near = sorted(frozenset().union(*(topo.hears[k] for k in users if abs(k - i) <= 2)))
            if rng.random() < 0.5:
                T = frozenset(rng.sample(near, rng.randint(1, len(near))))
            else:
                far = [t for t in near if t not in topo.hears[i]]
                own = rng.choice(sorted(topo.hears[i]))
                T = frozenset([own, *rng.sample(far, rng.randint(0, len(far)))])
            if not T & topo.hears[i]:
                break
            tsets[i], serving[i] = T, rng.choice(sorted(T & topo.hears[i]))
            rivals = [k for k in frozenset().union(*map(topo.hearers, T)) & active if k != i]
            rng.shuffle(rivals)
            cancel[i] = tuple(rivals)
        else:
            assignment = MessageAssignment(K=K, transmit_sets=tsets)
            scheme = ZfScheme(
                K=K,
                active_messages=active,
                serving=serving,
                cancel_at=cancel,
                declared_pudof=Fraction(len(active), K),
                declared_backhaul=Fraction(sum(map(len, tsets.values())), K),
            )
            if not validate_scheme(topo, assignment, scheme):
                out.append((topo, assignment, scheme))
    return out


def test_rank_test_agrees_with_numerical_delivery():
    rejected = 0
    for topo, assignment, scheme in _random_valid_schemes(2_000):
        channels = sample_channels(topo, 0)
        try:
            beams = design_beams(topo, channels, assignment, scheme)
            delivered = verify(topo, channels, scheme, beams).passed
        except SolverFailureError:
            delivered = False
        certified = certify_lower_bound(topo, scheme, assignment)
        assert certified == delivered, (assignment, scheme)
        rejected += not certified
    assert rejected >= 50, rejected


def test_random_schemes_ignore_the_cancellation_order():
    for topo, assignment, scheme in _random_valid_schemes(500, seed=1):
        channels = sample_channels(topo, 0)
        outcomes = []
        for cancel_at in (scheme.cancel_at, {i: c[::-1] for i, c in scheme.cancel_at.items()}):
            try:
                beams = design_beams(topo, channels, assignment, dataclasses.replace(scheme, cancel_at=cancel_at))
                outcomes.append(repr([(i, list(v.items())) for i, v in beams.beams.items()]))
            except SolverFailureError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1], (assignment, scheme)


# ---------------------------------------------------------------------------
# Channel draws: pinned streams, resampling, and the cost of verify
# ---------------------------------------------------------------------------


def _sample_per_draw(topology, seed):
    """Reference sampler: one two-normal draw per coefficient, redrawn below the floor."""
    rng = np.random.default_rng(seed)
    coefficients = {}
    for i in range(1, topology.K + 1):
        for t in sorted(topology.hears[i]):
            h = 0j
            while abs(h) < zf_engine._MAGNITUDE_FLOOR:
                re, im = rng.standard_normal(2)
                h = complex(re, im) / np.sqrt(2)
            coefficients[(i, t)] = h
    return coefficients


@pytest.mark.parametrize(
    ("topo", "seed", "digest"),
    [
        (build_two_dim(144), 3, "2e02eeec9aeca11719ab72f0da790de24d895041be38982dcaa2cb6bd5d43e72"),
        (build_locally_connected(60, 6), 0, "66acb0cbfa091cdbfa24672e65bb4de314282f29429ed3013b29e6901682ebc2"),
    ],
    ids=["two_dim_K144_seed3", "lc_L6_K60_seed0"],
)
def test_channel_draws_are_pinned(topo, seed, digest):
    coefficients = sample_channels(topo, seed).coefficients
    assert hashlib.sha256(repr(list(coefficients.items())).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    ("topo", "pair", "digest"),
    [
        (
            build_two_dim(576),
            two_dim_scheme(576),
            "c4e963d6fc559941706f918eb729da49bdbacdfc94838bfffd05611d7c372704",
        ),
    ],
    ids=["two_dim_K576_chain_seed0"],
)
def test_numeric_path_is_pinned(topo, pair, digest):
    assignment, scheme = pair
    channels = sample_channels(topo, 0)
    beams = design_beams(topo, channels, assignment, scheme)
    body = repr([(i, list(v.items())) for i, v in beams.beams.items()])
    body += verify(topo, channels, scheme, beams).to_json()
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_dense_route_is_pinned(monkeypatch):
    # every random scheme that reaches the dense solve, and the cyclic scheme
    # with eight dense systems: beams and verdicts, or the error
    solved = []
    solve = zf_engine._solve_cyclic
    monkeypatch.setattr(zf_engine, "_solve_cyclic", lambda *args: (solved.append(args[1]), solve(*args)))

    def numeric(topo, assignment, scheme):
        channels = sample_channels(topo, 0)
        try:
            beams = design_beams(topo, channels, assignment, scheme)
        except CoopZfError as error:
            return type(error).__name__ + str(error)
        body = repr([(i, list(v.items())) for i, v in beams.beams.items()])
        return body + verify(topo, channels, scheme, beams).to_json()

    lines = []
    for case in _random_valid_schemes(2_000):
        reached = len(solved)
        line = numeric(*case)
        if len(solved) > reached:
            lines.append(line)
    systems = len(solved)
    lines.append(numeric(*_cyclic_scheme(60, [2, 3, 2, 3, 3, 2, 2, 3])))
    assert (len(lines) - 1, systems) == (76, 80)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d744975417c01bdba9f5eecec73752e31fa11cddd66607f9f621865e0de458f2"


@pytest.mark.parametrize(
    ("topo", "pair"),
    [
        (build_wyner(480), wyner_backhaul_scheme(480, 2)),
        (build_locally_connected(180, 4), table1_scheme(180, 4)),
    ],
    ids=["wyner_K480_B2", "table1_L4_K180"],
)
def test_cancellation_order_changes_no_bit(topo, pair):
    assignment, scheme = pair
    channels = sample_channels(topo, 0)

    def numeric(cancel_at):
        reordered = dataclasses.replace(scheme, cancel_at=cancel_at)
        beams = design_beams(topo, channels, assignment, reordered)
        body = repr([(i, list(v.items())) for i, v in beams.beams.items()])
        return body + verify(topo, channels, reordered, beams).to_json()

    generated = numeric(scheme.cancel_at)
    assert numeric({i: c[::-1] for i, c in scheme.cancel_at.items()}) == generated
    assert numeric({i: c[1:] + c[:1] for i, c in scheme.cancel_at.items()}) == generated


def test_batched_draw_matches_the_per_draw_stream():
    for topo, seed in ((build_two_dim(144), 3), (build_hexagonal(6)[0], 1), (build_wyner(1), 0)):
        coefficients = sample_channels(topo, seed).coefficients
        assert list(coefficients.items()) == list(_sample_per_draw(topo, seed).items())


def test_resampling_follows_the_per_draw_stream(monkeypatch):
    monkeypatch.setattr(zf_engine, "_MAGNITUDE_FLOOR", 0.5)
    for topo, seed in ((build_wyner(40), 2), (build_locally_connected(30, 3), 5)):
        coefficients = sample_channels(topo, seed).coefficients
        assert list(coefficients.items()) == list(_sample_per_draw(topo, seed).items())
        assert min(abs(h) for h in coefficients.values()) >= 0.5


class _CountingVector(dict):
    """A beam vector or hearing map that counts every read of its entries in a shared tally."""

    def __init__(self, entries, tally):
        super().__init__(entries)
        self.tally = tally

    def _read(self):
        self.tally[0] += 1

    def __getitem__(self, t):
        self._read()
        return super().__getitem__(t)

    def __iter__(self):
        self._read()
        return super().__iter__()

    def items(self):
        self._read()
        return super().items()

    def keys(self):
        self._read()
        return super().keys()

    def values(self):
        self._read()
        return super().values()


def test_verify_cost_grows_linearly_with_users():
    # every visit to a beam vector is counted, however verify reaches it; an
    # all-pairs verify reads each vector once per active receiver
    counts = []
    for K in (96, 768):
        topo = build_wyner(K)
        assignment, scheme = wyner_backhaul_scheme(K, 2)
        channels = sample_channels(topo, 0)
        beams = design_beams(topo, channels, assignment, scheme)
        tally = [0]
        counting = {i: _CountingVector(v, tally) for i, v in beams.beams.items()}
        assert verify(topo, channels, scheme, BeamDesign(beams=counting)).passed
        counts.append(tally[0])
    assert counts[0] > 0, counts
    assert counts[1] <= 9 * counts[0], counts
