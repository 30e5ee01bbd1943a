"""Numerical beam design and interference-free verification."""

from __future__ import annotations

from fractions import Fraction

import pytest

from coopzf import (
    BeamDesign,
    ChannelRealization,
    InvalidParameterError,
    MessageAssignment,
    ZfScheme,
    build_hexagonal,
    build_locally_connected,
    build_two_dim,
    build_wyner,
    design_beams,
    dof_report,
    hexagonal_cooperative_scheme,
    hexagonal_coset_scheme,
    locally_connected_scheme,
    sample_channels,
    table1_scheme,
    two_dim_scheme,
    verify,
    wyner_backhaul_scheme,
)
from coopzf.zf_engine import _chain_solve, _dense_solve


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
        deactivated_transmitters=frozenset(),
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
        deactivated_transmitters=frozenset(),
        declared_pudof=Fraction(1, 2),
        declared_backhaul=Fraction(1, 2),
    )
    beams = design_beams(topo, channels, assignment, scheme)
    assert beams.beams[1] == {1: 1.0 + 0j}


def test_chain_and_dense_routes_agree():
    for topo, assignment, scheme in _representatives():
        channels = sample_channels(topo, 5)
        for i in sorted(scheme.active_messages):
            T = sorted(assignment.transmit_sets[i])
            serving = scheme.serving[i]
            cancel = scheme.cancel_at[i]
            chain = _chain_solve(channels, topo.hears, T, serving, cancel)
            dense = _dense_solve(channels, topo.hears, T, serving, cancel, i)
            assert chain is not None, (scheme.name, i)
            for t in T:
                diff = abs(chain[t] - dense[t])
                scale = max(1.0, abs(dense[t]))
                assert diff / scale <= 1e-10, (scheme.name, i, t)


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
        deactivated_transmitters=frozenset(),
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
        deactivated_transmitters=frozenset(),
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
        deactivated_transmitters=frozenset({1, 2, 3}),
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
        deactivated_transmitters=frozenset({1, 2}),
        declared_pudof=Fraction(0),
        declared_backhaul=Fraction(0),
        name="empty",
    )
    rep = dof_report(empty_s, empty_a)
    assert rep.achieved_dof == 0 and rep.per_user_dof == 0 and rep.backhaul == 0
