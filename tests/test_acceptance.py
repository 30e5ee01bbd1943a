"""Acceptance gate: one test per headline claim, each timed against its budget.

Every test prints one ``PASS: ...`` line (visible with ``pytest -s`` or on
failure) and enforces exact rational equalities — no floating-point slack
outside the numerical verifier's documented tolerance.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from coopzf import (
    ZfScheme,
    algorithm1_certify,
    appendix_receiver_set,
    backhaul_converse,
    build_hexagonal,
    build_locally_connected,
    build_two_dim,
    build_wyner,
    design_beams,
    hexagonal_cooperative_scheme,
    hexagonal_coset_scheme,
    max_activation_for_assignment,
    max_avoidance_cooperative,
    max_avoidance_m1,
    metrics,
    reconstructibility_check,
    sample_channels,
    table1_scheme,
    two_dim_scheme,
    validate_certificate,
    validate_scheme,
    verify,
    wyner_backhaul_scheme,
)
from coopzf.assignment import MessageAssignment
from coopzf.cli import report_table1
from worked_example import toy_instance


def _verified(topology, assignment, scheme, seed, tol=1e-8) -> bool:
    channels = sample_channels(topology, seed)
    beams = design_beams(topology, channels, assignment, scheme)
    return verify(topology, channels, scheme, beams, tol=tol).passed


def test_criterion_1_chain_blocks_hit_headline_fraction():
    start = time.monotonic()
    for B in (1, 2, 3):
        K = 40 * B
        topology = build_wyner(K)
        assignment, scheme = wyner_backhaul_scheme(K, B)
        assert scheme.declared_pudof == Fraction(4 * B - 1, 4 * B)
        assert Fraction(len(scheme.active_messages), K) == Fraction(4 * B - 1, 4 * B)
        assert metrics(assignment).B == B
        assert validate_scheme(topology, assignment, scheme) == []
        for seed in range(20):
            assert _verified(topology, assignment, scheme, seed), (B, seed)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, elapsed
    print(
        f"PASS: criterion 1 — chain blocks reach (4B-1)/4B at load B for "
        f"B in {{1,2,3}}, 20 seeds each, {elapsed:.2f}s"
    )


def test_criterion_2_mixture_table_reproduces_and_verifies():
    start = time.monotonic()
    document = report_table1()
    assert document["problems"] == []
    assert [r["pudof"] for r in document["rows"]] == ["2/3", "3/5", "5/9", "11/21", "1/2"]
    for row in document["rows"]:
        assert Fraction(row["backhaul"]) <= 1
    for row in document["rows"]:
        L, K_min = row["L"], row["K_min"]
        topology = build_locally_connected(K_min, L)
        assignment, scheme = table1_scheme(K_min, L)
        assert scheme.declared_pudof == Fraction(row["pudof"])
        assert metrics(assignment).B == Fraction(row["backhaul"])
        for seed in range(20):
            assert _verified(topology, assignment, scheme, seed), (L, seed)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed
    print(
        "PASS: criterion 2 — mixture table rows {2/3, 3/5, 5/9, 11/21, 1/2} "
        f"reproduce at load <= 1 and verify numerically, {elapsed:.2f}s"
    )


def test_criterion_3_grid_scheme_five_ninths():
    start = time.monotonic()
    N = 84
    K = N * N
    assignment, scheme = two_dim_scheme(K)
    assert scheme.declared_pudof == Fraction(5, 9)
    assert metrics(assignment).B == 1
    assert Fraction(len(scheme.active_messages), K) == Fraction(5, 9)

    # Row 1 is served from transmitter row 1 alone: read it off the grid
    # as its own N-user chain scheme.
    row = range(1, N + 1)
    row_asg = MessageAssignment(K=N, transmit_sets={i: assignment.transmit_sets[i] for i in row})
    row_active = scheme.active_messages & set(row)
    row_scheme = ZfScheme(
        K=N,
        active_messages=row_active,
        serving={i: scheme.serving[i] for i in row_active},
        cancel_at={i: scheme.cancel_at[i] for i in row_active},
        declared_pudof=Fraction(len(row_active), N),
        declared_backhaul=metrics(row_asg).B,
    )
    assert row_scheme.declared_pudof == Fraction(5, 6)
    assert row_scheme.declared_backhaul == Fraction(3, 2)

    # structural isolation on the full grid: an active receiver hears used
    # transmitters only from its own serving row
    topology = build_two_dim(K)
    used = set()
    for i in scheme.active_messages:
        used |= assignment.transmit_sets[i]
    violations = 0
    for i in scheme.active_messages:
        serving_row = (scheme.serving[i] - 1) // N
        for t in topology.hears[i]:
            if t in used and (t - 1) // N != serving_row:
                violations += 1
    assert violations == 0

    # numerical check of one isolated row as its own chain network
    row_topology = build_locally_connected(N, 1)
    assert _verified(row_topology, row_asg, row_scheme, seed=0)

    # structural and numerical check of the whole grid
    assert validate_scheme(topology, assignment, scheme) == []
    assert _verified(topology, assignment, scheme, seed=0)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    print(
        "PASS: criterion 3 — 84x84 grid reaches 5/9 at load 1 with isolated "
        f"5/6-DoF rows (0 isolation violations), verified on the full grid, {elapsed:.2f}s"
    )


def test_criterion_4_lattice_schemes():
    start = time.monotonic()
    topology, lattice = build_hexagonal(6)

    coset_asg, coset_scheme = hexagonal_coset_scheme(lattice)
    assert len(coset_scheme.active_messages) == 12
    assert coset_scheme.declared_pudof == Fraction(1, 3)
    for i in coset_scheme.active_messages:
        for k in coset_scheme.active_messages:
            if i != k:
                assert not (coset_asg.transmit_sets[i] & topology.hears[k])

    coop_asg, coop_scheme = hexagonal_cooperative_scheme(lattice)
    assert coop_scheme.declared_pudof == Fraction(1, 2)
    assert metrics(coop_asg).B == 1
    assert validate_scheme(topology, coop_asg, coop_scheme) == []
    for seed in range(20):
        assert _verified(topology, coop_asg, coop_scheme, seed), seed
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    print(
        "PASS: criterion 4 — 6x6 lattice: non-cooperative 1/3 with full "
        f"isolation, cooperative 1/2 at load 1 over 20 seeds, {elapsed:.2f}s"
    )


def test_criterion_5_exact_searches_match_ground_truth():
    start = time.monotonic()
    assert max_avoidance_m1(build_wyner(3))[0] == 2
    assert max_avoidance_m1(build_wyner(4))[0] == 3
    assert max_avoidance_cooperative(build_wyner(4), 1)[0] == 3
    assert max_avoidance_cooperative(build_wyner(8), 2)[0] == 7
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    print(
        "PASS: criterion 5 — exact searches: chain single-tx 3->2 and 4->3, "
        f"budgeted (K=4,B=1)->3 and (K=8,B=2)->7, {elapsed:.2f}s"
    )


def test_criterion_6_group_certificates():
    start = time.monotonic()
    _, lattice, assignment, _ = toy_instance()
    cert = algorithm1_certify(lattice, assignment)
    assert cert.certified_bound == 4
    assert Fraction(cert.certified_bound, 9) == Fraction(4, 9)
    assert validate_certificate(lattice, assignment, cert) == []

    _, big = build_hexagonal(6)
    rng = random.Random(424242)
    worst = Fraction(0)
    for _ in range(120):
        sets = {}
        for i in sorted(big.coords):
            roll = rng.random()
            if roll < 0.35:
                sets[i] = frozenset()
            elif roll < 0.6:
                sets[i] = frozenset({i})
            else:
                sets[i] = frozenset({rng.choice(sorted(big.neighbors[i] | {i}))})
        a = MessageAssignment(K=36, transmit_sets=sets)
        c = algorithm1_certify(big, a)
        assert validate_certificate(big, a, c) == []
        for g in c.groups:
            ratio = Fraction(g.bound, len(g.nodes)) if g.nodes else Fraction(0)
            worst = max(worst, ratio)
            assert ratio <= Fraction(1, 2), (g.nodes, g.bound)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, elapsed
    print(
        "PASS: criterion 6 — worked example certifies 4/9 exactly; 120 random "
        f"single-tx assignments validate with group ratios <= 1/2 "
        f"(worst {worst}), {elapsed:.2f}s"
    )


def test_criterion_7_budget_scan_tight_and_sound():
    start = time.monotonic()
    for K in (8, 16, 40):
        assignment, scheme = wyner_backhaul_scheme(K, 1)
        res = backhaul_converse(assignment, 1)
        achieved = len(scheme.active_messages)
        M = metrics(assignment).M
        assert res.bound - achieved < 2 * M + 1
        assert res.bound == achieved  # tight at these block lengths

    K = 24
    topology = build_wyner(K)
    rng = random.Random(11)
    for _ in range(200):
        budget = K
        sets = {}
        for i in range(1, K + 1):
            size = min(rng.choice([0, 0, 1, 1, 1, 2]), budget)
            budget -= size
            lo, hi = max(1, i - 2), min(K, i + 1)
            sets[i] = frozenset(rng.sample(range(lo, hi + 1), min(size, hi - lo + 1)))
        a = MessageAssignment(K=K, transmit_sets=sets)
        assert metrics(a).B <= 1
        res = backhaul_converse(a, 1)
        value, _ = max_activation_for_assignment(topology, a)
        assert res.bound >= value, (res.bound, value)
        for M in (0, 1):
            A, reduced = appendix_receiver_set(a, M)
            assert reconstructibility_check(topology, reduced, A)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, elapsed
    print(
        "PASS: criterion 7 — budget scan matches the block schemes exactly at "
        f"K in {{8,16,40}} and dominates 200 random exact-search values with "
        f"reconstructible receiver sets, {elapsed:.2f}s"
    )


def test_criterion_8_asymptotic_fraction_attained_finitely():
    start = time.monotonic()
    for B in (1, 2, 3):
        K = 40 * B
        assignment, scheme = wyner_backhaul_scheme(K, B)
        res = backhaul_converse(assignment, B)
        assert res.slack == 0
        assert Fraction(res.bound, K) == Fraction(4 * B - 1, 4 * B)
        assert Fraction(len(scheme.active_messages), K) == Fraction(4 * B - 1, 4 * B)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    print(
        "PASS: criterion 8 — the limiting fraction (4B-1)/4B is met with zero "
        "slack at finite K = 40B for B in {1,2,3}: achievability and the "
        f"certified bound coincide exactly, {elapsed:.2f}s"
    )
