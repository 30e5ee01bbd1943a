"""Certified upper bounds: pairwise facts, group certificates, budget scans."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from coopzf import (
    AvoidanceSchedule,
    CertifiedGroup,
    GroupCertificate,
    InvalidParameterError,
    MessageAssignment,
    NetworkTopology,
    PreconditionViolationError,
    UnsupportedError,
    algorithm1_certify,
    appendix_receiver_set,
    backhaul_converse,
    build_hexagonal,
    build_locally_connected,
    build_two_dim,
    build_wyner,
    hexagonal_coset_scheme,
    lemma_pairwise_bounds,
    max_activation_for_assignment,
    max_avoidance_m1,
    metrics,
    reconstructibility_check,
    schedule_assignment,
    triangle_state_bound,
    validate_certificate,
    wyner_backhaul_scheme,
)
from coopzf import converse
from coopzf.converse import _bound_problems, _lp_bound
from test_zf_engine import _CountingVector
from worked_example import toy_instance


# ---------------------------------------------------------------------------
# pairwise facts
# ---------------------------------------------------------------------------


def test_pairwise_facts_on_worked_example():
    topology, _, assignment, L = toy_instance()
    pairs, zeros = lemma_pairwise_bounds(topology, assignment)
    assert zeros == frozenset({L["a1"], L["b2"], L["b3"], L["c3"]})
    assert (L["c1"], L["c2"]) in pairs
    assert {(L["a2"], L["a1"]), (L["a2"], L["a3"])} <= pairs
    # every pair names the assigned message first and a hearer of its transmitter
    for i, k in pairs:
        (j,) = assignment.transmit_sets[i]
        assert k in topology.hears[k] and j in topology.hears[k]


def test_pairwise_facts_reject_cooperation():
    topo = build_wyner(2)
    a = MessageAssignment(K=2, transmit_sets={1: frozenset({1, 2}), 2: frozenset()})
    with pytest.raises(PreconditionViolationError):
        lemma_pairwise_bounds(topo, a)


def test_pairwise_facts_isolated_self_server():
    topo = build_locally_connected(1, 0)
    a = MessageAssignment(K=1, transmit_sets={1: frozenset({1})})
    pairs, zeros = lemma_pairwise_bounds(topo, a)
    assert pairs == frozenset() and zeros == frozenset()


# ---------------------------------------------------------------------------
# group certificates for single-transmitter assignments
# ---------------------------------------------------------------------------


def test_certify_worked_example_exactly():
    _, lattice, assignment, L = toy_instance()
    cert = algorithm1_certify(lattice, assignment)
    got = [(g.nodes, g.bound, tuple(g.constraints), g.note) for g in cert.groups]
    a1, a2, a3 = L["a1"], L["a2"], L["a3"]
    b1, b2, b3 = L["b1"], L["b2"], L["b3"]
    c1, c2, c3 = L["c1"], L["c2"], L["c3"]
    assert got == [
        ((c1, c2), Fraction(1), (("pair", c1, c2),), "self-serving pair"),
        (
            (a3, b2),
            Fraction(1),
            (("pair", a3, b2), ("zero", b2)),
            "linking-triangle group",
        ),
        ((a1, a2), Fraction(1), (("zero", a1), ("pair", a2, a1)), "residual cell pair"),
        ((b1, b3), Fraction(1), (("pair", b1, b3), ("zero", b3)), "residual cell pair"),
        ((c3,), Fraction(0), (("zero", c3),), "residual unassigned"),
    ]
    assert cert.uncovered == frozenset()
    assert cert.bound_total == 4
    assert cert.certified_bound == 4
    assert validate_certificate(lattice, assignment, cert) == []


def test_certify_worked_example_shuffle_invariant():
    _, lattice, assignment, _ = toy_instance()
    reference = algorithm1_certify(lattice, assignment)
    ref_shape = {(frozenset(g.nodes), g.bound) for g in reference.groups}
    for seed in range(12):
        cert = algorithm1_certify(lattice, assignment, shuffle_seed=seed)
        assert cert.certified_bound == 4
        assert {(frozenset(g.nodes), g.bound) for g in cert.groups} == ref_shape
        assert validate_certificate(lattice, assignment, cert) == []


def test_certify_rejects_cooperation():
    _, lattice, _, _ = toy_instance()
    sets = {i: frozenset() for i in range(1, 10)}
    sets[1] = frozenset({1, 2})
    with pytest.raises(PreconditionViolationError):
        algorithm1_certify(lattice, MessageAssignment(K=9, transmit_sets=sets))


def test_certify_all_unassigned_groups_are_zero():
    _, lattice, _, _ = toy_instance()
    empty = MessageAssignment(K=9, transmit_sets={i: frozenset() for i in range(1, 10)})
    cert = algorithm1_certify(lattice, empty)
    for g in cert.groups:
        assert g.bound == 0
    assert cert.bound_total == len(cert.uncovered)
    assert validate_certificate(lattice, empty, cert) == []


def _random_single_tx_assignment(lattice, rng):
    sets = {}
    for i in sorted(lattice.coords):
        roll = rng.random()
        if roll < 0.35:
            sets[i] = frozenset()
        elif roll < 0.6:
            sets[i] = frozenset({i})
        else:
            sets[i] = frozenset({rng.choice(sorted(lattice.neighbors[i] | {i}))})
    return MessageAssignment(K=len(lattice.coords), transmit_sets=sets)


def test_certify_random_assignments_validate_and_stay_half():
    _, lattice = build_hexagonal(6)
    rng = random.Random(20260818)
    for _ in range(60):
        assignment = _random_single_tx_assignment(lattice, rng)
        cert = algorithm1_certify(lattice, assignment)
        assert validate_certificate(lattice, assignment, cert) == []
        covered = 0
        grouped_bound = Fraction(0)
        for g in cert.groups:
            assert g.bound <= Fraction(len(g.nodes), 2)
            covered += len(g.nodes)
            grouped_bound += g.bound
        assert grouped_bound <= Fraction(covered, 2)
        assert cert.certified_bound == int(grouped_bound + len(cert.uncovered))


def test_validate_certificate_flags_tampering():
    _, lattice, assignment, _ = toy_instance()
    cert = algorithm1_certify(lattice, assignment)
    g0 = cert.groups[0]
    fake = type(g0)(nodes=g0.nodes, bound=g0.bound + 1, constraints=g0.constraints, note=g0.note)
    tampered = type(cert)(
        groups=(fake,) + cert.groups[1:],
        uncovered=cert.uncovered,
        certified_bound=cert.certified_bound,
        bound_total=cert.bound_total,
    )
    problems = validate_certificate(lattice, assignment, tampered)
    assert any("solves to" in p for p in problems)
    assert any("bound_total" in p for p in problems)


def _lp_bound_reference(nodes, constraints):
    """Exact max of sum of d_i over d in {0, 1/2, 1} meeting the constraints.

    Pair constraints cap ``d_i + d_k <= 1`` (only when both endpoints
    are members); zero constraints force ``d_i = 0``.  Group sizes stay
    tiny, so plain enumeration over the half-integer grid is exact:
    every vertex of the pairing polytope is half-integral.
    """
    idx = {x: p for p, x in enumerate(nodes)}
    zero_pos = {idx[c[1]] for c in constraints if c[0] == "zero" and c[1] in idx}
    pair_pos = [
        (idx[c[1]], idx[c[2]])
        for c in constraints
        if c[0] == "pair" and c[1] in idx and c[2] in idx
    ]
    levels = (Fraction(0), Fraction(1, 2), Fraction(1))
    best = Fraction(0)
    for d in itertools.product(levels, repeat=len(nodes)):
        if any(d[p] for p in zero_pos):
            continue
        if any(d[a] + d[b] > 1 for a, b in pair_pos):
            continue
        best = max(best, sum(d, Fraction(0)))
    return best


def _random_system(rng, n):
    """``n`` members with zero facts, self-pairs and facts naming non-members."""
    nodes = tuple(sorted(rng.sample(range(1, 30), n)))
    pool = list(nodes) + [40, 41]  # 40 and 41 are never members
    constraints = []
    for _ in range(rng.randint(0, 2 * n + 2)):
        roll = rng.random()
        if roll < 0.15:
            constraints.append(("zero", rng.choice(pool)))
        elif roll < 0.25:
            x = rng.choice(pool)
            constraints.append(("pair", x, x))
        else:
            constraints.append(("pair", rng.choice(pool), rng.choice(pool)))
    return nodes, tuple(constraints)


# The reference costs 3^n points, so the sizes lean small; every size
# up to 8 still appears at least 15 times.
_SYSTEM_SIZES = {0: 100, 1: 300, 2: 700, 3: 1345, 4: 300, 5: 150, 6: 60, 7: 30, 8: 15}


def test_lp_bound_and_audit_match_enumeration():
    rng = random.Random(20261018)
    half = Fraction(1, 2)
    checked = 0
    for n, count in _SYSTEM_SIZES.items():
        for _ in range(count):
            nodes, constraints = _random_system(rng, n)
            optimum = _lp_bound_reference(nodes, constraints)
            assert _lp_bound(nodes, constraints) == 2 * optimum, (nodes, constraints)
            group = CertifiedGroup(nodes=nodes, bound=optimum, constraints=constraints)
            assert _bound_problems(group) == []
            for wrong in (optimum - half, optimum + half):
                problems = _bound_problems(
                    CertifiedGroup(nodes=nodes, bound=wrong, constraints=constraints)
                )
                assert problems == [
                    f"group {list(nodes)} records bound {wrong} but its system solves to {optimum}"
                ]
            checked += 1
    assert checked == 3000


def _greedy_schedule(topology, rng):
    """A seeded maximal interference-free schedule, built without the oracle."""
    pairs = [(r, t) for r in range(1, topology.K + 1) for t in sorted(topology.hears[r])]
    rng.shuffle(pairs)
    hears, chosen = topology.hears, []
    for r, t in pairs:
        if all(r != r2 and t != t2 and t2 not in hears[r] and t not in hears[r2] for r2, t2 in chosen):
            chosen.append((r, t))
    return AvoidanceSchedule(pairs=frozenset(chosen), value=len(chosen))


def _certificate_record() -> str:
    """The lattice geometry, certificates and audits the pinned digest covers, one JSON line each.

    Per lattice (the worked example, then hex n = 3, 5, 6, 9, 12): the
    sorted interior users and the complete cells; ``algorithm1_certify``
    under shuffle seeds None, 1 and 2 with its audit, on the worked
    example's assignment and on 8 seeded single-transmitter assignments
    per grid; and ``triangle_state_bound`` with its audit on the coset
    schedule and on a seeded greedy one.
    """
    rng = random.Random(20261018)
    lines = []

    def geometry(lattice):
        lines.append(json.dumps([sorted(lattice.interior), list(lattice.cells)]))

    def certify(lattice, assignment):
        for seed in (None, 1, 2):
            cert = algorithm1_certify(lattice, assignment, shuffle_seed=seed)
            lines.append(json.dumps([cert.to_json(), validate_certificate(lattice, assignment, cert)]))

    _, toy, toy_assignment, _ = toy_instance()
    geometry(toy)
    certify(toy, toy_assignment)
    for n in (3, 5, 6, 9, 12):
        topology, lattice = build_hexagonal(n)
        geometry(lattice)
        for _ in range(8):
            certify(lattice, _random_single_tx_assignment(lattice, rng))
        _, coset = hexagonal_coset_scheme(lattice)
        served = frozenset((i, i) for i in coset.active_messages)
        for schedule in (AvoidanceSchedule(pairs=served, value=len(served)), _greedy_schedule(topology, rng)):
            cert = triangle_state_bound(lattice, schedule)
            audit = validate_certificate(lattice, schedule_assignment(schedule, topology.K), cert)
            lines.append(json.dumps([cert.to_json(), audit]))
    return "\n".join(lines)


def test_certificates_are_pinned():
    # Any change to a certificate, an audit or the lattice geometry must
    # update this digest and record the reason in CHANGES.md.
    text = _certificate_record()
    assert len(text.splitlines()) == 139
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "93f255288dae54579d31a1115a72daa53718480254b12ba464bc38cb29eb33c5"
    )


def test_certify_calls_build_no_topology(monkeypatch):
    # The lattice carries its network; certifying and auditing reuse it.
    _, lattice = build_hexagonal(6)
    assignment = _random_single_tx_assignment(lattice, random.Random(7))
    _, coset = hexagonal_coset_scheme(lattice)
    served = frozenset((i, i) for i in coset.active_messages)
    schedule = AvoidanceSchedule(pairs=served, value=len(served))
    built = []
    original = NetworkTopology.__post_init__

    def counting(self):
        built.append(self.kind)
        original(self)

    monkeypatch.setattr(NetworkTopology, "__post_init__", counting)
    cert = algorithm1_certify(lattice, assignment)
    assert validate_certificate(lattice, assignment, cert) == []
    cert = triangle_state_bound(lattice, schedule)
    assert validate_certificate(lattice, schedule_assignment(schedule, 36), cert) == []
    assert built == []


_BAD_WITNESSES = {
    "not-maximum": {"_matching": lambda rows: {}},
    "not-a-matching": {"_matching": lambda rows: {c: 0 for row in rows for c in row}},
    "off-system-edges": {"_matching": lambda rows: {-1 - p: p for p in range(len(rows))}},
    "not-a-cover": {"_matching": lambda rows: {}, "_konig_cover": lambda *_: (set(), set())},
}


@pytest.mark.parametrize("bad", sorted(_BAD_WITNESSES))
def test_audit_rejects_a_bad_matching_witness(monkeypatch, bad):
    # A faulty matcher or cover can only make the audit reject.
    _, lattice, assignment, _ = toy_instance()
    cert = algorithm1_certify(lattice, assignment)
    for name, fake in _BAD_WITNESSES[bad].items():
        monkeypatch.setattr(converse, name, fake)
    problems = validate_certificate(lattice, assignment, cert)
    assert problems
    assert all("no matching-and-cover witness" in p for p in problems)


@pytest.mark.parametrize("where", ["grouped", "uncovered"])
def test_validate_certificate_flags_nodes_outside_lattice(where):
    _, lattice = build_hexagonal(3)
    assignment = MessageAssignment(K=9, transmit_sets={i: frozenset({i}) for i in range(1, 10)})
    cert = algorithm1_certify(lattice, assignment)
    assert validate_certificate(lattice, assignment, cert) == []
    groups, uncovered = cert.groups, cert.uncovered
    if where == "grouped":
        groups += (CertifiedGroup(nodes=(999,), bound=Fraction(1)),)
    else:
        uncovered |= {999}
    padded = GroupCertificate(
        groups=groups,
        uncovered=uncovered,
        certified_bound=cert.certified_bound + 1,
        bound_total=cert.bound_total + 1,
    )
    assert validate_certificate(lattice, assignment, padded) == [
        "nodes [999] are not nodes of the lattice"
    ]


def test_validate_certificate_rejects_self_pairs():
    # ("pair", i, i) caps d_i at 1/2; were it accepted, singleton groups
    # would certify 1 served user where the coset scheme serves 3.
    topology, lattice = build_hexagonal(3)
    assignment, scheme = hexagonal_coset_scheme(lattice)
    served = set(scheme.active_messages)
    groups = tuple(
        CertifiedGroup(nodes=(i,), bound=Fraction(1, 2), constraints=(("pair", i, i),))
        if i in served
        else CertifiedGroup(nodes=(i,), bound=Fraction(0), constraints=(("zero", i),))
        for i in sorted(lattice.coords)
    )
    total = Fraction(len(served), 2)
    cert = GroupCertificate(
        groups=groups, uncovered=frozenset(), certified_bound=int(total), bound_total=total
    )
    assert cert.certified_bound == 1
    assert max_activation_for_assignment(topology, assignment)[0] == 3
    problems = validate_certificate(lattice, assignment, cert)
    assert all("is not a fact" in p for p in problems)
    assert len(problems) == len(served)


# ---------------------------------------------------------------------------
# schedule-driven accounting on the lattice
# ---------------------------------------------------------------------------


def test_state_bound_on_coset_schedule():
    _, lattice = build_hexagonal(6)
    _, scheme = hexagonal_coset_scheme(lattice)
    schedule = AvoidanceSchedule(
        pairs=frozenset((i, i) for i in scheme.active_messages),
        value=len(scheme.active_messages),
    )
    cert = triangle_state_bound(lattice, schedule)
    assert len(cert.groups) == 9
    for g in cert.groups:
        assert g.note == "cell state 1 with 0 linked services"
        assert g.bound == 1
    assert len(cert.uncovered) == 9
    assert cert.certified_bound == 18
    assert cert.certified_bound >= schedule.value
    assert validate_certificate(lattice, schedule_assignment(schedule, len(lattice.coords)), cert) == []


def test_state_bound_on_empty_schedule():
    _, lattice = build_hexagonal(6)
    cert = triangle_state_bound(lattice, AvoidanceSchedule(pairs=frozenset(), value=0))
    assert all(g.bound == 0 for g in cert.groups)
    assert len(cert.groups) == 9 and len(cert.uncovered) == 9
    assert cert.certified_bound == 9


@pytest.mark.parametrize(("n", "optimum"), [(6, 15), (7, 20)], ids=["6", "7"])
def test_state_bound_covers_optimal_schedule(n, optimum):
    topo, lattice = build_hexagonal(n)
    value, witness = max_avoidance_m1(topo, node_limit=topo.K)
    cert = triangle_state_bound(lattice, witness)
    assert cert.certified_bound >= value == optimum
    for g in cert.groups:
        assert g.bound <= Fraction(3, 7) * len(g.nodes), (g.nodes, g.bound)
    assert validate_certificate(lattice, schedule_assignment(witness, topo.K), cert) == []


def test_state_bound_rejects_invalid_schedule():
    _, lattice = build_hexagonal(3)
    bad = AvoidanceSchedule(pairs=frozenset({(1, 1), (2, 1)}), value=2)
    with pytest.raises(PreconditionViolationError):
        triangle_state_bound(lattice, bad)


@pytest.mark.parametrize("pair", [(99, 99), (0, 1), (1, 99)], ids=["99-99", "0-1", "1-99"])
def test_state_bound_rejects_users_outside_lattice(pair):
    _, lattice = build_hexagonal(3)
    schedule = AvoidanceSchedule(pairs=frozenset({pair}), value=1)
    with pytest.raises(PreconditionViolationError, match="outside 1..9"):
        triangle_state_bound(lattice, schedule)


# ---------------------------------------------------------------------------
# chain networks under a backhaul budget
# ---------------------------------------------------------------------------


def test_budget_scan_on_block_scheme():
    a, s = wyner_backhaul_scheme(8, 1)
    res = backhaul_converse(a, 1)
    assert res.M == 0
    assert res.S == (3, 7)
    assert res.A_bar == (3, 7)
    assert res.bound == 6 == res.K - res.A_bar_size
    assert res.scanned == {0: 6, 1: 6}
    assert res.bound - len(s.active_messages) < 2 * metrics(a).M + 1


def test_budget_scan_is_tight_at_forty():
    a, _ = wyner_backhaul_scheme(40, 1)
    res = backhaul_converse(a, 1)
    assert res.bound == 30
    assert res.slack == 0


def test_budget_scan_higher_budget():
    a, _ = wyner_backhaul_scheme(16, 2)
    res = backhaul_converse(a, 2)
    assert res.bound == 14
    assert res.bound - 14 < 2 * metrics(a).M + 1


def test_budget_scan_self_service_walk_soundness():
    # K = 7: all three spaced candidates fit, matching the plain count
    a7 = MessageAssignment(K=7, transmit_sets={i: frozenset({i}) for i in range(1, 8)})
    res7 = backhaul_converse(a7, 1)
    assert res7.bound == 5 and res7.M == 1 and res7.A_bar == (2, 5)
    # K = 8: the last candidate's forward window leaves the chain and is
    # dropped, keeping every certified deactivation reconstructible
    a8 = MessageAssignment(K=8, transmit_sets={i: frozenset({i}) for i in range(1, 9)})
    res8 = backhaul_converse(a8, 1)
    assert res8.bound == 6 and res8.A_bar == (2, 5)
    A, reduced = appendix_receiver_set(a8, res8.M)
    assert reconstructibility_check(build_wyner(8), reduced, A)


def test_budget_scan_parameter_errors():
    a, _ = wyner_backhaul_scheme(8, 1)
    with pytest.raises(UnsupportedError):
        backhaul_converse(a, Fraction(3, 2))
    with pytest.raises(InvalidParameterError):
        backhaul_converse(a, 0)
    for B in (float("nan"), float("inf"), "1", True):
        with pytest.raises(InvalidParameterError):
            backhaul_converse(a, B)
    a2, _ = wyner_backhaul_scheme(8, 2)
    with pytest.raises(PreconditionViolationError):
        backhaul_converse(a2, 1)


def test_receiver_set_reconstructs_block_schemes():
    for K, B in [(8, 1), (16, 2), (40, 1)]:
        a, _ = wyner_backhaul_scheme(K, B)
        res = backhaul_converse(a, B)
        A, reduced = appendix_receiver_set(a, res.M)
        assert len(A) == res.bound
        assert reconstructibility_check(build_wyner(K), reduced, A)
    for M in (-1, 1.5, True):
        with pytest.raises(InvalidParameterError):
            appendix_receiver_set(a, M)


def test_reconstruction_walk_extremes():
    K = 6
    topo = build_wyner(K)
    all_self = MessageAssignment(K=K, transmit_sets={i: frozenset({i}) for i in range(1, K + 1)})
    assert reconstructibility_check(topo, all_self, frozenset(range(1, K + 1)))
    assert not reconstructibility_check(topo, all_self, frozenset())


def test_reconstruction_walk_monotone_in_receivers():
    topo = build_wyner(8)
    a, _ = wyner_backhaul_scheme(8, 1)
    res = backhaul_converse(a, 1)
    A, reduced = appendix_receiver_set(a, res.M)
    assert reconstructibility_check(topo, reduced, A)
    assert reconstructibility_check(topo, reduced, A | frozenset({3}))


def test_reconstruction_walk_requires_chain():
    a = MessageAssignment(K=9, transmit_sets={i: frozenset() for i in range(1, 10)})
    with pytest.raises(PreconditionViolationError):
        reconstructibility_check(build_two_dim(9), a, frozenset())
    with pytest.raises(PreconditionViolationError):
        reconstructibility_check(build_locally_connected(9, 2), a, frozenset())
    assert reconstructibility_check(build_locally_connected(9, 1), a, frozenset())


def _random_budgeted_assignment(K, rng):
    budget = K
    sets = {}
    for i in range(1, K + 1):
        size = rng.choice([0, 0, 1, 1, 1, 2])
        size = min(size, budget)
        budget -= size
        lo, hi = max(1, i - 2), min(K, i + 1)
        sets[i] = frozenset(rng.sample(range(lo, hi + 1), min(size, hi - lo + 1)))
    return MessageAssignment(K=K, transmit_sets=sets)


def test_budget_scan_dominates_exact_activation():
    K = 12
    topo = build_wyner(K)
    rng = random.Random(7)
    for _ in range(25):
        a = _random_budgeted_assignment(K, rng)
        assert metrics(a).B <= 1
        res = backhaul_converse(a, 1)
        value, _ = max_activation_for_assignment(topo, a)
        assert res.bound >= value, (a.transmit_sets, res.bound, value)
        for M in (0, 1):
            A, reduced = appendix_receiver_set(a, M)
            assert reconstructibility_check(topo, reduced, A)


def test_reconstruction_walk_rejects_receivers_that_are_not_users():
    topo = build_wyner(4)
    a = MessageAssignment(K=4, transmit_sets={i: frozenset({i}) for i in range(1, 5)})
    for A in ({1, 2, 2.5}, {True, 2, 3}, {1, 2.0}, {0, 1}, {5}):
        with pytest.raises(InvalidParameterError, match="not an int in 1..4"):
            reconstructibility_check(topo, a, A)


# References for the backhaul chain: the sweep walk and the full trimming
# pass that the worklist walk and the windowed copy replaced.


def _reference_candidates(assignment, M):
    K = assignment.K
    S = [i for i in range(1, K + 1) if len(assignment.transmit_sets[i]) <= M]
    return S, [s for s in S[M :: 2 * M + 1] if s + M <= K]


def _sweep_walk(topology, assignment, A):
    """Reference walk: sweep ``A`` ascending until a pass resolves nothing."""
    K = topology.K
    carried_for_outside = set()
    for i in range(1, K + 1):
        if i not in A:
            carried_for_outside.update(assignment.transmit_sets[i])
    known = set(range(1, K + 1)) - carried_for_outside
    changed = True
    while changed:
        changed = False
        for j in sorted(A):
            unknown = [t for t in topology.hears[j] if t not in known]
            if len(unknown) == 1:
                known.add(unknown[0])
                changed = True
    return len(known) == K


def _trimmed_receiver_set(assignment, M):
    """Reference receiver set: rebuild every transmit set, windowing the low-cooperation ones."""
    K = assignment.K
    S, kept = _reference_candidates(assignment, M)
    in_S = set(S)
    reduced = {}
    for i in range(1, K + 1):
        T = assignment.transmit_sets[i]
        if i in in_S:
            T = frozenset(t for t in T if i - M <= t <= i + M - 1)
        reduced[i] = T
    return frozenset(range(1, K + 1)) - set(kept), MessageAssignment(K=K, transmit_sets=reduced)


def _scan_reference(assignment, B):
    """Reference scan over every cutoff ``M < 2B``, keeping the first smallest bound."""
    K = assignment.K
    best, scanned = None, {}
    for M in range(2 * B):
        S, kept = _reference_candidates(assignment, M)
        scanned[M] = K - len(kept)
        if best is None or scanned[M] < best[0]:
            best = (scanned[M], M, tuple(S), tuple(kept))
    bound, M, S, kept = best
    slack = Fraction(bound) - Fraction((4 * B - 1) * K, 4 * B)
    return converse.BackhaulConverseResult(M, S, kept, len(kept), bound, K, slack, scanned)


def _budgeted_chain(K, B, rng):
    budget, sets = B * K, {}
    for i in range(1, K + 1):
        lo, hi = max(1, i - 2 * B), min(K, i + 2 * B - 1)
        size = min(rng.randint(0, 2 * B), budget, hi - lo + 1)
        budget -= size
        sets[i] = frozenset(rng.sample(range(lo, hi + 1), size))
    return MessageAssignment(K=K, transmit_sets=sets)


def test_backhaul_chain_matches_the_references_on_random_chains():
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for draw in range(2000):
        K, B = rng.randint(1, 40), rng.randint(1, 3)
        topo = build_wyner(K) if draw % 2 else build_locally_connected(K, 1)
        a = _budgeted_chain(K, B, rng)
        A = frozenset(i for i in range(1, K + 1) if rng.random() < 0.8)
        verdict = reconstructibility_check(topo, a, A)
        assert verdict == _sweep_walk(topo, a, A), (a.transmit_sets, A)
        verdicts[verdict] += 1
        for M in range(2 * B + 1):
            pair = appendix_receiver_set(a, M)
            assert pair == _trimmed_receiver_set(a, M)
            assert reconstructibility_check(topo, pair[1], pair[0]) == _sweep_walk(topo, pair[1], pair[0])
        # a budget with 2B > K scans only the cutoffs M < K, and the result
        # is the one the full scan picks
        expected = _scan_reference(a, B).to_json()
        expected["scanned"] = {m: v for m, v in expected["scanned"].items() if int(m) < K}
        assert backhaul_converse(a, B).to_json() == expected
    assert min(verdicts.values()) >= 500, verdicts


@pytest.mark.parametrize("B", [1, 2, 3])
def test_backhaul_chain_matches_the_references_at_sweep_sizes(B):
    rng = random.Random(B)
    for K in (240, 480, 720, 960):
        topo = build_wyner(K)
        for a in (wyner_backhaul_scheme(K, B)[0], _budgeted_chain(K, B, rng)):
            assert backhaul_converse(a, B).to_json() == _scan_reference(a, B).to_json()
            for M in range(2 * B):
                A, reduced = appendix_receiver_set(a, M)
                assert (A, reduced) == _trimmed_receiver_set(a, M)
                assert reconstructibility_check(topo, reduced, A) and _sweep_walk(topo, reduced, A)


def test_reconstruction_walk_cost_does_not_grow_with_users():
    # one deactivated user: the walk reads only the rows near it, where the
    # sweep reads every row of A at least twice
    counts = []
    for K in (96, 7680):
        topo = build_wyner(K)
        tally = [0]
        topo.hears = _CountingVector(topo.hears, tally)
        topo._hearers = _CountingVector(topo._hearers, tally)
        a, _ = wyner_backhaul_scheme(K, 2)
        A = frozenset(range(1, K + 1)) - {6}
        assert reconstructibility_check(topo, a, A)
        counts.append(tally[0])
        if K == 96:
            tally[0] = 0
            assert _sweep_walk(topo, a, A)
            assert tally[0] >= 2 * len(A)
    assert counts[0] == counts[1] > 0, counts
