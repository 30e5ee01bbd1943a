"""Certified upper bounds: pairwise facts, group certificates, budget scans."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    max_activation_for_assignment,
    max_avoidance_m1,
    metrics,
    reconstructibility_check,
    schedule_assignment,
    triangle_state_bound,
    validate_certificate,
    validate_schedule,
    wyner_backhaul_scheme,
)
from coopzf import _rank, converse
from coopzf.converse import _dual_problems, _lp_bound
from test_zf_engine import _CountingVector
from worked_example import toy_instance


# ---------------------------------------------------------------------------
# pairwise facts
# ---------------------------------------------------------------------------


def _expanded_facts(topology, assignment):
    """``_facts`` as ``(pairs, zeros)``, with one ``(i, k)`` tuple per conflict."""
    rivals, zeros = converse._facts(topology, assignment)
    return frozenset((i, k) for i, heard in rivals.items() for k in heard if k != i), zeros


def test_pairwise_facts_on_worked_example():
    topology, _, assignment, L = toy_instance()
    pairs, zeros = _expanded_facts(topology, assignment)
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
        converse._facts(topo, a)


def test_pairwise_facts_isolated_self_server():
    topo = build_locally_connected(1, 0)
    a = MessageAssignment(K=1, transmit_sets={1: frozenset({1})})
    pairs, zeros = _expanded_facts(topo, a)
    assert pairs == frozenset() and zeros == frozenset()


def _reference_lemma(topology, assignment):
    """The lemma spelled out as one ``(i, k)`` tuple per conflict, the reference for ``_facts``."""
    if topology.K != assignment.K:
        raise InvalidParameterError("topology and assignment sizes disagree")
    pairs, zeros = set(), set()
    for i in range(1, assignment.K + 1):
        T = assignment.transmit_sets[i]
        if len(T) > 1:
            raise PreconditionViolationError(
                f"message {i} uses {len(T)} transmitters; at most one allowed"
            )
        if not T & topology.hears[i]:
            zeros.add(i)
            continue
        (j,) = T
        pairs.update((i, k) for k in topology.hearers(j) if k != i)
    return frozenset(pairs), frozenset(zeros)


def _mixed_single_tx_assignment(topology, rng):
    """Each message unassigned, self-served, on a heard neighbour or on an inaudible transmitter."""
    sets = {}
    for i in range(1, topology.K + 1):
        roll = rng.random()
        deaf = sorted(set(range(1, topology.K + 1)) - topology.hears[i])
        if roll < 0.25 or (roll >= 0.75 and not deaf):
            sets[i] = frozenset()
        elif roll < 0.45:
            sets[i] = frozenset({i})
        elif roll < 0.75:
            sets[i] = frozenset({rng.choice(sorted(topology.hears[i]))})
        else:
            sets[i] = frozenset({rng.choice(deaf)})
    return MessageAssignment(K=topology.K, transmit_sets=sets)


def _fact_instances():
    yield toy_instance()[0]
    for n in range(1, 13):
        yield build_hexagonal(n)[0]


def test_facts_expand_to_the_tuple_lemma():
    rng = random.Random(30)
    inaudible = 0
    for topology in _fact_instances():
        for _ in range(4):
            assignment = _mixed_single_tx_assignment(topology, rng)
            rivals, _ = converse._facts(topology, assignment)
            for i, heard in rivals.items():
                (j,) = assignment.transmit_sets[i]
                assert heard is topology.hearers(j)  # read, not copied
            assert _expanded_facts(topology, assignment) == _reference_lemma(topology, assignment)
            inaudible += sum(
                1 for i, T in assignment.transmit_sets.items() if T and not T & topology.hears[i]
            )
    assert inaudible > 0


@pytest.mark.parametrize(
    "sets",
    [
        {i: frozenset() for i in range(1, 9)},  # K=8 on the 9-node lattice
        {i: frozenset({i, 9 - i}) for i in range(1, 9)},  # both errors: the size is reported
        {**{i: frozenset({i}) for i in range(1, 10)}, 5: frozenset({4, 5}), 7: frozenset({1, 2, 3})},
    ],
    ids=["sizes", "sizes-and-cooperation", "cooperation"],
)
def test_facts_raise_the_tuple_lemmas_errors(sets):
    topology, _ = build_hexagonal(3)
    assignment = MessageAssignment(K=len(sets), transmit_sets=sets)
    with pytest.raises((InvalidParameterError, PreconditionViolationError)) as expected:
        _reference_lemma(topology, assignment)
    with pytest.raises(type(expected.value)) as got:
        converse._facts(topology, assignment)
    assert str(got.value) == str(expected.value)


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
    fake = dataclasses.replace(g0, bound=g0.bound + 1)
    tampered = type(cert)(
        groups=(fake,) + cert.groups[1:],
        uncovered=cert.uncovered,
        certified_bound=cert.certified_bound,
        bound_total=cert.bound_total,
    )
    problems = validate_certificate(lattice, assignment, tampered)
    assert f"group {list(g0.nodes)} records bound {g0.bound + 1} but its multipliers sum to {g0.bound}" in problems
    assert any("bound_total" in p for p in problems)


def test_certificate_total_is_exact_for_any_recorded_bounds():
    # Tampered bounds need not be halves; the total must still be exact.
    _, lattice = build_hexagonal(3)
    assignment = MessageAssignment(K=9, transmit_sets={i: frozenset({i}) for i in range(1, 10)})
    groups = (
        CertifiedGroup(nodes=(1,), bound=Fraction(1, 3)),
        CertifiedGroup(nodes=(2,), bound=Fraction(2, 7)),
    )

    def problems(bound_total):
        cert = GroupCertificate(
            groups=groups,
            uncovered=frozenset(range(3, 10)),
            certified_bound=7,
            bound_total=bound_total,
        )
        return validate_certificate(lattice, assignment, cert)

    exact = problems(Fraction(160, 21))  # 1/3 + 2/7 + 7
    assert exact == [
        "group [1] records bound 1/3 but its multipliers sum to 1",
        "group [2] records bound 2/7 but its multipliers sum to 1",
    ]
    for wrong in (Fraction(160, 21) + Fraction(1, 10**12), Fraction(31, 4), 7):
        assert any("bound_total" in p for p in problems(wrong)), wrong


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
            twice, live, matching = _lp_bound(nodes, constraints)
            assert twice == 2 * optimum, (nodes, constraints)
            halves = tuple((live[p], k) for k, p in matching.items())
            group = CertifiedGroup(nodes=nodes, bound=optimum, constraints=constraints, halves=halves)
            assert _dual_problems(group) == []
            for wrong in (optimum - half, optimum + half):
                problems = _dual_problems(dataclasses.replace(group, bound=wrong))
                assert problems == [
                    f"group {list(nodes)} records bound {wrong} but its multipliers sum to {optimum}"
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
        "709ae7e33bd8762e64b0860a0d5228c35bf3f879fef13ac461907bac5b68e7f6"
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


def test_audit_runs_no_matcher(monkeypatch):
    cases = []
    for n in (6, 12):
        _, lattice = build_hexagonal(n)
        assignment = _random_single_tx_assignment(lattice, random.Random(n))
        cases.append((lattice, assignment, algorithm1_certify(lattice, assignment)))
        _, coset = hexagonal_coset_scheme(lattice)
        served = frozenset((i, i) for i in coset.active_messages)
        schedule = AvoidanceSchedule(pairs=served, value=len(served))
        cases.append((lattice, schedule_assignment(schedule, n * n), triangle_state_bound(lattice, schedule)))

    def refuse(*_):
        raise AssertionError("the audit ran a solver")

    for name in ("_matching", "_double_cover", "_lp_bound"):
        monkeypatch.setattr(converse, name, refuse)
    monkeypatch.setattr(_rank, "_matching", refuse)
    assert all(any(g.halves for g in cert.groups) for _, _, cert in cases[::2])
    for lattice, assignment, cert in cases:
        assert validate_certificate(lattice, assignment, cert) == []


_FAULTY_MATCHERS = {
    "empty": lambda rows: {},
    "one-member-many-columns": lambda rows: {c: 0 for row in rows for c in row},
    "off-system-edges": lambda rows: {-1 - p: p for p in range(len(rows))},
}


@pytest.mark.parametrize("faulty", sorted(_FAULTY_MATCHERS))
def test_a_faulty_matcher_gives_a_sound_certificate_or_a_rejected_one(monkeypatch, faulty):
    _, lattice, assignment, _ = toy_instance()
    honest = algorithm1_certify(lattice, assignment)
    monkeypatch.setattr(converse, "_matching", _FAULTY_MATCHERS[faulty])
    cert = algorithm1_certify(lattice, assignment)
    problems = validate_certificate(lattice, assignment, cert)
    if faulty == "empty":
        # No halves: every live member keeps its whole unit, a looser bound.
        assert problems == []
        assert cert.bound_total > honest.bound_total
    else:
        assert problems
        assert all("puts a half on" in p or "more than two halves" in p for p in problems)


def _regroup(cert, gid, halves, shift=Fraction(0)):
    """``cert`` with group ``gid`` holding ``halves`` at a bound ``shift`` above their value, and totals to match."""
    g = cert.groups[gid]
    live = len(set(g.nodes) - {c[1] for c in g.constraints if c[0] == "zero"})
    new = dataclasses.replace(g, halves=halves, bound=live - Fraction(len(halves), 2) + shift)
    total = cert.bound_total - g.bound + new.bound
    return dataclasses.replace(
        cert,
        groups=cert.groups[:gid] + (new,) + cert.groups[gid + 1:],
        bound_total=total,
        certified_bound=int(total),
    )


def test_audit_rejects_tampered_halves():
    _, lattice, assignment, L = toy_instance()
    cert = algorithm1_certify(lattice, assignment)
    c1, c2, a1, a3, b2 = L["c1"], L["c2"], L["a1"], L["a3"], L["b2"]
    assert cert.groups[0].halves == ((c1, c2), (c2, c1))  # the pair (c1, c2) at bound 1
    assert cert.groups[1].constraints == (("pair", a3, b2), ("zero", b2))
    honest = cert.groups[0].halves
    half = Fraction(1, 2)

    def problems(tampered):
        return validate_certificate(lattice, assignment, tampered)

    pair = f"group {[c1, c2]}"
    assert problems(_regroup(cert, 0, honest[:1], -half)) == [f"{pair} records bound 1 but its multipliers sum to 3/2"]
    for unrecorded in ((c1, a1), (c1, c1)):  # a non-member, and a self-pair no constraint records
        assert problems(_regroup(cert, 0, (unrecorded, (c2, c1)))) == [
            f"{pair} puts a half on {unrecorded}, not a recorded pair of live members"
        ]
    assert problems(_regroup(cert, 1, ((a3, b2),))) == [
        f"group {[a3, b2]} puts a half on {(a3, b2)}, not a recorded pair of live members"
    ]
    # Three halves on each member would prove 1/2, but leave them no slack.
    assert problems(_regroup(cert, 0, honest + ((c1, c2),))) == [
        f"{pair} puts more than two halves on member {c1}",
        f"{pair} puts more than two halves on member {c2}",
    ]
    assert problems(_regroup(cert, 0, honest)) == []
    for shift in (half, -half):
        assert problems(_regroup(cert, 0, honest, shift)) == [
            f"{pair} records bound {1 + shift} but its multipliers sum to 1"
        ]


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


def test_validate_certificate_names_a_broken_partition():
    # group (2, 5) twice, node 2 also uncovered, nodes 7 and 9 nowhere
    _, lattice = build_hexagonal(3)
    assignment = MessageAssignment(K=9, transmit_sets={i: frozenset({i}) for i in range(1, 10)})
    cert = algorithm1_certify(lattice, assignment)
    g0 = cert.groups[0]
    assert g0.nodes == (2, 5)
    broken = GroupCertificate(
        groups=(g0, g0),
        uncovered=frozenset({1, 2, 3, 4, 6, 8}),
        certified_bound=cert.certified_bound,
        bound_total=cert.bound_total,
    )
    assert validate_certificate(lattice, assignment, broken)[:4] == [
        "node 2 appears in more than one group",
        "node 5 appears in more than one group",
        "nodes [2] are both grouped and uncovered",
        "nodes [7, 9] are in no group and not uncovered",
    ]


def test_validate_certificate_rejects_self_pairs():
    # ("pair", i, i) caps d_i at 1/2; were it accepted, singleton groups
    # would certify 1 served user where the coset scheme serves 3.
    topology, lattice = build_hexagonal(3)
    assignment, scheme = hexagonal_coset_scheme(lattice)
    served = set(scheme.active_messages)
    groups = tuple(
        CertifiedGroup(nodes=(i,), bound=Fraction(1, 2), constraints=(("pair", i, i),), halves=((i, i),))
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


def _reference_select(facts, subjects, members):
    pairs, zeros = facts
    out = []
    for i in subjects:
        if i in zeros:
            out.append(("zero", i))
        else:
            out.extend(("pair", i, k) for k in members if (i, k) in pairs)
    return out


def _reference_dual(g):
    """The group's halves read as explicit multipliers: ½ on a pair fact per entry, a slack per live member."""
    where = f"group {list(g.nodes)}"
    zeros = [c[1] for c in g.constraints if c[0] == "zero"]
    live = [x for x in dict.fromkeys(g.nodes) if x not in zeros]
    pairs = [c[1:] for c in g.constraints if c[0] == "pair" and len(c) == 3]
    covered = {x: Fraction(0) for x in live}
    problems = []
    for h in g.halves:
        if type(h) is tuple and len(h) == 2 and all(type(x) is int and x in live for x in h) and (
            h in pairs or h[::-1] in pairs
        ):
            covered[h[0]] += Fraction(1, 2)
            covered[h[1]] += Fraction(1, 2)
        else:
            problems.append(f"{where} puts a half on {h!r}, not a recorded pair of live members")
    problems += [f"{where} puts more than two halves on member {x}" for x in live if covered[x] > 1]
    value = sum((1 - w for w in covered.values()), Fraction(len(g.halves), 2))
    if not problems and value != g.bound:
        problems.append(f"{where} records bound {g.bound} but its multipliers sum to {value}")
    return problems


def _reference_group_audit(lattice, assignment, certificate):
    """Each group's problems, found by matching constraints against the expanded facts."""
    facts = _reference_lemma(lattice.topology, assignment)
    problems = []
    for g in certificate.groups:
        allowed = set(_reference_select(facts, g.nodes, g.nodes))
        for c in g.constraints:
            if c not in allowed:
                problems.append(f"{c} is not a fact of this assignment within {list(g.nodes)}")
        problems.extend(_reference_dual(g))
    return problems


def _as_bool_and_float(c):
    """The constraint with user 1 written as ``True`` and user 2 as ``2.0``."""
    return tuple({1: True, 2: 2.0}.get(x, x) if type(x) is int else x for x in c)


def _tamperings(topology, certificate, assignment, other):
    """``(case, group index, constraints)``: one group's constraints, tampered one way."""
    pairs, zeros = _reference_lemma(topology, assignment)
    foreign = _reference_lemma(topology, other)[0] - pairs
    for gid, g in enumerate(certificate.groups):
        members, recorded = set(g.nodes), g.constraints
        outside = set(topology.hears) - members
        recorded_zeros = [c[1] for c in recorded if c[0] == "zero"]
        for i in g.nodes:
            yield "self-pair", gid, recorded + (("pair", i, i),)
            if i in zeros:
                yield from (("zero subject", gid, recorded + (("pair", i, k),)) for k in members - {i})
            else:
                yield "zero of a served node", gid, recorded + (("zero", i),)
        for i, k in sorted(pairs):
            if i in members and k in outside:
                yield "pair across groups", gid, recorded + (("pair", i, k),)
            if i in members and k in members:
                yield "both", gid, recorded + (("both", i, k),)
        for i, k in sorted(foreign):
            if i in members and k in members:
                yield "pair of another assignment", gid, recorded + (("pair", i, k),)
        for i in recorded_zeros:
            # A short pair must name a recorded zero: the witness reads
            # the third entry of a pair whose subject is live.
            yield "pair without k", gid, recorded + (("pair", i),)
            yield from (("zero with k", gid, recorded + (("zero", i, k),)) for k in g.nodes)
        if any(x in (1, 2) for c in recorded for x in c[1:]):
            yield "true and 2.0 as users", gid, tuple(map(_as_bool_and_float, recorded))
            yield "true and 2.0 as users", gid, recorded + (("zero", True), ("pair", 2.0, 2.0))


def test_auditor_rejects_what_the_expanded_facts_reject():
    rng = random.Random(7)
    _, toy_lattice, toy_assignment, _ = toy_instance()
    instances = [(toy_lattice, toy_assignment)]
    for n in (3, 4, 6):
        _, lattice = build_hexagonal(n)
        instances += [(lattice, _mixed_single_tx_assignment(lattice.topology, rng)) for _ in range(3)]
    seen: dict[str, int] = {}
    accepted: set[str] = set()
    for lattice, assignment in instances:
        topology = lattice.topology
        certificate = algorithm1_certify(lattice, assignment)
        other = _mixed_single_tx_assignment(topology, rng)
        picked: dict[str, int] = {}
        for case, gid, constraints in _tamperings(topology, certificate, assignment, other):
            if picked.get(case, 0) == 3:
                continue
            picked[case] = picked.get(case, 0) + 1
            g = dataclasses.replace(certificate.groups[gid], constraints=constraints)
            tampered = dataclasses.replace(
                certificate, groups=certificate.groups[:gid] + (g,) + certificate.groups[gid + 1:]
            )
            reference = _reference_group_audit(lattice, assignment, tampered)
            assert validate_certificate(lattice, assignment, tampered) == reference, (case, constraints)
            rejected = any("is not a fact" in p for p in reference)
            seen[case] = seen.get(case, 0) + rejected
            if not rejected:
                accepted.add(case)
    assert sorted(seen) == [
        "both",
        "pair across groups",
        "pair of another assignment",
        "pair without k",
        "self-pair",
        "true and 2.0 as users",
        "zero of a served node",
        "zero subject",
        "zero with k",
    ]
    # Every tampering kind was rejected somewhere; facts naming True or 2.0
    # for users 1 and 2 were accepted, as the expanded facts accept them.
    assert all(seen.values())
    assert "true and 2.0 as users" in accepted


@pytest.mark.parametrize("constraint", [["pair", 2, 1], ["zero", 1], "zero"], ids=["pair-list", "zero-list", "str"])
def test_auditor_reports_a_constraint_that_is_not_a_tuple(constraint):
    _, lattice, assignment, _ = toy_instance()
    certificate = algorithm1_certify(lattice, assignment)
    g = certificate.groups[2]
    tampered_group = dataclasses.replace(g, constraints=g.constraints + (constraint,))
    tampered = dataclasses.replace(
        certificate, groups=certificate.groups[:2] + (tampered_group,) + certificate.groups[3:]
    )
    problems = validate_certificate(lattice, assignment, tampered)
    assert f"{constraint} is not a fact of this assignment within [1, 2]" in problems


@pytest.mark.parametrize(
    "constraint",
    [("pair", 7), ("pair",), ("zero",), None, 7, ("zero", [7])],
    ids=["pair-i", "pair", "zero", "none", "int", "unhashable"],
)
def test_auditor_reports_a_misshapen_constraint_without_raising(constraint):
    # Group (7, 8) holds the live pair 7-8, so the witness would read c[1]
    # and c[2] of every constraint it is given.
    _, lattice, assignment, _ = toy_instance()
    certificate = algorithm1_certify(lattice, assignment)
    g = certificate.groups[0]
    assert g.nodes == (7, 8)
    tampered_group = dataclasses.replace(g, constraints=g.constraints + (constraint,))
    tampered = dataclasses.replace(certificate, groups=(tampered_group,) + certificate.groups[1:])
    problems = validate_certificate(lattice, assignment, tampered)
    assert problems == [f"{constraint} is not a fact of this assignment within [7, 8]"]


@pytest.mark.parametrize(
    "constraint",
    [("zero",), ("pair", 7), None, 7, "zero", ("junk", 7), ("zero", 8, 7), ("pair", 7, 8, 9), ["pair", 7, 8]],
    ids=["zero", "pair-i", "none", "int", "str", "unknown-tag", "zero-i-k", "pair-i-k-l", "list"],
)
def test_group_to_json_names_a_malformed_constraint(constraint):
    well_formed = CertifiedGroup(nodes=(7, 8), bound=Fraction(1), constraints=(("pair", 7, 8), ("zero", 8)))
    assert well_formed.to_json()["constraints"] == [{"kind": "pair", "i": 7, "k": 8}, {"kind": "zero", "i": 8}]
    group = dataclasses.replace(well_formed, constraints=well_formed.constraints + (constraint,))
    with pytest.raises(InvalidParameterError) as raised:
        group.to_json()
    assert str(raised.value) == f"group [7, 8] holds a malformed constraint {constraint!r}"


_USERS = st.lists(st.integers(min_value=-1, max_value=10), max_size=3)
_CONSTRAINTS = st.one_of(
    st.builds(lambda tag, users: (tag, *users), st.sampled_from(("pair", "zero")), _USERS),
    st.none(),
    st.integers(),
    st.text(max_size=4),
    st.booleans(),
    st.floats(),
    _USERS,
)


_HALVES = st.one_of(
    st.tuples(st.integers(min_value=-1, max_value=10), st.integers(min_value=-1, max_value=10)),
    st.builds(tuple, _USERS),
    _USERS,
    st.tuples(st.integers(min_value=-1, max_value=10), st.one_of(st.booleans(), st.floats(), st.text(max_size=2))),
    st.tuples(st.integers(min_value=-1, max_value=10), _USERS),
    st.none(),
    st.integers(),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(_CONSTRAINTS, min_size=1, max_size=3),
    st.lists(_HALVES, max_size=3),
    st.sampled_from((tuple, list, str)),
    st.sampled_from(("honest", 1.0, 0.5, "1", None, Fraction(1, 2))),
)
def test_auditor_and_group_writer_are_total(extra, extra_halves, container, bound):
    # Whatever a group records, the auditor answers with problems and the
    # writer either names a malformed constraint or half or writes each one back.
    _, lattice = build_hexagonal(3)
    assignment, _ = hexagonal_coset_scheme(lattice)
    certificate = algorithm1_certify(lattice, assignment)
    g0 = certificate.groups[0]
    g = dataclasses.replace(
        g0,
        constraints=g0.constraints + tuple(extra),
        halves=container(g0.halves + tuple(extra_halves)),
        bound=g0.bound if bound == "honest" else bound,
    )
    tampered = dataclasses.replace(certificate, groups=(g,) + certificate.groups[1:])
    problems = validate_certificate(lattice, assignment, tampered)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
    if (extra_halves and bound == "honest") or container is not tuple or not isinstance(g.bound, Fraction):
        assert problems
    try:
        written = g.to_json()
    except InvalidParameterError:
        return
    assert [tuple(d.values()) for d in written["constraints"]] == list(g.constraints)
    assert [tuple(h) for h in written["halves"]] == list(g.halves)


def _self_serving_certificate():
    _, lattice = build_hexagonal(3)
    assignment = MessageAssignment(K=9, transmit_sets={i: frozenset({i}) for i in range(1, 10)})
    return lattice, assignment, algorithm1_certify(lattice, assignment)


@pytest.mark.parametrize("bound", [1.0, 0.5, "1", None], ids=["1.0", "0.5", "str", "none"])
def test_auditor_reports_a_bound_that_is_not_a_fraction(bound):
    lattice, assignment, certificate = _self_serving_certificate()
    g = dataclasses.replace(certificate.groups[0], bound=bound)
    tampered = dataclasses.replace(certificate, groups=(g,) + certificate.groups[1:])
    assert validate_certificate(lattice, assignment, tampered) == [
        f"group [2, 5] records bound {bound!r}, not a Fraction"
    ]


@pytest.mark.parametrize(
    "half",
    [[2, 5], (2, 5, 2), (2, 5.0), (True, 5), ("2", 5), (2, [5])],
    ids=["list", "3-tuple", "float", "bool", "str", "unhashable"],
)
def test_auditor_and_group_writer_name_a_malformed_half(half):
    lattice, assignment, certificate = _self_serving_certificate()
    g0 = certificate.groups[0]
    assert g0.nodes == (2, 5) and g0.halves == ((2, 5), (5, 2))
    g = dataclasses.replace(g0, halves=(g0.halves[0], half))
    tampered = dataclasses.replace(certificate, groups=(g,) + certificate.groups[1:])
    assert validate_certificate(lattice, assignment, tampered) == [
        f"group [2, 5] puts a half on {half!r}, not a recorded pair of live members"
    ]
    with pytest.raises(InvalidParameterError, match="malformed half"):
        g.to_json()


@pytest.mark.parametrize("halves", [[(2, 5), (5, 2)], None, "((2, 5), (5, 2))"], ids=["list", "none", "str"])
def test_auditor_and_group_writer_need_halves_as_a_tuple(halves):
    lattice, assignment, certificate = _self_serving_certificate()
    g = dataclasses.replace(certificate.groups[0], halves=halves)
    tampered = dataclasses.replace(certificate, groups=(g,) + certificate.groups[1:])
    assert validate_certificate(lattice, assignment, tampered) == [
        f"group [2, 5] records halves {halves!r}, not a tuple"
    ]
    with pytest.raises(InvalidParameterError) as raised:
        g.to_json()
    assert str(raised.value) == f"group [2, 5] holds a malformed half {halves!r}"


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


class _CountedUser(int):
    """A user index that counts each hash, so each set or dict lookup of it."""

    def __new__(cls, value, tally):
        user = super().__new__(cls, value)
        user.tally = tally
        return user

    def __hash__(self):
        self.tally[0] += 1
        return super().__hash__()


def test_schedule_checks_grow_linearly_with_users():
    # every lookup of a scheduled user is counted; an all-pairs check looks
    # each one up once per other pair, a per-cell scan once per cell
    counts = []
    for n in (12, 48):
        topo, lattice = build_hexagonal(n)
        tally = [0]
        circles = [_CountedUser(i, tally) for i in lattice.coords if lattice.cosets[i] == "circle"]
        schedule = AvoidanceSchedule(pairs=frozenset((i, i) for i in circles), value=len(circles))
        tally[0] = 0
        assert validate_schedule(topo, schedule) == []
        validated = tally[0]
        triangle_state_bound(lattice, schedule)
        counts.append((validated, tally[0] - validated))
    for small, large in zip(*counts):
        assert 0 < small and large <= 18 * small, counts


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


def test_reconstruction_walk_reads_only_hearing_sets():
    # The walk runs on any network and agrees with the sweep there.  The
    # family tags change nothing: LC L=2 hearing sets tagged "wyner" and
    # Wyner hearing sets tagged "chain" answer as their correctly tagged twins.
    empty = MessageAssignment(K=9, transmit_sets={i: frozenset() for i in range(1, 10)})
    for topo in (build_two_dim(9), build_locally_connected(9, 2), build_locally_connected(9, 1)):
        assert reconstructibility_check(topo, empty, frozenset())
    cases = [(build_locally_connected(K, L), "wyner" if L == 2 else None) for K in (12, 20, 30) for L in (2, 3, 4)]
    cases += [(build_two_dim(K), None) for K in (9, 16, 25, 36)]
    cases += [(build_hexagonal(n)[0], None) for n in range(3, 7)]
    cases += [(build_wyner(K), "chain") for K in (12, 20, 30)]
    rng = random.Random(9)
    verdicts = {True: 0, False: 0}
    for topo, twin_kind in cases:
        K = topo.K
        twin = twin_kind and NetworkTopology(kind=twin_kind, K=K, params={}, hears=topo.hears)
        # each message draws from its receiver's two-hop pool
        pools = {
            i: sorted({u for t in topo.hears[i] for k in topo.hearers(t) for u in topo.hears[k]})
            for i in range(1, K + 1)
        }
        for _ in range(200):
            sets = {i: frozenset(rng.sample(pool, min(rng.randint(0, 2), len(pool)))) for i, pool in pools.items()}
            a = MessageAssignment(K=K, transmit_sets=sets)
            keep = rng.choice((0.6, 0.85, 0.95))
            A = frozenset(i for i in range(1, K + 1) if rng.random() < keep)
            verdict = reconstructibility_check(topo, a, A)
            assert verdict == _sweep_walk(topo, a, A), (topo.kind, sets, A)
            if twin:
                assert reconstructibility_check(twin, a, A) == verdict
            verdicts[verdict] += 1
    assert min(verdicts.values()) >= 500, verdicts


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
