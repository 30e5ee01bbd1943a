"""Exact combinatorial searches and the scheme certification gate."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
import hashlib
import itertools
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest

from coopzf import (
    AvoidanceSchedule,
    InvalidParameterError,
    NetworkTopology,
    ResourceLimitError,
    ZfScheme,
    build_hexagonal,
    build_locally_connected,
    build_two_dim,
    build_wyner,
    certify_lower_bound,
    design_beams,
    hexagonal_cooperative_scheme,
    hexagonal_coset_scheme,
    locally_connected_scheme,
    max_activation_for_assignment,
    max_avoidance_cooperative,
    max_avoidance_m1,
    metrics,
    sample_channels,
    table1_scheme,
    validate_schedule,
    validate_scheme,
    verify,
    wyner_backhaul_scheme,
)
from coopzf import oracle
from coopzf.assignment import MessageAssignment
from coopzf._rank import _bits, _deliverable, _mask, _matching


def test_single_transmitter_chain_values():
    for K, want in [(3, 2), (4, 3), (8, 5)]:
        value, witness = max_avoidance_m1(build_wyner(K))
        assert value == want, K
        assert validate_schedule(build_wyner(K), witness) == []
        assert witness.nodes_explored > 0


def test_single_transmitter_no_interference_grid():
    topo = build_locally_connected(6, 0)
    value, witness = max_avoidance_m1(topo)
    assert value == 6
    assert witness.pairs == frozenset((i, i) for i in range(1, 7))


def test_single_transmitter_hexagonal_values():
    for n, want in [(3, 4), (4, 7), (5, 12), (6, 15)]:
        topo, _ = build_hexagonal(n)
        value, witness = max_avoidance_m1(topo)
        assert value == want, n
        assert validate_schedule(topo, witness) == []
    # The degree order and the greedy incumbent close n=6 in a few hundred
    # nodes; the same search in pair-index order needs 71,120.
    assert witness.nodes_explored <= 1_000


def _milp_m1(topology) -> int:
    """Best single-transmitter schedule as a 0/1 program, solved by HiGHS.

    One variable per service ``(r, t)`` with ``t`` heard at ``r``, and one
    row ``x_a + x_b <= 1`` per pair of services that cannot be scheduled
    together: a shared receiver or transmitter, or either receiver
    hearing the other's transmitter.
    """
    pytest.importorskip("scipy")
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    hears = topology.hears
    services = [(r, t) for r in range(1, topology.K + 1) for t in sorted(hears[r])]
    clashes = [
        (a, b)
        for (a, (ra, ta)), (b, (rb, tb)) in itertools.combinations(enumerate(services), 2)
        if ra == rb or ta == tb or tb in hears[ra] or ta in hears[rb]
    ]
    n = len(services)
    rows = np.repeat(np.arange(len(clashes)), 2)
    cols = np.array(clashes, dtype=int).ravel()
    matrix = coo_array((np.ones(rows.size), (rows, cols)), shape=(len(clashes), n))
    result = milp(
        c=-np.ones(n),
        constraints=LinearConstraint(matrix, -np.inf, 1),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert result.success, result.message
    return round(-result.fun)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_single_transmitter_matches_milp_on_lattice(n):
    topo, _ = build_hexagonal(n)
    value, _ = max_avoidance_m1(topo)
    assert value == _milp_m1(topo)


@pytest.mark.parametrize("L", [None, 1, 2], ids=["wyner", "lc1", "lc2"])
def test_single_transmitter_matches_milp_on_chains(L):
    for K in range(1, 13):
        topo = build_wyner(K) if L is None else build_locally_connected(K, L)
        value, _ = max_avoidance_m1(topo)
        assert value == _milp_m1(topo), K


# Instances whose greedy incumbent is not optimal, so the search improves
# it and prunes inside a color class: (topology, greedy, optimum).
_GREEDY_FALLS_SHORT = [
    (build_two_dim(25), 11, 12),
    (
        NetworkTopology(
            kind="custom",
            K=5,
            params={},
            hears={
                1: frozenset({1, 3, 4}),
                2: frozenset({2, 3}),
                3: frozenset({3, 5}),
                4: frozenset({3, 4, 5}),
                5: frozenset({2, 5}),
            },
        ),
        2,
        3,
    ),
]


@pytest.mark.parametrize(("topo", "greedy", "value"), _GREEDY_FALLS_SHORT, ids=["two_dim25", "custom5"])
def test_single_transmitter_search_improves_the_greedy_incumbent(monkeypatch, topo, greedy, value):
    found, witness = max_avoidance_m1(topo)
    assert found == witness.value == value
    assert validate_schedule(topo, witness) == []
    # with no search below the root, the answer is the greedy incumbent
    monkeypatch.setattr(oracle, "_expand", lambda *args: args[-2:])
    assert max_avoidance_m1(topo)[0] == greedy


@pytest.mark.parametrize(("topo", "value"), [(t, v) for t, _, v in _GREEDY_FALLS_SHORT], ids=["two_dim25", "custom5"])
def test_single_transmitter_matches_milp_where_greedy_falls_short(topo, value):
    assert _milp_m1(topo) == value


def _random_topology(seed: int, K: int) -> NetworkTopology:
    # Receivers may miss their own transmitter or hear nothing at all.
    rng = random.Random(seed)
    hears = {i: frozenset(t for t in range(1, K + 1) if rng.random() < 0.3) for i in range(1, K + 1)}
    return NetworkTopology(kind="custom", K=K, params={}, hears=hears)


_CLASH_CASES = (
    [(f"hex{n}", build_hexagonal(n)[0]) for n in range(2, 7)]
    + [(f"lc{L}-{K}", build_locally_connected(K, L)) for L in (1, 2, 3) for K in range(1, 11)]
    + [(f"grid{K}", build_two_dim(K)) for K in (4, 9, 16)]
    + [("random12", _random_topology(32, 12))]
)


@pytest.mark.parametrize(("name", "topo"), _CLASH_CASES, ids=[name for name, _ in _CLASH_CASES])
def test_clash_masks_match_the_pairwise_definition(name, topo):
    hears = topo.hears
    pairs = [(r, t) for r in range(1, topo.K + 1) for t in sorted(hears[r])]
    shuffled = pairs[:]
    random.Random(name).shuffle(shuffled)
    for order in (pairs, shuffled):
        expected = [
            sum(
                1 << y
                for y, (r2, t2) in enumerate(order)
                if r == r2 or t == t2 or t2 in hears[r] or t in hears[r2]
            )
            for r, t in order
        ]
        assert oracle._clash_masks(topo, order) == expected


def test_single_transmitter_beats_alternating_self_service():
    for K in range(2, 9):
        value, _ = max_avoidance_m1(build_wyner(K))
        assert value >= (K + 1) // 2


def test_single_transmitter_monotone_under_edge_removal():
    # dropping all interference edges can only help
    for K in (4, 5, 6):
        dense, _ = max_avoidance_m1(build_wyner(K))
        free, _ = max_avoidance_m1(build_locally_connected(K, 0))
        assert free == K >= dense


def test_interior_service_is_rare():
    # data check behind the lattice upper-bound argument
    for n in (3, 4, 5):
        topo, lat = build_hexagonal(n)
        value, witness = max_avoidance_m1(topo)
        inner = lat.interior
        served_inner = sum(1 for r, _ in witness.pairs if r in inner)
        assert 2 * served_inner <= len(inner), (n, served_inner, len(inner))


def test_cooperative_chain_values():
    for K, B, want in [(4, 1, 3), (6, 1, 4), (8, 2, 7)]:
        value, witness = max_avoidance_cooperative(build_wyner(K), B)
        assert value == want, (K, B)
        assert len(witness.active) == value
        assert metrics(witness.assignment).B <= B
        assert witness.nodes_explored > 0


def _levelwise(topology, B):
    """The level-wise search alone, as ``(value, active, transmit_sets, nodes)``."""
    K = topology.K
    search = oracle._Search(oracle.NODE_LIMIT)
    A, sets = oracle._levelwise_cooperative(search, topology, int(Fraction(B) * K))
    return len(A), frozenset(A), {**{i: frozenset() for i in range(1, K + 1)}, **sets}, search.nodes


def test_cooperative_wyner_node_count():
    # Rejecting an active set once its proven per-message costs pass B*K
    # closes K=10 in a few thousand nodes; bounding each message only by
    # the budget its predecessors left needs 25,204.
    value, _, _, nodes = _levelwise(build_wyner(10), 1)
    assert value == 7
    assert nodes <= 8_000


_DP_BUDGETS = (0, *map(Fraction, ("1/3", "1/2", "2/3", "1", "5/4", "3/2", "2", "5/2", "3", "5")))


def test_wyner_runs_match_the_levelwise_search():
    for K in range(1, 13):
        topo = build_wyner(K)
        for B in _DP_BUDGETS:
            value, witness = max_avoidance_cooperative(topo, B)
            got = (value, witness.active, witness.assignment.transmit_sets)
            assert got == _levelwise(topo, B)[:3], (K, B)


def test_wyner_optimum_table():
    # K = 1..12 at B = 1/2, 1, 3/2 and 2, first found by brute force over
    # all 2^K active sets with the span cost min(j - i, i - j').
    table = {
        Fraction(1, 2): [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6],
        1: [1, 1, 2, 3, 4, 4, 5, 6, 7, 7, 8, 9],
        Fraction(3, 2): [1, 2, 2, 3, 4, 5, 6, 7, 7, 8, 9, 10],
        2: [1, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 10],
    }
    for B, row in table.items():
        got = [max_avoidance_cooperative(build_wyner(K), B)[0] for K in range(1, 13)]
        assert got == row, B


def test_completion_takes_the_smallest_candidate_marginals():
    # The open run's marginals from its (t+1)-th member on, k for the
    # first run and ceil(k/2) otherwise, and 1, 1, 2, 2, ... per fresh run.
    for first in (True, False):
        for t in range(12):
            for fresh in range(12):
                own = [k if first else (k + 1) // 2 for k in range(t + 1, t + 31)]
                candidates = sorted(own + [(k + 1) // 2 for k in range(1, 31)] * fresh)
                for add in range(30):
                    want = sum(candidates[:add])
                    assert oracle._completion(first, t, add, fresh) == want, (first, t, add, fresh)


def test_wyner_runs_reach_k400():
    topo = build_wyner(400)
    start = time.perf_counter()
    value, witness = max_avoidance_cooperative(topo, 3)
    assert time.perf_counter() - start < 1.0
    assert value == 367 == len(witness.active)
    assert metrics(witness.assignment).B <= 3
    heard = {i: _mask(topo.hears[i]) for i in range(1, 401)}
    sends = {i: _mask(T) for i, T in witness.assignment.transmit_sets.items()}
    assert all(oracle._delivers(i, sends, heard, witness.active) for i in witness.active)


def test_only_wyner_hearing_sets_take_the_run_costs(monkeypatch):
    calls = []
    runs = oracle._wyner_runs

    def counting(*args):
        calls.append(args)
        return runs(*args)

    monkeypatch.setattr(oracle, "_wyner_runs", counting)
    # Tagged "wyner", but receiver i hears {i, i+1}: the search decides it.
    mirrored = NetworkTopology(
        kind="wyner", K=6, params={}, hears={i: frozenset({i, i + 1} - {7}) for i in range(1, 7)}
    )
    value, witness = max_avoidance_cooperative(mirrored, 1)
    assert calls == []
    assert (value, witness.active, witness.assignment.transmit_sets) == _levelwise(mirrored, 1)[:3]
    value, witness = max_avoidance_cooperative(build_locally_connected(6, 1), 1)
    assert len(calls) == 1
    assert (value, witness.active) == (4, frozenset({1, 2, 4, 5}))


def _reference_deliverable(i, T, active, hears):
    """Deliverability by two full matchings over frozensets: the row system's term rank must grow."""
    desired = T & hears[i]
    if not desired:
        return False
    crows = [T & hears[k] for k in active if k != i and T & hears[k]]
    return len(_matching(crows + [desired])) == len(_matching(crows)) + 1


def _rank_deliverable(desired, crows, columns, rng):
    """Deliverability as a numerical rank test on random complex gains with the rows' support."""

    def gains(mask):
        draw = rng.standard_normal(columns) + 1j * rng.standard_normal(columns)
        return np.where([mask >> c & 1 for c in range(columns)], draw, 0)

    cancel = np.array([gains(row) for row in crows]).reshape(len(crows), columns)
    rank = np.linalg.matrix_rank(cancel) if crows else 0
    return np.linalg.matrix_rank(np.vstack([cancel, gains(desired)])) == rank + 1


def test_deliverability_kernel_agrees_with_reference_and_rank():
    rng = np.random.default_rng(14)
    verdicts = []
    for _ in range(2_000):
        columns = int(rng.integers(1, 5))
        desired = int(rng.integers(0, 1 << columns))
        crows = [int(m) for m in rng.integers(1, 1 << columns, size=rng.integers(0, 7))]
        hears = {0: frozenset(c for c in range(columns) if desired >> c & 1)}
        hears.update(
            (k, frozenset(c for c in range(columns) if row >> c & 1))
            for k, row in enumerate(crows, start=1)
        )
        got = _deliverable(desired, crows)
        T = frozenset(range(columns))
        assert got == _reference_deliverable(0, T, range(len(crows) + 1), hears), (desired, crows)
        assert got == _rank_deliverable(desired, crows, columns, rng), (desired, crows)
        verdicts.append(got)
    assert 500 < sum(verdicts) < 1_500


def test_matching_follows_an_augmenting_path_through_every_row():
    # row j takes column j, so the last row, which hears only column 0,
    # moves every other row one column on: a path longer than the
    # interpreter's recursion limit
    n = 5_000
    assert n > sys.getrecursionlimit()
    rows = [(j, j + 1) for j in range(n - 1)] + [(0,)]
    assert _matching(rows) == {0: n - 1, **{j + 1: j for j in range(n - 1)}}


def _cooperative_reference(topology, B):
    """Reference search: each message's cheapest transmit set in turn, capped by the budget left."""
    K = topology.K
    budget = int(Fraction(B) * K)
    hears = topology.hears

    def cheapest(i, active, cap):
        pool = sorted(set().union(*(hears[k] for k in active)))
        for size in range(1, cap + 1):
            for T in itertools.combinations(pool, size):
                if _reference_deliverable(i, frozenset(T), active, hears):
                    return frozenset(T)
        return None

    empty = {i: frozenset() for i in range(1, K + 1)}
    for size in range(K, 0, -1):
        for A in itertools.combinations(range(1, K + 1), size):
            total = 0
            sets = {}
            for i in A:
                T = cheapest(i, A, budget - total)
                if T is None:
                    break
                sets[i] = T
                total += len(T)
            else:
                return size, frozenset(A), {**empty, **sets}
    return 0, frozenset(), empty


@pytest.mark.parametrize("L", [None, 1, 2, 3], ids=["wyner", "lc1", "lc2", "lc3"])
def test_cooperative_matches_reference(L):
    for K in range(1, 9):
        topo = build_wyner(K) if L is None else build_locally_connected(K, L)
        for B in (0, Fraction(1, 2), 1, 2):
            value, witness = max_avoidance_cooperative(topo, B)
            got = (value, witness.active, witness.assignment.transmit_sets)
            assert got == _cooperative_reference(topo, B), (K, B)


def _whole_pool_reference(topology, B):
    """Reference: the level-wise search with every message trying subsets of the whole pool.

    Each active set ``A`` offers every open message all size-``l`` subsets
    of the antennas ``A`` hears, and re-derives its cheapest set for every
    ``A``; there is no ball, no memo, no node count and no deadline.
    """
    K = topology.K
    budget = int(Fraction(B) * K)
    heard = {i: _mask(topology.hears[i]) for i in range(1, K + 1)}

    def fit(A):
        pool = 0
        for k in A:
            pool |= heard[k]
        antennas = [1 << t for t in _bits(pool)]
        sets = {}
        waiting = A
        proven = len(A)
        for level in range(1, len(antennas) + 1):
            still = []
            for i in waiting:
                others = [heard[k] for k in A if k != i]
                for combo in itertools.combinations(antennas, level):
                    T = sum(combo)
                    desired = T & heard[i]
                    if desired and _deliverable(desired, [row for h in others if (row := T & h)]):
                        sets[i] = frozenset(_bits(T))
                        break
                else:
                    proven += 1
                    if proven > budget:
                        return None
                    still.append(i)
            if not still:
                return sets
            waiting = still
        return None

    empty = {i: frozenset() for i in range(1, K + 1)}
    for size in range(min(K, budget), 0, -1):
        for A in itertools.combinations(range(1, K + 1), size):
            sets = fit(A)
            if sets is not None:
                return size, frozenset(A), {**empty, **sets}
    return 0, frozenset(), empty


def _component(desired, crows):
    """The rows connected to the desired row through shared columns, in order."""
    reach = desired
    grown = True
    while grown:
        grown = False
        for row in crows:
            if row & reach and row & ~reach:
                reach |= row
                grown = True
    return [row for row in crows if row & reach]


def test_deliverability_depends_only_on_the_desired_component():
    # Rows drawn on two disjoint column halves split the row system into
    # blocks; generic rank adds over the blocks, so the blocks that miss
    # the desired row cannot change its verdict.
    rng = np.random.default_rng(18)
    split = verdicts = 0
    for _ in range(2_000):
        desired = int(rng.integers(1, 8))
        sides = rng.choice([0, 3], size=rng.integers(1, 7))
        crows = [int(rng.integers(1, 8)) << int(side) for side in sides]
        part = _component(desired, crows)
        assert _deliverable(desired, crows) == _deliverable(desired, part), (desired, crows)
        split += len(part) < len(crows)
        verdicts += _deliverable(desired, crows)
    assert split > 1_000
    assert 300 < verdicts < 1_700


def _ball(heard, i, A, hops):
    """The antennas within ``hops`` hops of ``heard[i]``, hopping through the receivers of ``A``."""
    ball = heard[i]
    for _ in range(hops):
        for h in [heard[k] for k in A if heard[k] & ball]:
            ball |= h
    return ball


@pytest.mark.parametrize(
    "topo",
    [
        build_wyner(7),
        build_locally_connected(7, 2),
        build_locally_connected(7, 3),
        build_hexagonal(3)[0],
    ],
    ids=["wyner7", "lc2-7", "lc3-7", "hex3"],
)
def test_minimum_transmit_sets_lie_in_the_ball(topo):
    # Every minimum-size deliverable set of size l, over the whole pool of
    # every active set, lies within l - 1 hops of the own receiver's antennas.
    K = topo.K
    heard = {i: _mask(topo.hears[i]) for i in range(1, K + 1)}
    outside_ball = 0
    for size in range(1, K + 1):
        for A in itertools.combinations(range(1, K + 1), size):
            pool = _mask(t for k in A for t in topo.hears[k])
            for i in A:
                for level in range(1, pool.bit_count() + 1):
                    found = []
                    for combo in itertools.combinations([1 << t for t in _bits(pool)], level):
                        T = sum(combo)
                        crows = [T & heard[k] for k in A if k != i and T & heard[k]]
                        if T & heard[i] and _deliverable(T & heard[i], crows):
                            found.append(T)
                    if found:
                        ball = _ball(heard, i, A, level - 1)
                        assert all(T & ~ball == 0 for T in found), (A, i, level)
                        outside_ball += pool & ~ball != 0
                        break
    assert outside_ball > 0


def _twice(heard, A):
    """The antennas heard by at least two receivers of ``A``."""
    once = twice = 0
    for k in A:
        twice |= once & heard[k]
        once |= heard[k]
    return twice


def _price(heard, A):
    """``|A|`` plus the receivers of ``A`` with no antenna that only they hear."""
    twice = _twice(heard, A)
    return len(A) + sum(not heard[i] & ~twice for i in A)


def _cheapest(heard, A, i, cap):
    """The size of message ``i``'s smallest deliverable subset of the pool, or ``cap`` if above it."""
    pool = 0
    for k in A:
        pool |= heard[k]
    for level in range(1, cap):
        for combo in itertools.combinations([1 << t for t in _bits(pool)], level):
            T = sum(combo)
            crows = [T & heard[k] for k in A if k != i and T & heard[k]]
            if T & heard[i] and _deliverable(T & heard[i], crows):
                return level
    return cap


@pytest.mark.parametrize(
    "topo",
    [
        build_wyner(10),
        build_locally_connected(10, 2),
        build_locally_connected(10, 3),
        build_hexagonal(3)[0],
        build_hexagonal(4)[0],
        build_two_dim(9),
        build_two_dim(16),
    ],
    ids=["wyner10", "lc2-10", "lc3-10", "hex3", "hex4", "grid9", "grid16"],
)
def test_level_one_is_closed_form_and_price_bounds_the_cost(topo):
    # A singleton {t} serves i iff t is private to i: every other receiver
    # that hears t adds the cancellation row {t}, equal to the desired row.
    K = topo.K
    heard = {i: _mask(topo.hears[i]) for i in range(1, K + 1)}
    rng = np.random.default_rng(22)
    shared = 0
    for _ in range(40):
        A = sorted(rng.choice(np.arange(1, K + 1), size=rng.integers(1, K + 1), replace=False).tolist())
        twice = _twice(heard, A)
        costs = []
        for i in A:
            # The search's first(i, 1, ...): heard[i]'s singletons in lex order.
            lex_first = next(
                (
                    T
                    for T in (1 << t for t in _bits(heard[i]))
                    if _deliverable(T, [T for k in A if k != i and T & heard[k]])
                ),
                0,
            )
            private = heard[i] & ~twice
            assert lex_first == private & -private, (A, i)
            costs.append(_cheapest(heard, A, i, cap=3))
        price = _price(heard, A)
        assert price == sum(min(c, 2) for c in costs) <= sum(costs), A
        for k in set(range(1, K + 1)) - set(A):
            assert _price(heard, sorted([*A, k])) >= price, (A, k)
        shared += price - len(A)
    assert shared > 0


@pytest.mark.parametrize(
    ("topo", "value"),
    [(build_wyner(16), 12), (build_hexagonal(4)[0], 9)],
    ids=["wyner16", "hex4"],
)
def test_cooperative_b1_optimum_at_k16(topo, value):
    got, witness = max_avoidance_cooperative(topo, 1)
    assert got == value == len(witness.active)
    assert metrics(witness.assignment).B <= 1
    reached, _ = max_activation_for_assignment(topo, witness.assignment)
    assert reached == value


def _chains(Ks):
    for L in (None, 1, 2, 3):
        for K in Ks:
            name = f"wyner{K}" if L is None else f"lc{L}-{K}"
            yield name, build_wyner(K) if L is None else build_locally_connected(K, L)


_BUDGETS = (0, Fraction(1, 2), 1, 2)


def _coop_cases():
    """The cooperative search's grid: chains K <= 10 and hex n=3 at every budget, hex n=4 at B <= 1.

    hex n=4 at B=2 is left out: it takes 2.75 million nodes and several seconds.
    """
    hex3, _ = build_hexagonal(3)
    hex4, _ = build_hexagonal(4)
    cases = [(name, topo, B) for name, topo in _chains(range(1, 11)) for B in _BUDGETS]
    return cases + [("hex3", hex3, B) for B in _BUDGETS] + [("hex4", hex4, B) for B in _BUDGETS[:3]]


def _oracle_digest() -> str:
    """SHA-256 over the three searches' values, witnesses and node counts on a fixed grid."""
    digest = hashlib.sha256()

    def put(*items):
        digest.update(repr(items).encode() + b"\n")

    for name, topo, B in _coop_cases():
        value, witness = max_avoidance_cooperative(topo, B)
        sets = sorted((i, sorted(T)) for i, T in witness.assignment.transmit_sets.items())
        put("coop", name, str(B), value, sorted(witness.active), sets, witness.nodes_explored)
        if value:
            got, reached = max_activation_for_assignment(topo, witness.assignment)
            put("activation", name, str(B), got, sorted(reached.active), reached.nodes_explored)
    m1 = [(f"hex{n}", build_hexagonal(n)[0]) for n in range(2, 7)]
    m1 += list(_chains(range(1, 13))) + [(f"grid{K}", build_two_dim(K)) for K in (4, 9, 16)]
    for name, topo in m1:
        value, schedule = max_avoidance_m1(topo)
        put("m1", name, value, sorted(schedule.pairs), schedule.nodes_explored)
    return digest.hexdigest()


def test_oracle_outputs_are_pinned():
    # Taken when Wyner-shaped chains (wyner*, lc1-*) moved from the search
    # to their run costs; only their cooperative node counts moved (1,542
    # to 430 over the grid), so values and witnesses equal the whole-pool
    # reference's, and the activation and single-transmitter outputs, node
    # counts included, are those of the frozenset searches that ran two
    # full matchings per test.
    assert _oracle_digest() == "429ca68a90596a982297c180739b1a0aa9b88466c2130e70d1e12b39012b4949"


def test_cooperative_lc3_k12_b2():
    # The whole-pool search needs 247,725 nodes here, and the ball search
    # that fitted level 1 by enumeration 73,736.
    value, witness = max_avoidance_cooperative(build_locally_connected(12, 3), 2)
    assert value == 8
    assert witness.nodes_explored == 73_218


@pytest.mark.parametrize("family", ["wyner", "lc", "hex3", "hex4", "grid"])
def test_cooperative_matches_whole_pool_reference(family):
    # The digest grid plus grid K=9 and K=16 at B <= 1.
    grid = [(f"grid{K}", build_two_dim(K), B) for K in (9, 16) for B in _BUDGETS[:3]]
    for name, topo, B in _coop_cases() + grid:
        if name.startswith(family):
            value, witness = max_avoidance_cooperative(topo, B)
            got = (value, witness.active, witness.assignment.transmit_sets)
            assert got == _whole_pool_reference(topo, B), (name, B)


@pytest.mark.parametrize(
    "topo", [build_wyner(10), build_locally_connected(8, 2)], ids=["wyner10", "lc2-8"]
)
def test_every_counted_node_ticks_the_budget(monkeypatch, topo):
    # A node skipped without a tick would escape the node budget.
    ticks = 0
    tick = oracle._Search.tick

    def counting(self):
        nonlocal ticks
        ticks += 1
        tick(self)

    monkeypatch.setattr(oracle._Search, "tick", counting)
    _, witness = max_avoidance_cooperative(topo, 1)
    assert ticks == witness.nodes_explored > 0
    ticks = 0
    _, reached = max_activation_for_assignment(topo, witness.assignment)
    assert ticks == reached.nodes_explored > 0


def test_cooperative_zero_budget():
    value, witness = max_avoidance_cooperative(build_wyner(4), 0)
    assert value == 0
    assert witness.active == frozenset()


@pytest.mark.parametrize("B", [-1, Fraction(-1, 2), float("-inf")], ids=["-1", "-1/2", "-inf"])
def test_cooperative_rejects_negative_budget(B):
    with pytest.raises(InvalidParameterError, match="B must be >= 0"):
        max_avoidance_cooperative(build_wyner(4), B)


@pytest.mark.parametrize("B", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_cooperative_rejects_non_finite_budget(B):
    with pytest.raises(InvalidParameterError, match="B must be finite"):
        max_avoidance_cooperative(build_wyner(4), B)


def test_cooperative_monotone_in_budget():
    lo, _ = max_avoidance_cooperative(build_wyner(6), 1)
    hi, _ = max_avoidance_cooperative(build_wyner(6), 2)
    assert lo <= hi


def test_cooperative_witness_is_reachable_by_activation_search():
    topo = build_wyner(6)
    value, witness = max_avoidance_cooperative(topo, 1)
    reachable, _ = max_activation_for_assignment(topo, witness.assignment)
    assert reachable >= value


def test_activation_search_matches_block_scheme():
    topo = build_wyner(8)
    a, s = wyner_backhaul_scheme(8, 1)
    value, witness = max_activation_for_assignment(topo, a)
    assert value == 6 == len(s.active_messages)
    assert witness.active <= frozenset(range(1, 9))


def test_activation_below_flexible_single_transmitter_optimum():
    topo = build_wyner(8)
    all_self = MessageAssignment(
        K=8, transmit_sets={i: frozenset({i}) for i in range(1, 9)}
    )
    fixed, _ = max_activation_for_assignment(topo, all_self)
    flexible, _ = max_avoidance_m1(topo)
    assert fixed <= flexible


def test_certify_accepts_block_scheme_at_equality():
    topo = build_wyner(4)
    a, s = wyner_backhaul_scheme(4, 1)
    assert certify_lower_bound(topo, s, a)


def test_certify_accepts_empty_scheme():
    topo = build_wyner(4)
    a = MessageAssignment(K=4, transmit_sets={i: frozenset() for i in range(1, 5)})
    s = ZfScheme(
        K=4,
        active_messages=frozenset(),
        serving={},
        cancel_at={},
        declared_pudof=Fraction(0),
        declared_backhaul=Fraction(0),
    )
    assert certify_lower_bound(topo, s, a)


def test_certify_accepts_coset_scheme():
    topo, lat = build_hexagonal(3)
    a, s = hexagonal_coset_scheme(lat)
    assert certify_lower_bound(topo, s, a)


def test_certify_rejects_invalid_scheme():
    topo = build_wyner(4)
    a, s = wyner_backhaul_scheme(4, 1)
    s.cancel_at = {i: () for i in s.active_messages}
    assert not certify_lower_bound(topo, s, a)


def _oracle_lower_bound(topology, scheme, assignment) -> bool:
    """Reference: the scheme is structurally valid and no exact optimum falls below it.

    The single-transmitter search decides cooperation order at most 1,
    the cooperative search at the assignment's own backhaul decides the
    rest; both refuse K above 12.
    """
    if validate_scheme(topology, assignment, scheme):
        return False
    stats = metrics(assignment)
    if stats.M <= 1:
        value, _ = max_avoidance_m1(topology)
    else:
        value, _ = max_avoidance_cooperative(topology, stats.B)
    return value >= len(scheme.active_messages)


def _small_generator_schemes():
    """Every generator scheme with K <= 12 that the rank test is compared on."""
    out = []
    for B in (1, 2, 3):
        for K in range(4 * B, 13, 4 * B):
            out.append((f"wyner_B{B}_K{K}", build_wyner(K), *wyner_backhaul_scheme(K, B)))
    for L in (1, 2, 3):
        for M in (1, 2, 3):
            K = 2 * M + L
            topo = build_locally_connected(K, L)
            out.append((f"lc_L{L}_M{M}", topo, *locally_connected_scheme(K, L, M)))
    for K in (6, 12):
        out.append((f"table1_L2_K{K}", build_locally_connected(K, 2), *table1_scheme(K, 2)))
    for n in (2, 3):
        topo, lattice = build_hexagonal(n)
        out.append((f"hex_coset_n{n}", topo, *hexagonal_coset_scheme(lattice)))
    return out


_SMALL_SCHEMES = _small_generator_schemes()


@pytest.mark.parametrize(
    ("topo", "assignment", "scheme"),
    [case[1:] for case in _SMALL_SCHEMES],
    ids=[case[0] for case in _SMALL_SCHEMES],
)
def test_rank_certificate_implies_oracle_certificate(topo, assignment, scheme):
    bare = dataclasses.replace(scheme, cancel_at={i: () for i in scheme.active_messages})
    for s in (scheme, bare):
        if certify_lower_bound(topo, s, assignment):
            assert _oracle_lower_bound(topo, s, assignment)
    assert certify_lower_bound(topo, scheme, assignment)


def test_certify_rejects_undeliverable_valid_scheme():
    # T_3 = {2, 4}: receiver 2 hears the same single antenna 2 as receiver 3,
    # so nulling it at 2 also nulls it at 3; the structure alone is valid.
    topo = build_wyner(4)
    sets = {1: frozenset(), 2: frozenset({1}), 3: frozenset({2, 4}), 4: frozenset()}
    a = MessageAssignment(K=4, transmit_sets=sets)
    s = ZfScheme(
        K=4,
        active_messages=frozenset({2, 3}),
        serving={2: 1, 3: 2},
        cancel_at={2: (), 3: (2,)},
        declared_pudof=Fraction(1, 2),
        declared_backhaul=Fraction(3, 4),
    )
    assert validate_scheme(topo, a, s) == []
    assert not certify_lower_bound(topo, s, a)


def test_certify_accepts_more_cancellations_than_spare_antennas():
    # |C_6| = 2 > |T_6| - 1 = 1, yet receivers 2 and 3 hear only antenna 2
    # of T_6 = {2, 6}: the beam v_2 = 0, v_6 = 1 nulls both and reaches 6.
    topo = build_wyner(8)
    sets = dict.fromkeys(range(1, 9), frozenset())
    sets.update({2: frozenset({1}), 3: frozenset({3}), 6: frozenset({2, 6})})
    a = MessageAssignment(K=8, transmit_sets=sets)
    s = ZfScheme(
        K=8,
        active_messages=frozenset({2, 3, 6}),
        serving={2: 1, 3: 3, 6: 6},
        cancel_at={2: (), 3: (), 6: (2, 3)},
        declared_pudof=Fraction(3, 8),
        declared_backhaul=Fraction(1, 2),
    )
    assert validate_scheme(topo, a, s) == []
    assert certify_lower_bound(topo, s, a)
    channels = sample_channels(topo, 0)
    assert verify(topo, channels, s, design_beams(topo, channels, a, s)).passed
    assert max_activation_for_assignment(topo, a)[0] == 3


def test_certify_runs_no_search_at_any_size(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify_lower_bound ran an exact search")

    for name in ("max_avoidance_m1", "max_avoidance_cooperative", "max_activation_for_assignment"):
        monkeypatch.setattr(oracle, name, refuse)
    topo, lattice = build_hexagonal(48)
    a, s = hexagonal_cooperative_scheme(lattice)
    start = time.perf_counter()
    assert certify_lower_bound(topo, s, a)
    assert time.perf_counter() - start < 0.5


def _small_search(name):
    """One small run of the named search, as ``(call, setup charge)``."""
    if name == "m1":
        hex4, _ = build_hexagonal(4)
        services = sum(len(hex4.hears[r]) for r in range(1, hex4.K + 1))
        return lambda limit: max_avoidance_m1(hex4, node_limit=limit), -(-services * services // 64)
    if name == "coop":
        hex3, _ = build_hexagonal(3)
        return lambda limit: max_avoidance_cooperative(hex3, 1, node_limit=limit), 0
    a, _ = locally_connected_scheme(12, 2, 2)
    return lambda limit: max_activation_for_assignment(build_locally_connected(12, 2), a, node_limit=limit), 0


@pytest.mark.parametrize("name", ["m1", "coop", "activation"])
def test_node_limit_is_a_budget_on_nodes(name):
    # The setup charge and every node count against the budget: a budget
    # of exactly their sum gives the default's answer, one less stops the search.
    call, setup = _small_search(name)
    value, witness = call(oracle.NODE_LIMIT)
    used = setup + witness.nodes_explored
    assert witness.nodes_explored > 1
    assert call(used) == (value, witness)
    with pytest.raises(ResourceLimitError, match=f"node_limit={used - 1}"):
        call(used - 1)


def test_node_limits_enforced():
    hex4, _ = build_hexagonal(4)
    # hex n=4 at B=2 needs 2.75 million nodes; the budget stops it at 10,001.
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="node_limit=10000: setup charge 0, 10001 nodes"):
        max_avoidance_cooperative(hex4, 2, node_limit=10_000)
    assert time.perf_counter() - start < 1.0
    # m1 on hex n=7 needs 20,258 nodes after a setup charge of 683.
    hex7, _ = build_hexagonal(7)
    with pytest.raises(ResourceLimitError, match="node_limit=10000: setup charge 683, 9318 nodes"):
        max_avoidance_m1(hex7, node_limit=10_000)
    # A setup charge past the budget stops m1 before its first node.
    with pytest.raises(ResourceLimitError, match="node_limit=5: setup charge 98, 0 nodes"):
        max_avoidance_m1(build_wyner(40), node_limit=5)
    # Every set empty: nothing to order, so one node whatever K.
    K = 300
    empty = MessageAssignment(K=K, transmit_sets={i: frozenset() for i in range(1, K + 1)})
    assert max_activation_for_assignment(build_wyner(K), empty, node_limit=1)[0] == 0


def test_m1_setup_charge_guards_its_memory():
    # The clash masks grow with the square of the services: about 280,000
    # on hex n=200 would take gigabytes, so the charge refuses them unbuilt.
    topo, _ = build_hexagonal(200)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="node_limit"):
            max_avoidance_m1(topo)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 4_000_000


@pytest.mark.parametrize("limit", [0, -4])
def test_node_limit_must_be_positive(limit):
    topo = build_wyner(4)
    a, _ = wyner_backhaul_scheme(4, 1)
    with pytest.raises(InvalidParameterError, match="node_limit must be >= 1"):
        max_avoidance_m1(topo, node_limit=limit)
    with pytest.raises(InvalidParameterError, match="node_limit must be >= 1"):
        max_avoidance_cooperative(topo, 1, node_limit=limit)
    with pytest.raises(InvalidParameterError, match="node_limit must be >= 1"):
        max_activation_for_assignment(topo, a, node_limit=limit)


@pytest.mark.parametrize(("topology_K", "assignment_K"), [(8, 4), (4, 8)])
def test_activation_search_rejects_size_mismatch(topology_K, assignment_K):
    a, _ = wyner_backhaul_scheme(assignment_K, 1)
    with pytest.raises(InvalidParameterError, match="sizes disagree"):
        max_activation_for_assignment(build_wyner(topology_K), a)


@pytest.mark.parametrize(
    "pair",
    [(99, 99), (0, 1), (1, 99), ("a", 1), (None, 1), (1.0, 1), (True, 1)],
    ids=["99-99", "0-1", "1-99", "str", "none", "float", "bool"],
)
def test_schedule_naming_users_outside_topology_is_a_violation(pair):
    topo, _ = build_hexagonal(3)
    schedule = AvoidanceSchedule(pairs=frozenset({pair}), value=1)
    assert validate_schedule(topo, schedule) == [f"pair {pair} names a user outside 1..9"]


@pytest.mark.parametrize("pair", [(1, 1, 1), 5], ids=["triple", "int"])
def test_schedule_entry_that_is_not_a_pair_is_a_violation(pair):
    topo, _ = build_hexagonal(3)
    schedule = AvoidanceSchedule(pairs=frozenset({pair}), value=1)
    assert validate_schedule(topo, schedule) == [f"pair {pair!r} is not a (receiver, transmitter) 2-tuple"]


def test_schedule_violations_of_mixed_pairs_are_listed_in_order():
    # The set's own order varies with string hashing; the list must not.
    topo, _ = build_hexagonal(3)
    pairs = frozenset({(10, 1), (9, 1), ("x", 2), (None, None), (1, 1), 5})
    assert validate_schedule(topo, AvoidanceSchedule(pairs=pairs, value=6)) == [
        "transmitters are not pairwise distinct",
        "pair (10, 1) names a user outside 1..9",
        "pair ('x', 2) names a user outside 1..9",
        "pair (None, None) names a user outside 1..9",
        "pair 5 is not a (receiver, transmitter) 2-tuple",
        "receiver 9 does not hear its transmitter 1",
    ]


def test_schedule_value_must_count_its_pairs():
    schedule = AvoidanceSchedule(pairs=frozenset({(1, 1)}), value=2)
    assert validate_schedule(build_wyner(3), schedule) == ["value does not equal the number of pairs"]


def _interference_all_pairs(topology, pairs):
    """Reference: each scheduled pair checked against every other, in sorted order."""
    K = topology.K
    inside = sorted((r, t) for r, t in pairs if 1 <= r <= K and 1 <= t <= K)
    return [
        f"receiver {r} hears interfering transmitter {t2}"
        for r, t in inside
        for _, t2 in inside
        if t2 != t and t2 in topology.hears[r]
    ]


def test_schedule_interference_matches_all_pairs_reference():
    # random pairs repeat receivers and transmitters and leave the lattice
    rng = random.Random(3)
    for n in range(2, 8):
        topo, _ = build_hexagonal(n)
        for _ in range(20):
            count = rng.randint(0, topo.K)
            pairs = frozenset((rng.randint(1, topo.K + 1), rng.randint(1, topo.K)) for _ in range(count))
            problems = validate_schedule(topo, AvoidanceSchedule(pairs=pairs, value=len(pairs)))
            interference = [p for p in problems if "interfering" in p]
            assert interference == _interference_all_pairs(topo, pairs)
