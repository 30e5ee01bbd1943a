"""Transmit-set bookkeeping: metrics, locality, window reduction."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopzf import (
    InvalidParameterError,
    MessageAssignment,
    NetworkTopology,
    PreconditionViolationError,
    check_local_cooperation,
    metrics,
    wyner_backhaul_scheme,
)
from coopzf.assignment import assignment_from_dict


def reduce_wyner(assignment: MessageAssignment, M: int) -> MessageAssignment:
    """Drop transmitters that cannot help message ``i`` on a linear chain.

    On a chain where receiver ``i`` hears transmitters ``{i-1, i}``, any
    transmitter outside the window ``{i-M, ..., i+M-1}`` can be removed
    from ``T_i`` without reducing what the scheme can deliver.

    Raises:
        InvalidParameterError: ``M`` is not positive.
        PreconditionViolationError: some ``|T_i|`` exceeds ``M``.
    """
    if M < 1:
        raise InvalidParameterError("M must be positive")
    for i, T in assignment.transmit_sets.items():
        if len(T) > M:
            raise PreconditionViolationError(f"|T_{i}| = {len(T)} exceeds M = {M}")
    reduced = {
        i: frozenset(t for t in T if i - M <= t <= i + M - 1)
        for i, T in assignment.transmit_sets.items()
    }
    return MessageAssignment(K=assignment.K, transmit_sets=reduced)


def validate_backhaul(assignment: MessageAssignment, B: Fraction | int) -> bool:
    """True iff the assignment's backhaul load is at most ``B``."""
    return metrics(assignment).B <= Fraction(B)


def _asg(K, sets):
    full = {i: frozenset(sets.get(i, ())) for i in range(1, K + 1)}
    return MessageAssignment(K=K, transmit_sets=full)


def test_metrics_four_user_pattern():
    a = _asg(4, {1: {1, 2}, 2: {2}, 4: {3}})
    m = metrics(a)
    assert m.B == 1
    assert m.M == 2
    assert m.histogram == {
        0: Fraction(1, 4),
        1: Fraction(1, 2),
        2: Fraction(1, 4),
    }


def test_metrics_all_self():
    a = _asg(5, {i: {i} for i in range(1, 6)})
    m = metrics(a)
    assert m.B == 1 and m.M == 1
    assert m.histogram == {1: Fraction(1)}


def test_metrics_block_pattern_sizes():
    a, _ = wyner_backhaul_scheme(8, 2)
    sizes = [len(a.transmit_sets[i]) for i in range(1, 9)]
    assert sizes == [4, 3, 2, 1, 0, 1, 2, 3]
    m = metrics(a)
    assert m.B == 2 and m.M == 4


def test_metrics_histogram_sums_to_one():
    a = _asg(6, {1: {1}, 3: {2, 3, 4}, 5: {5}})
    m = metrics(a)
    assert sum(m.histogram.values()) == 1
    assert m.B == sum(j * r for j, r in m.histogram.items())


def test_local_cooperation_block_radius():
    for B in (1, 2):
        a, _ = wyner_backhaul_scheme(8 * B, B)
        assert check_local_cooperation(a, 4 * B)


def test_local_cooperation_far_transmitter_fails():
    a = _asg(9, {1: {9}})
    assert not check_local_cooperation(a, 7)
    assert check_local_cooperation(a, 8)


def test_local_cooperation_empty_sets_radius_zero():
    a = _asg(4, {})
    assert check_local_cooperation(a, 0)


def test_local_cooperation_negative_radius_rejected():
    with pytest.raises(InvalidParameterError):
        check_local_cooperation(_asg(2, {}), -1)


def test_reduce_window_drops_far_transmitter():
    a = _asg(6, {5: {3}})
    r = reduce_wyner(a, 1)
    assert r.transmit_sets[5] == frozenset()


def test_reduce_window_keeps_in_window():
    a = _asg(6, {5: {4}})
    r = reduce_wyner(a, 1)
    assert r.transmit_sets[5] == frozenset({4})


def test_reduce_window_partial():
    a = _asg(8, {5: {3, 7}})
    r = reduce_wyner(a, 2)
    assert r.transmit_sets[5] == frozenset({3})


def test_reduce_rejects_oversized_sets():
    a = _asg(4, {2: {1, 2}})
    with pytest.raises(PreconditionViolationError):
        reduce_wyner(a, 1)
    with pytest.raises(InvalidParameterError):
        reduce_wyner(a, 0)


def test_validate_backhaul_examples():
    four = _asg(4, {1: {1, 2}, 2: {2}, 4: {3}})
    assert validate_backhaul(four, 1)
    ring = _asg(4, {i: {i, i % 4 + 1} for i in range(1, 5)})
    assert not validate_backhaul(ring, 1)
    assert validate_backhaul(ring, 2)
    assert validate_backhaul(_asg(3, {}), Fraction(1, 7))


def test_assignment_validates_indices():
    with pytest.raises(InvalidParameterError):
        _asg(3, {1: {4}})
    with pytest.raises(InvalidParameterError):
        MessageAssignment(K=2, transmit_sets={1: frozenset()})


@pytest.mark.parametrize(
    "K, users",
    [(0, 0), (-1, 0), (True, 1), (2.0, 2), ("2", 2), (None, 0)],
    ids=["zero", "negative", "bool", "float", "str", "none"],
)
def test_constructors_refuse_a_k_that_is_not_a_positive_int(K, users):
    # Keys 1..users would match a K that merely compares equal to an int.
    with pytest.raises(InvalidParameterError, match="K must be"):
        MessageAssignment(K=K, transmit_sets={i: frozenset() for i in range(1, users + 1)})
    with pytest.raises(InvalidParameterError, match="K must be"):
        NetworkTopology(kind="x", K=K, params={}, hears={i: frozenset({i}) for i in range(1, users + 1)})


def test_assignment_json_round_trip():
    a = _asg(4, {1: {1, 2}, 4: {3}})
    back = assignment_from_dict(json.loads(a.to_json()))
    assert back.K == a.K
    assert back.transmit_sets == a.transmit_sets


def test_metrics_json_rationals():
    doc = json.loads(metrics(_asg(4, {1: {1, 2}, 2: {2}, 4: {3}})).to_json())
    assert doc["B"] == "1"
    assert doc["histogram"] == {"0": "1/4", "1": "1/2", "2": "1/4"}


@st.composite
def assignments(draw, max_k=10):
    K = draw(st.integers(min_value=1, max_value=max_k))
    sets = {}
    for i in range(1, K + 1):
        size = draw(st.integers(min_value=0, max_value=min(3, K)))
        sets[i] = frozenset(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=K),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
        )
    return MessageAssignment(K=K, transmit_sets=sets)


@settings(max_examples=60, deadline=None)
@given(assignments())
def test_metrics_permutation_invariant(a):
    K = a.K
    perm = {i: K + 1 - i for i in range(1, K + 1)}
    permuted = MessageAssignment(
        K=K,
        transmit_sets={
            perm[i]: frozenset(perm[t] for t in a.transmit_sets[i]) for i in range(1, K + 1)
        },
    )
    m1, m2 = metrics(a), metrics(permuted)
    assert m1.histogram == m2.histogram
    assert m1.B == m2.B and m1.M == m2.M


@settings(max_examples=60, deadline=None)
@given(assignments(), st.integers(min_value=1, max_value=4))
def test_reduce_is_idempotent_and_shrinking(a, M):
    if any(len(T) > M for T in a.transmit_sets.values()):
        with pytest.raises(PreconditionViolationError):
            reduce_wyner(a, M)
        return
    once = reduce_wyner(a, M)
    twice = reduce_wyner(once, M)
    assert once.transmit_sets == twice.transmit_sets
    for i in range(1, a.K + 1):
        assert once.transmit_sets[i] <= a.transmit_sets[i]
