"""Topology builders: chain, grid, and hexagonal-lattice hearing relations."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopzf import (
    HexLattice,
    InvalidParameterError,
    NetworkTopology,
    build_hexagonal,
    build_locally_connected,
    build_two_dim,
    build_wyner,
    topology_from_dict,
)


def test_wyner_three_users():
    t = build_wyner(3)
    assert t.hears == {
        1: frozenset({1}),
        2: frozenset({1, 2}),
        3: frozenset({2, 3}),
    }


def test_wyner_hearers_inverse():
    t = build_wyner(5)
    assert t.hearers(2) == frozenset({2, 3})
    assert t.hearers(5) == frozenset({5})


def test_locally_connected_even_window():
    t = build_locally_connected(5, 2)
    assert t.hears[3] == frozenset({2, 3, 4})


def test_locally_connected_odd_window_clips():
    t = build_locally_connected(5, 3)
    assert t.hears[3] == frozenset({1, 2, 3, 4})
    assert t.hears[1] == frozenset({1, 2})


def test_locally_connected_zero_is_interference_free():
    t = build_locally_connected(6, 0)
    for i in range(1, 7):
        assert t.hears[i] == frozenset({i})


def test_wyner_equals_locally_connected_one():
    for K in range(1, 51):
        assert build_wyner(K).hears == build_locally_connected(K, 1).hears


def test_bad_parameters_rejected():
    with pytest.raises(InvalidParameterError):
        build_wyner(0)
    with pytest.raises(InvalidParameterError):
        build_locally_connected(5, -1)
    with pytest.raises(InvalidParameterError):
        build_two_dim(8)  # not a perfect square
    with pytest.raises(InvalidParameterError):
        build_hexagonal(0)


def test_two_dim_nine_users():
    t = build_two_dim(9)
    assert t.hearers(1) == frozenset({1, 2, 4, 5})
    assert t.hearers(3) == frozenset({3, 6})
    assert t.hearers(9) == frozenset({9})


def test_two_dim_support_is_symmetric_in_size():
    t = build_two_dim(16)
    for i in range(1, 17):
        assert i in t.hears[i]  # every receiver hears its own transmitter
        for j in t.hears[i]:
            assert 1 <= j <= 16


@pytest.mark.parametrize("N", range(1, 14))
def test_two_dim_matches_the_transmitter_side_rule(N):
    # Transmitter j is heard at j, at j+1 and j+N+1 unless j is in the last
    # column, and at j+N unless j is in the last row.
    K = N * N
    heard_at = {i: set() for i in range(1, K + 1)}
    for j in range(1, K + 1):
        targets = [j]
        if j % N:  # not in the last column
            targets += [j + 1, j + N + 1]
        if j <= K - N:  # not in the last row
            targets.append(j + N)
        for rx in targets:
            if rx <= K:
                heard_at[rx].add(j)
    assert build_two_dim(K).hears == heard_at


def test_hexagonal_coset_counts_balanced():
    _, lat = build_hexagonal(6)
    counts = Counter(lat.cosets.values())
    assert counts == {"square": 12, "circle": 12, "diamond": 12}


def test_hexagonal_no_same_coset_edges():
    topo, lat = build_hexagonal(5)
    for i in lat.coords:
        for j in lat.neighbors[i]:
            assert lat.cosets[i] != lat.cosets[j]


def test_hexagonal_interior_degree_four():
    topo, lat = build_hexagonal(6)
    for i in lat.interior:
        assert len(lat.neighbors[i]) == 4


def test_hexagonal_interior_counts():
    for n, want in [(3, 2), (4, 5), (5, 11), (6, 19)]:
        _, lat = build_hexagonal(n)
        assert len(lat.interior) == want


def test_complete_cell_counts():
    for n, want in [(3, 2), (4, 3), (5, 5), (6, 9)]:
        _, lat = build_hexagonal(n)
        assert len(lat.cells) == want
        assert set(lat.cells) == {t for t in lat.cell.values() if t is not None}
        assert list(lat.cells) == sorted(lat.cells, key=min)


def test_cells_are_disjoint_triangles():
    _, lat = build_hexagonal(6)
    seen: set[int] = set()
    for tri in lat.cells:
        assert len(set(tri)) == 3
        assert not (set(tri) & seen)
        seen.update(tri)
        # members are pairwise adjacent
        a, b, c = tri
        assert b in lat.neighbors[a] and c in lat.neighbors[a] and c in lat.neighbors[b]


def test_every_node_has_one_cell_anchor():
    _, lat = build_hexagonal(6)
    for i in lat.coords:
        tri = lat.cell[i]
        if tri is not None:
            assert i in tri
        mid = lat.link[i]
        if mid is not None:
            assert i in mid


def test_cell_and_link_triangles_differ():
    _, lat = build_hexagonal(6)
    for i in lat.coords:
        tri, mid = lat.cell[i], lat.link[i]
        if tri is not None and mid is not None:
            assert set(tri) & set(mid) == {i}
        # the two anchors differ even when clipped: one is a circle, the other a diamond
        a, b = lat.cell_anchor(i)
        assert (a + b) % 3 == 1
        if tri is not None:
            assert lat.coords[tri[0]] == (a, b)
        if mid is not None:
            assert lat.cosets[mid[0]] == "diamond"


def test_each_edge_in_exactly_one_triangle():
    _, lat = build_hexagonal(6)
    edges = {
        frozenset({i, j}) for i in lat.coords for j in lat.neighbors[i]
    }
    cover = Counter()
    triangles = {t for t in (*lat.cell.values(), *lat.link.values()) if t is not None}
    for a, b, c in triangles:
        for e in (frozenset({a, b}), frozenset({a, c}), frozenset({b, c})):
            cover[e] += 1
    # every covered edge is covered once; uncovered edges sit on clipped triangles
    assert all(v == 1 for v in cover.values())
    assert set(cover) <= edges


def test_adjacent_nodes_share_at_most_one_common_neighbor():
    # each edge lies in one triangle, whose third vertex may be clipped
    # off the finite grid — so interior edges share exactly one common
    # neighbor and boundary edges at most one
    _, lat = build_hexagonal(6)
    inner = lat.interior
    for i in lat.coords:
        for j in lat.neighbors[i]:
            common = lat.neighbors[i] & lat.neighbors[j]
            assert len(common) <= 1
            if i in inner and j in inner:
                assert len(common) == 1


def test_custom_coords_toy_has_twelve_edges():
    coords = [(1, 0), (2, 1), (1, 1), (0, 1), (1, 2), (0, 2), (2, 2), (2, 3), (3, 3)]
    lat = HexLattice(coords={i: p for i, p in enumerate(coords, 1)})
    topo = lat.topology
    edge_count = sum(len(lat.neighbors[i]) for i in lat.coords) // 2
    assert edge_count == 12
    assert topo.K == 9


def test_hexagonal_hears_is_closed_neighborhood():
    topo, lat = build_hexagonal(4)
    for i in lat.coords:
        assert topo.hears[i] == frozenset({i}) | lat.neighbors[i]


def test_json_round_trip():
    for topo in (
        build_wyner(4),
        build_locally_connected(7, 3),
        build_two_dim(9),
        build_hexagonal(3)[0],
    ):
        back = topology_from_dict(json.loads(topo.to_json()))
        assert back.kind == topo.kind
        assert back.K == topo.K
        assert back.hears == topo.hears


def test_topology_json_is_sorted_lists():
    doc = json.loads(build_wyner(3).to_json())
    assert doc["hears"] == [[1], [1, 2], [2, 3]]


def test_malformed_topology_rejected():
    with pytest.raises(InvalidParameterError):
        NetworkTopology(kind="wyner", K=2, params={}, hears={1: frozenset({1})})
    with pytest.raises(InvalidParameterError):
        NetworkTopology(
            kind="wyner", K=2, params={}, hears={1: frozenset({1}), 2: frozenset({5})}
        )


@settings(max_examples=30, deadline=None)
@given(K=st.integers(min_value=1, max_value=40), L=st.integers(min_value=0, max_value=6))
def test_locally_connected_window_size(K, L):
    t = build_locally_connected(K, L)
    for i in range(1, K + 1):
        lo = max(1, i - ((L + 1) // 2))
        hi = min(K, i + L // 2)
        assert t.hears[i] == frozenset(range(lo, hi + 1))
