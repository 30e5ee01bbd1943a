"""Scheme generators: chain blocks, table rows, grid and lattice schemes."""

from __future__ import annotations

from fractions import Fraction
import hashlib
import json

import pytest

from coopzf import (
    HexLattice,
    InvalidParameterError,
    MessageAssignment,
    build_hexagonal,
    build_locally_connected,
    build_two_dim,
    build_wyner,
    check_local_cooperation,
    decompose_hexagonal_to_linear,
    design_beams,
    dof_report,
    hexagonal_cooperative_scheme,
    hexagonal_coset_scheme,
    locally_connected_scheme,
    metrics,
    sample_channels,
    scheme_from_json,
    scheme_to_json,
    table1_row,
    table1_scheme,
    two_dim_scheme,
    validate_scheme,
    verify,
    wyner_backhaul_scheme,
)
from coopzf.schemes import _chain

# Two order-2 blocks and one order-3 block on the L=3 chain, under the
# name the block-mixture generator gave them.
_MIXED_BLOCKS = [(2, 3, 2, 1)] * 2 + [(3, 3, 3, 1)]
_MIXED_NAME = "2xlocally_connected_L3_M2+1xlocally_connected_L3_M3"


def _mixed():
    return _chain(23, [(_MIXED_BLOCKS, range(1, 24), range(1, 24))], _MIXED_NAME, ("linear", 3))


def _generators():
    """(topology, assignment, scheme) for one instance of every generator."""
    out = []
    for K, B in [(4, 1), (8, 1), (8, 2), (16, 2), (12, 3)]:
        a, s = wyner_backhaul_scheme(K, B)
        out.append((build_wyner(K), a, s))
    for K, L, M in [(6, 2, 2), (7, 3, 2), (5, 1, 2), (7, 1, 3), (8, 2, 3), (9, 3, 3)]:
        a, s = locally_connected_scheme(K, L, M)
        out.append((build_locally_connected(K, L), a, s))
    for L in range(2, 7):
        K = table1_row(L)["K_min"]
        a, s = table1_scheme(K, L)
        out.append((build_locally_connected(K, L), a, s))
    a, s = _mixed()
    out.append((build_locally_connected(23, 3), a, s))
    a, s = two_dim_scheme(144)
    out.append((build_two_dim(144), a, s))
    topo, lat = build_hexagonal(6)
    a, s = hexagonal_coset_scheme(lat)
    out.append((topo, a, s))
    a, s = hexagonal_cooperative_scheme(lat)
    out.append((topo, a, s))
    return out


def test_chain_block_four_users():
    a, s = wyner_backhaul_scheme(4, 1)
    assert a.transmit_sets == {
        1: frozenset({1, 2}),
        2: frozenset({2}),
        3: frozenset(),
        4: frozenset({3}),
    }
    assert sorted(s.active_messages) == [1, 2, 4]
    assert s.declared_pudof == Fraction(3, 4)
    assert json.loads(scheme_to_json(s, build_wyner(4), a))["deactivated"] == [4]


def test_chain_block_dof_counts():
    for K, B, dof in [(8, 2, 7), (8, 1, 6), (40, 1, 30)]:
        _, s = wyner_backhaul_scheme(K, B)
        assert len(s.active_messages) == dof
        assert s.declared_pudof == Fraction(4 * B - 1, 4 * B)


def test_chain_block_divisibility_required():
    with pytest.raises(InvalidParameterError):
        wyner_backhaul_scheme(10, 1)
    with pytest.raises(InvalidParameterError):
        wyner_backhaul_scheme(8, 0)


def test_wide_chain_block_examples():
    a, s = locally_connected_scheme(6, 2, 2)
    assert s.declared_pudof == Fraction(2, 3)
    assert s.declared_backhaul == 1
    a, s = locally_connected_scheme(7, 3, 2)
    assert s.declared_pudof == Fraction(4, 7)
    assert s.declared_backhaul == Fraction(6, 7)
    assert sorted(s.active_messages) == [1, 2, 6, 7]
    a, s = locally_connected_scheme(5, 1, 2)
    assert s.declared_pudof == Fraction(4, 5)
    assert s.declared_backhaul == Fraction(6, 5)


def test_wide_chain_block_divisibility_required():
    with pytest.raises(InvalidParameterError):
        locally_connected_scheme(8, 3, 2)  # block is 7
    with pytest.raises(InvalidParameterError):
        locally_connected_scheme(6, 0, 2)


_NOT_INTEGERS = {
    "wyner-B-float": lambda: wyner_backhaul_scheme(12, 1.5),
    "wyner-B-bool": lambda: wyner_backhaul_scheme(8, True),
    "wyner-K-float": lambda: wyner_backhaul_scheme(8.0, 2),
    "lc-K-float": lambda: locally_connected_scheme(7.0, 3, 2),
    "lc-L-bool": lambda: locally_connected_scheme(5, True, 2),
    "lc-M-fraction": lambda: locally_connected_scheme(7, 3, Fraction(2)),
    "table1-K-float": lambda: table1_scheme(18.0, 4),
    "table1-L-float": lambda: table1_scheme(18, 4.0),
    "table1-row-L-float": lambda: table1_row(4.0),
    "two-dim-K-float": lambda: two_dim_scheme(144.0),
    "build-wyner-bool": lambda: build_wyner(True),
    "build-wyner-str": lambda: build_wyner("8"),
    "build-lc-K-float": lambda: build_locally_connected(7.0, 3),
    "build-lc-L-bool": lambda: build_locally_connected(7, True),
    "build-two-dim-float": lambda: build_two_dim(144.0),
    "build-hexagonal-bool": lambda: build_hexagonal(True),
}


@pytest.mark.parametrize("call", list(_NOT_INTEGERS))
def test_integer_parameters_reject_other_types(call):
    with pytest.raises(InvalidParameterError, match="must be an integer, not"):
        _NOT_INTEGERS[call]()


def test_generators_pass_structural_validation():
    for topo, a, s in _generators():
        assert validate_scheme(topo, a, s) == [], s.name
        used = set().union(*(a.transmit_sets[i] for i in s.active_messages))
        deactivated = json.loads(scheme_to_json(s, topo, a))["deactivated"]
        assert deactivated == sorted(set(range(1, s.K + 1)) - used), s.name


def test_generators_declare_exact_metrics():
    for topo, a, s in _generators():
        m = metrics(a)
        assert m.B == s.declared_backhaul, s.name
        assert Fraction(len(s.active_messages), s.K) == s.declared_pudof, s.name


def test_chain_generators_respect_block_locality():
    for K, B in [(8, 1), (16, 2)]:
        a, _ = wyner_backhaul_scheme(K, B)
        assert check_local_cooperation(a, 4 * B)
    for K, L, M in [(14, 3, 2), (16, 2, 3)]:
        a, _ = locally_connected_scheme(K, L, M)
        assert check_local_cooperation(a, 2 * M + L)


def test_block_isolation_brute_force():
    """No transmitter used in one block is audible at another block's active receiver."""
    cases = [
        (build_wyner(12), *wyner_backhaul_scheme(12, 1), 4),
        (build_locally_connected(14, 3), *locally_connected_scheme(14, 3, 2), 7),
        (build_locally_connected(16, 2), *locally_connected_scheme(16, 2, 3), 8),
    ]
    for topo, a, s, block in cases:
        for i in sorted(s.active_messages):
            for t in a.transmit_sets[i]:
                for k in sorted(s.active_messages):
                    if (k - 1) // block != (i - 1) // block:
                        assert t not in topo.hears[k], (s.name, i, t, k)


def test_table_rows_exact():
    want = {
        2: (Fraction(2, 3), (1, 0), 6),
        3: (Fraction(3, 5), (7, 3), 30),
        4: (Fraction(5, 9), (4, 5), 18),
        5: (Fraction(11, 21), (3, 11), 42),
        6: (Fraction(1, 2), (0, 1), 12),
    }
    for L, (pudof, ratio, kmin) in want.items():
        row = table1_row(L)
        assert row["pudof"] == pudof
        assert row["backhaul"] == 1
        assert row["ratio"] == ratio
        assert row["K_min"] == kmin
        # the block counts balance per-block backhaul surplus/deficit to exactly 1
        n2, n3 = row["blocks_m2"], row["blocks_m3"]
        assert n2 * (6 - (4 + L)) + n3 * (12 - (6 + L)) == 0
        assert n2 * (4 + L) + n3 * (6 + L) == row["K_min"]


def test_mixture_weighted_fractions():
    # seven users of order 2 to three of order 3 on the L=3 chain
    blocks = [(2, 3, 2, 1)] * 3 + [(3, 3, 3, 1)]
    a, s = _chain(30, [(blocks, range(1, 31), range(1, 31))], "mix", ("linear", 3))
    assert s.K == 30
    assert s.declared_pudof == Fraction(3, 5)
    assert s.declared_backhaul == 1
    table_a, table_s = table1_scheme(30, 3)
    assert a.transmit_sets == table_a.transmit_sets
    assert (s.declared_pudof, s.declared_backhaul) == (table_s.declared_pudof, table_s.declared_backhaul)


def test_table_scheme_scales_to_multiples():
    a, s = table1_scheme(36, 4)
    assert s.declared_pudof == Fraction(5, 9)
    assert s.declared_backhaul == 1
    assert metrics(a).B == 1
    with pytest.raises(InvalidParameterError):
        table1_scheme(20, 4)
    with pytest.raises(InvalidParameterError):
        table1_row(7)


def test_grid_scheme_headline_fractions():
    a, s = two_dim_scheme(144)
    assert s.declared_pudof == Fraction(5, 9)
    assert s.declared_backhaul == 1
    with pytest.raises(InvalidParameterError):
        two_dim_scheme(145)  # not a perfect square
    with pytest.raises(InvalidParameterError):
        two_dim_scheme(81)  # side not a multiple of 12


def test_grid_row_scheme_fractions():
    # Row 1 of the grid is served from transmitter row 1 alone: 70 of its
    # 84 users at load 126, so per-user DoF 5/6 at row backhaul 3/2.
    N = 84
    a, s = two_dim_scheme(N * N)
    row = set(range(1, N + 1))
    assert all(a.transmit_sets[i] <= row for i in row)
    assert len(s.active_messages & row) == 70
    assert sum(len(a.transmit_sets[i]) for i in row) == 126


def test_grid_scheme_silences_every_third_transmitter_row():
    N = 12
    a, s = two_dim_scheme(N * N)
    silent_rows = {r for r in range(1, N + 1) if r % 3 == 0}
    deactivated = json.loads(scheme_to_json(s, build_two_dim(N * N), a))["deactivated"]
    for tx in range(1, N * N + 1):
        row = (tx - 1) // N + 1
        if row in silent_rows:
            assert tx in deactivated
    used = set()
    for i in s.active_messages:
        used |= a.transmit_sets[i]
    assert all((tx - 1) // N + 1 not in silent_rows for tx in used)


def test_grid_rows_isolated():
    N = 12
    topo = build_two_dim(N * N)
    a, s = two_dim_scheme(N * N)
    active_tx = set()
    for i in s.active_messages:
        active_tx |= a.transmit_sets[i]
    for i in sorted(s.active_messages):
        serving_row = (s.serving[i] - 1) // N + 1
        for t in topo.hears[i]:
            if t in active_tx:
                assert (t - 1) // N + 1 == serving_row


def test_coset_scheme_counts():
    topo, lat = build_hexagonal(6)
    a, s = hexagonal_coset_scheme(lat)
    assert len(s.active_messages) == 12
    assert s.declared_pudof == Fraction(1, 3)
    assert s.declared_backhaul == Fraction(1, 3)
    # isolation: no active receiver hears another active transmitter
    for i in s.active_messages:
        for k in s.active_messages:
            if k != i:
                assert not (a.transmit_sets[i] & topo.hears[k]), (i, k)


def test_coset_scheme_small_lattice():
    topo, lat = build_hexagonal(2)
    a, s = hexagonal_coset_scheme(lat)
    circles = sum(1 for c in lat.cosets.values() if c == "circle")
    assert s.declared_pudof == Fraction(circles, 4)


def validate_linear_decomposition(
    lattice: HexLattice, deactivated: frozenset[int], chains: list[list[int]]
) -> list[str]:
    """Structural checks for a chain decomposition; returns violations."""
    problems: list[str] = []
    K = len(lattice.coords)
    if K % 3 == 0 and len(deactivated) != K // 3:
        problems.append(f"expected {K // 3} deactivated nodes, got {len(deactivated)}")
    members: list[int] = [u for chain in chains for u in chain]
    if len(members) != len(set(members)):
        problems.append("chains overlap")
    if set(members) | set(deactivated) != set(lattice.coords) or set(members) & set(deactivated):
        problems.append("chains plus deactivated nodes must partition the lattice")
    kept = set(members)
    pos: dict[int, tuple[int, int]] = {}
    for ci, chain in enumerate(chains):
        for p, u in enumerate(chain):
            pos[u] = (ci, p)
    for u in members:
        ci, p = pos[u]
        expected = {chains[ci][q] for q in (p - 1, p + 1) if 0 <= q < len(chains[ci])}
        actual = lattice.neighbors[u] & kept
        if actual != expected:
            problems.append(f"node {u} neighbors {sorted(actual)} instead of {sorted(expected)}")
    return problems


def test_linear_decomposition_valid():
    _, lat = build_hexagonal(6)
    deact, chains = decompose_hexagonal_to_linear(lat)
    assert len(deact) == 12
    assert sum(len(c) for c in chains) == 24
    assert validate_linear_decomposition(lat, deact, chains) == []


def test_linear_decomposition_chain_adjacency():
    _, lat = build_hexagonal(6)
    deact, chains = decompose_hexagonal_to_linear(lat)
    keep = set().union(*map(set, chains))
    position = {}
    for c in chains:
        for p, node in enumerate(c):
            position[node] = (id(c), p)
    for c in chains:
        for p, node in enumerate(c):
            for nb in lat.neighbors[node]:
                if nb in keep:
                    cid, q = position[nb]
                    assert cid == id(c), "edge crosses chains"
                    assert abs(q - p) == 1, "chain adjacency must be consecutive"


@pytest.mark.parametrize("n", range(6, 97, 6))
def test_linear_decomposition_row_pairs(n):
    _, lat = build_hexagonal(n)
    deact, chains = decompose_hexagonal_to_linear(lat)
    assert validate_linear_decomposition(lat, deact, chains) == []
    assert len(deact) == n * n // 3
    assert [len(c) for c in chains] == [4 * n // 3] * (n // 2)
    assert all(c[0] < c[-1] for c in chains)
    rows = [sorted({lat.coords[u][1] for u in c}) for c in chains]
    assert rows == [[b, b + 1] for b in range(0, n, 2)]


@pytest.mark.parametrize("n", [3, 4, 9, 15])
def test_linear_decomposition_requires_multiple_of_six(n):
    _, lat = build_hexagonal(n)
    with pytest.raises(InvalidParameterError):
        decompose_hexagonal_to_linear(lat)


def test_cooperative_lattice_scheme_fractions():
    topo, lat = build_hexagonal(6)
    a, s = hexagonal_cooperative_scheme(lat)
    assert s.declared_pudof == Fraction(1, 2)
    assert s.declared_backhaul == 1
    assert metrics(a).B == 1
    assert len(s.active_messages) == 18


def test_cooperative_lattice_chain_dof_share():
    _, lat = build_hexagonal(6)
    deact, chains = decompose_hexagonal_to_linear(lat)
    for c in chains:
        assert len(c) % 8 == 0
    a, s = hexagonal_cooperative_scheme(lat)
    # six active per block of eight chain nodes
    chain_nodes = set().union(*map(set, chains))
    assert len(s.active_messages) == sum(len(c) // 8 * 6 for c in chains)
    assert s.active_messages <= chain_nodes


@pytest.mark.parametrize("n", [6, 12, 18, 24])
def test_cooperative_lattice_sweep(n):
    topo, lat = build_hexagonal(n)
    a, s = hexagonal_cooperative_scheme(lat)
    assert validate_scheme(topo, a, s) == []
    channels = sample_channels(topo, 0)
    assert verify(topo, channels, s, design_beams(topo, channels, a, s)).passed
    report = dof_report(s, a)
    assert report.achieved_dof == n * n // 2
    assert report.per_user_dof == s.declared_pudof == Fraction(1, 2)
    assert report.backhaul == s.declared_backhaul == 1


@pytest.mark.parametrize("n", [3, 9])
def test_cooperative_lattice_needs_side_multiple_of_six(n):
    _, lat = build_hexagonal(n)
    with pytest.raises(InvalidParameterError):
        hexagonal_cooperative_scheme(lat)


# SHA-256 of scheme_to_json(scheme, topology=..., assignment=...) for one
# call of each generator.  Any change to a scheme document must update its
# digest here and record the reason in CHANGES.md.
_PINNED_DOCUMENTS = {
    "wyner_backhaul_scheme": (
        lambda: (build_wyner(16), *wyner_backhaul_scheme(16, 2)),
        "35eb04aabeabf090eed4b74f138dc598985adf3fc308c8c20417f643ab8f8f38",
    ),
    "locally_connected_scheme": (
        lambda: (build_locally_connected(14, 3), *locally_connected_scheme(14, 3, 2)),
        "e263cf201d56143646cd95840bb8eba3bbc18db7db773e6bbaaf9587a427aa13",
    ),
    "convex_combination": (
        lambda: (build_locally_connected(23, 3), *_mixed()),
        "41126e913a01f5dd91d7b68a233e11c18b37cc19fd34e3c8af04523e29910cb7",
    ),
    "table1_scheme": (
        lambda: (build_locally_connected(18, 4), *table1_scheme(18, 4)),
        "2ebdc9699956d213859df054738041230c5353aec47d2115fda5401703278533",
    ),
    "two_dim_scheme": (
        lambda: (build_two_dim(144), *two_dim_scheme(144)),
        "db253944cb2a29133d6aab767c5adbd23c03ad9dc164b3395e19da1ad54161b3",
    ),
    "hexagonal_coset_scheme": (
        lambda: (build_hexagonal(6)[0], *hexagonal_coset_scheme(build_hexagonal(6)[1])),
        "48ffa42d15e05f9b10d629fa8d4cc36d0652d5aa74d51f732e76bfc30892fa64",
    ),
    "hexagonal_cooperative_scheme": (
        lambda: (build_hexagonal(6)[0], *hexagonal_cooperative_scheme(build_hexagonal(6)[1])),
        "b5409a083567e5e64f6ba0b4fdf686f177e95c3076a21b67c615e389c4c27241",
    ),
}


@pytest.mark.parametrize("generator", list(_PINNED_DOCUMENTS))
def test_scheme_documents_are_pinned(generator):
    build, digest = _PINNED_DOCUMENTS[generator]
    topology, assignment, scheme = build()
    document = scheme_to_json(scheme, topology=topology, assignment=assignment)
    assert hashlib.sha256(document.encode()).hexdigest() == digest


def _grid_instances():
    """(topology, assignment, scheme) for every generator over a range of sizes."""
    for B in range(1, 6):
        for blocks in range(1, 4):
            K = 4 * B * blocks
            yield (build_wyner(K), *wyner_backhaul_scheme(K, B))
    for L in range(1, 7):
        for M in range(1, 6):
            K = 2 * (2 * M + L)
            yield (build_locally_connected(K, L), *locally_connected_scheme(K, L, M))
    for L in range(2, 7):
        for copies in (1, 2):
            K = copies * table1_row(L)["K_min"]
            yield (build_locally_connected(K, L), *table1_scheme(K, L))
    for N in (12, 24):
        yield (build_two_dim(N * N), *two_dim_scheme(N * N))
    for n in (6, 12, 18, 24, 48):
        topology, lattice = build_hexagonal(n)
        yield (topology, *hexagonal_cooperative_scheme(lattice))
    for n in (1, 2, 3, 4, 5, 9, 12):
        topology, lattice = build_hexagonal(n)
        yield (topology, *hexagonal_coset_scheme(lattice))


def test_scheme_documents_are_pinned_across_sizes():
    # One SHA-256 over every document of the grid, newline-separated.
    documents = "\n".join(
        scheme_to_json(scheme, topology=topology, assignment=assignment)
        for topology, assignment, scheme in _grid_instances()
    )
    assert (
        hashlib.sha256(documents.encode()).hexdigest()
        == "14b91aac1e654230a3dcc3ccd79d81f7e8ae66e8039aaadcc66fd6caa9e43366"
    )


def test_read_documents_are_written_back_byte_for_byte():
    for topology, assignment, scheme in _grid_instances():
        document = scheme_to_json(scheme, topology=topology, assignment=assignment)
        assert scheme_to_json(*scheme_from_json(document)) == document, scheme.name


def test_scheme_json_round_trip():
    topo = build_locally_connected(7, 3)
    a, s = locally_connected_scheme(7, 3, 2)
    doc = scheme_to_json(s, topology=topo, assignment=a)
    s2, topo2, a2 = scheme_from_json(doc)
    assert s2.active_messages == s.active_messages
    assert s2.serving == s.serving
    assert s2.cancel_at == s.cancel_at
    assert json.loads(doc)["deactivated"] == [1, 6, 7]
    assert s2.declared_pudof == s.declared_pudof
    assert topo2.hears == topo.hears
    assert a2.transmit_sets == a.transmit_sets


def test_validate_scheme_flags_gaps():
    topo = build_wyner(4)
    a, s = wyner_backhaul_scheme(4, 1)
    # drop a needed cancellation
    broken = type(s)(
        K=s.K,
        active_messages=s.active_messages,
        serving=dict(s.serving),
        cancel_at={i: () for i in s.active_messages},
        declared_pudof=s.declared_pudof,
        declared_backhaul=s.declared_backhaul,
    )
    assert any("cancellation" in p or "hears" in p for p in validate_scheme(topo, a, broken))


def test_validate_scheme_names_each_inconsistency():
    # cancel_at has a key 3 that is not active; message 1 lists receiver 2
    # twice, its own receiver, and receiver 5, which hears none of T_1 = {1, 2}
    topo = build_wyner(6)
    sets = dict.fromkeys(range(1, 7), frozenset())
    a = MessageAssignment(K=6, transmit_sets={**sets, 1: frozenset({1, 2}), 2: frozenset({2})})
    s = type(wyner_backhaul_scheme(4, 1)[1])(
        K=6,
        active_messages=frozenset({1, 2}),
        serving={1: 1, 2: 2},
        cancel_at={1: (2, 2, 1, 5), 2: (), 3: ()},
        declared_pudof=Fraction(1, 3),
        declared_backhaul=Fraction(1, 2),
    )
    assert validate_scheme(topo, a, s) == [
        "serving/cancel_at keys must equal active_messages",
        "cancellation list of message 1 has duplicates",
        "message 1 lists its own receiver for cancellation",
        "cancellation list of message 1 includes receivers that hear none of its transmitters",
    ]


def test_validate_scheme_names_a_gap_behind_its_own_receiver():
    # C_1 = (1,) has as many entries as the other active receivers that hear
    # T_1 = {1, 2}, but it names receiver 1 instead of receiver 2.
    topo = build_wyner(12)
    a, s = wyner_backhaul_scheme(12, 1)
    s.cancel_at[1] = (1,)
    assert validate_scheme(topo, a, s) == [
        "message 1 lists its own receiver for cancellation",
        "active receiver 2 hears message 1 but is not in its cancellation list",
    ]


def test_validate_scheme_flags_empty_transmit_set():
    topo = build_wyner(2)
    a = MessageAssignment(K=2, transmit_sets={1: frozenset(), 2: frozenset()})
    s_bad = type(wyner_backhaul_scheme(4, 1)[1])(
        K=2,
        active_messages=frozenset({1}),
        serving={1: 1},
        cancel_at={1: ()},
        declared_pudof=Fraction(1, 2),
        declared_backhaul=Fraction(0),
    )
    assert any("empty transmit set" in p for p in validate_scheme(topo, a, s_bad))
