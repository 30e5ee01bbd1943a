"""The nine-node worked example shared by the certificate tests."""

from __future__ import annotations

from coopzf import HexLattice, MessageAssignment, NetworkTopology


def toy_instance() -> tuple[NetworkTopology, HexLattice, MessageAssignment, dict[str, int]]:
    """Nine-node worked example: three cells joined by one linking triangle.

    Returns ``(topology, lattice, assignment, labels)`` where
    ``labels`` maps the conventional names ``a1..a3``, ``b1..b3``,
    ``c1..c3`` to node indices.  The assignment mixes a self-serving
    node, two nodes served across the linking triangle, and two plain
    in-cell services; its certified bound is 4 of 9.
    """
    names = ["a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3"]
    coords = [(1, 0), (2, 1), (1, 1), (0, 1), (1, 2), (0, 2), (2, 2), (2, 3), (3, 3)]
    lattice = HexLattice(coords={i: p for i, p in enumerate(coords, 1)})
    topology = lattice.topology
    labels = {name: i + 1 for i, name in enumerate(names)}
    sets: dict[int, frozenset[int]] = {labels[n]: frozenset() for n in names}
    sets[labels["a2"]] = frozenset({labels["a1"]})
    sets[labels["b1"]] = frozenset({labels["b3"]})
    sets[labels["a3"]] = frozenset({labels["b2"]})
    sets[labels["c2"]] = frozenset({labels["c3"]})
    sets[labels["c1"]] = frozenset({labels["c1"]})
    assignment = MessageAssignment(K=9, transmit_sets=sets)
    return topology, lattice, assignment, labels
