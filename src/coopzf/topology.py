"""Interference-network topologies.

A topology records, for every receiver in a K-user single-hop network,
which transmitters it can hear.  Four families are provided:

* a linear chain where each receiver hears its own transmitter and the
  preceding one (:func:`build_wyner`),
* linear networks with a wider connectivity band
  (:func:`build_locally_connected`),
* a square grid in which interference propagates to the right and
  downward (:func:`build_two_dim`),
* a hexagonal-sectored cellular layout built on a triangular lattice,
  indexed by Eisenstein integers (:func:`build_hexagonal`).

Indices are 1-based throughout: users are ``1..K`` and user ``i`` pairs
transmitter ``i`` with receiver ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
import json
import math

from .errors import (
    InvalidParameterError,
    _check_fields,
    _check_int,
    _check_users,
    _collector_paused,
    _document_errors,
)

# Coset names for lattice points z = a + b*w (w a primitive sixth root of
# unity); the class of (a + b) mod 3 determines which edges leave z.
_COSET_NAMES = ("square", "circle", "diamond")
_CIRCLE, _DIAMOND = 1, 2
# The upward triangle anchored at z has corners z, z + w and z + w + 1, one
# per coset in cyclic order: the corner d cosets past the anchor is
# _CORNER_STEPS[d] away from it.
_CORNER_STEPS = ((0, 0), (0, 1), (1, 1))


@dataclass
class NetworkTopology:
    """Who hears whom in a K-user interference network.

    Attributes:
        kind: family tag, e.g. ``"wyner"`` or ``"hexagonal"``.
        K: number of users, an ``int`` of at least 1.
        params: family-specific build parameters.
        hears: map from receiver index to the frozen set of transmitter
            indices it can hear (its own transmitter included in every
            family built here).
    """

    kind: str
    K: int
    params: dict
    hears: dict[int, frozenset[int]]
    _hearers: dict[int, frozenset[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_int("K", self.K, 1)
        # Count the keys before building 1..K, so that a document claiming a
        # huge K with few rows is rejected without allocating the range.
        if len(self.hears) != self.K or set(self.hears) != (users := set(range(1, self.K + 1))):
            raise InvalidParameterError("hears must have exactly the keys 1..K")
        for i, heard in self.hears.items():
            if not heard <= users:
                raise InvalidParameterError(f"receiver {i} hears out-of-range transmitters")
        listeners: dict[int, set[int]] = {t: set() for t in users}
        for i, heard in self.hears.items():
            for t in heard:
                listeners[t].add(i)
        self._hearers = {t: frozenset(rxs) for t, rxs in listeners.items()}

    def hearers(self, t: int) -> frozenset[int]:
        """Return the receivers that hear transmitter ``t``."""
        return self._hearers[t]

    def to_dict(self) -> dict:
        """The JSON object form, with sorted hearing lists; :meth:`to_json` encodes it."""
        return {
            "kind": self.kind,
            "K": self.K,
            "params": self.params,
            "hears": [sorted(self.hears[i]) for i in range(1, self.K + 1)],
        }

    def to_json(self) -> str:
        """Serialize to a JSON object with sorted hearing lists."""
        return json.dumps(self.to_dict())


@_collector_paused
def topology_from_dict(obj) -> NetworkTopology:
    """Rebuild a :class:`NetworkTopology` from the parsed object of :meth:`NetworkTopology.to_json`.

    Raises:
        InvalidParameterError: a missing field, a ``K`` or hearing list
            entry that is not an ``int`` user, a ``kind`` that is not a
            string or ``params`` that is not an object.
    """
    with _document_errors("topology"):
        rows = obj["hears"]
        _check_users("topology", obj["K"], chain.from_iterable(rows))
        _check_fields("topology", obj, kind=str, params=dict)
        hears = {i + 1: frozenset(row) for i, row in enumerate(rows)}
        return NetworkTopology(kind=obj["kind"], K=obj["K"], params=obj["params"], hears=hears)


def _is_wyner_chain(rows) -> bool:
    """Whether receiver ``i`` hears exactly ``{i-1, i}`` within ``1..K``.

    ``rows`` are the hearing sets of receivers ``1..K`` in order, or the
    hearing lists of a parsed topology document.
    """
    return all(set(row) == ({i - 1, i} if i > 1 else {1}) for i, row in enumerate(rows, 1))


@_collector_paused
def build_wyner(K: int) -> NetworkTopology:
    """Linear chain: receiver ``i`` hears transmitters ``{i-1, i}``.

    Args:
        K: number of users, at least 1.
    """
    K = _check_int("K", K, 1)
    hears = {i: frozenset(j for j in (i - 1, i) if 1 <= j <= K) for i in range(1, K + 1)}
    return NetworkTopology(kind="wyner", K=K, params={}, hears=hears)


@_collector_paused
def build_locally_connected(K: int, L: int) -> NetworkTopology:
    """Linear network where each transmitter reaches ``L`` neighbors.

    Transmitter ``j`` is heard by receivers ``j - floor(L/2)`` through
    ``j + ceil(L/2)``; equivalently receiver ``i`` hears transmitters
    ``i - ceil(L/2)`` through ``i + floor(L/2)``, clipped to ``1..K``.
    ``L = 1`` coincides with :func:`build_wyner`; ``L = 0`` is the
    interference-free network where each receiver hears only its own
    transmitter.

    Args:
        K: number of users, at least 1.
        L: connectivity parameter, at least 0.
    """
    K = _check_int("K", K, 1)
    L = _check_int("L", L, 0)
    lo, hi = -((L + 1) // 2), L // 2
    hears = {
        i: frozenset(j for j in range(i + lo, i + hi + 1) if 1 <= j <= K)
        for i in range(1, K + 1)
    }
    return NetworkTopology(kind="locally_connected", K=K, params={"L": L}, hears=hears)


@_collector_paused
def build_two_dim(K: int) -> NetworkTopology:
    """Square-grid network on ``sqrt(K) x sqrt(K)`` users.

    Users are numbered row-major: user ``j`` sits at row
    ``(j-1) // N + 1`` and column ``(j-1) % N + 1`` with ``N = sqrt(K)``.
    Transmitter ``j`` is heard at its own receiver, its right neighbor
    ``j+1`` and lower-right neighbor ``j+N+1`` (when not in the last
    column), and its lower neighbor ``j+N`` (when not in the last row).
    Interference never wraps across rows.  Each receiver's set is
    written in closed form from the receiver's side: receiver ``i``
    hears ``i``, ``i-1`` off the first column, ``i-N`` off the first
    row, and ``i-N-1`` off both, each set built in ascending order.

    Args:
        K: a perfect square, at least 1.
    """
    K = _check_int("K", K, 1)
    N = math.isqrt(K)
    if N * N != K:
        raise InvalidParameterError("K must be a perfect square")
    hears = {}
    for i in range(1, K + 1):
        if i <= N:  # first row
            hears[i] = frozenset((i - 1, i) if i > 1 else (i,))
        elif (i - 1) % N:
            hears[i] = frozenset((i - N - 1, i - N, i - 1, i))
        else:  # first column
            hears[i] = frozenset((i - N, i))
    return NetworkTopology(kind="two_dim", K=K, params={"N": N}, hears=hears)


def _coset_of(point: tuple[int, int]) -> str:
    a, b = point
    return _COSET_NAMES[(a + b) % 3]


def _lattice_edges(points: set[tuple[int, int]]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Edges of the sectored-interference graph induced on ``points``.

    From ``z = (a, b)``: the edge to ``z + 1`` exists unless ``z`` is a
    circle, and the edges to ``z + w`` and ``z + w + 1`` exist unless
    ``z`` is a square.  Endpoints outside ``points`` are dropped.
    """
    edges = []
    for a, b in sorted(points):
        coset = _coset_of((a, b))
        if coset != "circle" and (a + 1, b) in points:
            edges.append(((a, b), (a + 1, b)))
        if coset != "square":
            for other in ((a, b + 1), (a + 1, b + 1)):
                if other in points:
                    edges.append(((a, b), other))
    return edges


@dataclass
class HexLattice:
    """Triangular-lattice geometry backing a hexagonal-sectored network.

    Each user sits at a lattice point ``z = a + b*w`` recorded as the
    integer pair ``(a, b)``.  Points fall into three cosets by
    ``(a + b) mod 3`` — named square, circle, diamond — and all edges of
    the interference graph join points of different cosets.  Every user
    lies in two upward triangles ``(z, z + w, z + w + 1)``: its cell,
    anchored at a circle, and its linking triangle, anchored at a
    diamond.  Cells are pairwise disjoint, and so are linking triangles;
    each linking triangle joins three adjacent cells.  The whole
    geometry, the network included, is computed once, when the lattice
    is built from ``coords``.

    Attributes:
        coords: map from user index ``1..K`` to its distinct ``(a, b)``
            lattice point.
        n: grid side length when built from an ``n x n`` rhombus, else None.
        index_of: inverse of ``coords``.
        cosets: map from user index to its coset name.
        neighbors: interference-graph adjacency (self excluded).
        topology: the network: each receiver hears itself and its neighbors.
        cell: map from user index to its cell as (circle, diamond,
            square) user indices, or None when a corner falls off the
            lattice.
        link: map from user index to its linking triangle as (diamond,
            square, circle) user indices, or None when clipped.
        cells: the complete cells, each once, ordered by smallest user.
        interior: users whose cell and linking triangle are both complete.
    """

    coords: dict[int, tuple[int, int]]
    n: int | None = None
    index_of: dict[tuple[int, int], int] = field(init=False, repr=False)
    cosets: dict[int, str] = field(init=False, repr=False)
    neighbors: dict[int, frozenset[int]] = field(init=False, repr=False)
    topology: NetworkTopology = field(init=False, repr=False)
    cell: dict[int, tuple[int, int, int] | None] = field(init=False, repr=False)
    link: dict[int, tuple[int, int, int] | None] = field(init=False, repr=False)
    cells: tuple[tuple[int, int, int], ...] = field(init=False, repr=False)
    interior: frozenset[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.coords:
            raise InvalidParameterError("coords must be non-empty")
        self.index_of = {p: i for i, p in self.coords.items()}
        if len(self.index_of) != len(self.coords):
            raise InvalidParameterError("coords must be distinct")
        self.cosets = {i: _coset_of(p) for i, p in self.coords.items()}
        nbrs: dict[int, set[int]] = {i: set() for i in self.coords}
        for u, v in _lattice_edges(set(self.index_of)):
            iu, iv = self.index_of[u], self.index_of[v]
            nbrs[iu].add(iv)
            nbrs[iv].add(iu)
        self.neighbors = {i: frozenset(s) for i, s in nbrs.items()}
        users = sorted(self.coords)
        params = {
            "coords": [list(self.coords[i]) for i in users],
            "cosets": [self.cosets[i] for i in users],
            "n": self.n,
        }
        hears = {i: frozenset({i} | nbrs[i]) for i in users}
        self.topology = NetworkTopology(kind="hexagonal", K=len(users), params=params, hears=hears)
        # Every complete triangle is built once, at its anchor, and shared by its corners.
        self.cell, self.link = dict.fromkeys(users), dict.fromkeys(users)
        owners = {_CIRCLE: self.cell, _DIAMOND: self.link}
        for a, b in self.index_of:
            owner = owners.get((a + b) % 3)
            if owner is None:
                continue
            corners = tuple(self.index_of.get((a + da, b + db)) for da, db in _CORNER_STEPS)
            if None not in corners:
                owner.update(dict.fromkeys(corners, corners))
        self.cells = tuple(sorted({c for c in self.cell.values() if c is not None}, key=min))
        self.interior = frozenset(i for i in users if self.cell[i] and self.link[i])

    def cell_anchor(self, i: int) -> tuple[int, int]:
        """Anchor point of user ``i``'s cell; it may fall outside the lattice.

        Users of one clipped cell share its anchor while their ``cell``
        reads None.
        """
        a, b = self.coords[i]
        da, db = _CORNER_STEPS[(a + b - _CIRCLE) % 3]
        return (a - da, b - db)


def build_hexagonal(n: int) -> tuple[NetworkTopology, HexLattice]:
    """Hexagonal-sectored network on an ``n x n`` rhombus of lattice points.

    Point ``(a, b)`` with ``0 <= a, b < n`` becomes user ``b*n + a + 1``.

    Args:
        n: side length, at least 1.
    """
    n = _check_int("n", n, 1)
    coords = [(a, b) for b in range(n) for a in range(n)]
    lattice = HexLattice(coords={i: p for i, p in enumerate(coords, 1)}, n=n)
    return lattice.topology, lattice
