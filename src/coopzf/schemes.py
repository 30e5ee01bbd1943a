"""Cooperative zero-forcing scheme generators.

A scheme pairs a message assignment with an activation plan: which
messages get one degree of freedom, which transmitter delivers each,
and at which receivers each message's interference must be nulled;
the transmitters no active message uses stay silent.  Every scheme is
a list of blocks ``(a, gap, b, s)`` that one emitter lays end to end
along rows of user labels: the Wyner scheme under integer backhaul
``B`` is the asymmetric block ``(2B, 1, 2B-1, 0)``, the locally
connected scheme of order ``M`` is ``(M, L, M, floor(L/2))``, and the
best known unit-backhaul rows for L = 2..6 and the square-grid row lay
order-2 and then order-3 blocks.  Square-grid schemes lay that row
along every served row; hexagonal networks get the coset plan, one-user
blocks on the circles, and the cooperative plan, which silences the
circles and diamonds of every odd row so that each pair of rows becomes
one isolated chain of order-3 blocks (every side that is a multiple of 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
import json
import math

from .assignment import MessageAssignment, metrics
from .errors import (
    InvalidParameterError,
    _check_fields,
    _check_int,
    _check_sizes,
    _check_users,
    _collector_paused,
    _document_errors,
)
from .topology import HexLattice, NetworkTopology, topology_from_dict


@dataclass
class ZfScheme:
    """Activation plan for one-shot zero-forcing.

    Silent transmitters are not stored; :func:`scheme_to_json` derives them.

    Attributes:
        K: number of users.
        active_messages: messages allocated one degree of freedom.
        serving: active message ``i`` -> transmitter delivering it.
        cancel_at: active message ``i`` -> receivers where its
            interference is nulled.  Beam design reads only the set;
            documents keep the stored order.
        declared_pudof: the generator's exact per-user DoF claim.
        declared_backhaul: the generator's exact backhaul-load claim.
        name: human-readable generator tag; the network is the topology's.
    """

    K: int
    active_messages: frozenset[int]
    serving: dict[int, int]
    cancel_at: dict[int, tuple[int, ...]]
    declared_pudof: Fraction
    declared_backhaul: Fraction
    name: str = ""


@dataclass
class DofReport:
    """Exact degrees-of-freedom accounting for a scheme.

    Attributes:
        achieved_dof: number of active messages.
        per_user_dof: achieved_dof / K, exact.
        backhaul: exact backhaul load of the underlying assignment.
        scheme_name: tag of the generating scheme.
    """

    achieved_dof: int
    per_user_dof: Fraction
    backhaul: Fraction
    scheme_name: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "achieved_dof": self.achieved_dof,
                "per_user_dof": str(self.per_user_dof),
                "backhaul": str(self.backhaul),
                "scheme_name": self.scheme_name,
            }
        )


def dof_report(scheme: ZfScheme, assignment: MessageAssignment) -> DofReport:
    """Exact degrees-of-freedom and backhaul accounting for a scheme and its same-size assignment."""
    _check_sizes(scheme=scheme, assignment=assignment)
    achieved = len(scheme.active_messages)
    return DofReport(
        achieved_dof=achieved,
        per_user_dof=Fraction(achieved, scheme.K),
        backhaul=metrics(assignment).B,
        scheme_name=scheme.name,
    )


@_collector_paused
def validate_scheme(
    topology: NetworkTopology, assignment: MessageAssignment, scheme: ZfScheme
) -> list[str]:
    """Structural checks a zero-forcing plan must satisfy; returns violations.

    Checked: serving transmitters belong to the transmit set and are
    audible at their receiver; cancellation lists stay within receivers
    that hear the transmit set and never include the served receiver;
    every active receiver hearing any transmitter of ``T_i`` appears in
    ``C_i`` (complete interference coverage).  Deliverability is left to
    the rank test and the numeric path.

    Coverage only visits the active receivers in ``hearers(t)`` for
    ``t in T_i``, so the cost is linear in ``sum |T_i| * degree``.  It
    takes the active receivers that hear ``T_i``, less ``C_i`` and ``i``,
    as one set difference and names what is left, in ascending order; a
    covered message leaves nothing to sort.  Sizes that disagree raise
    :class:`InvalidParameterError`.
    """
    _check_sizes(topology=topology, assignment=assignment, scheme=scheme)
    problems: list[str] = []
    active = scheme.active_messages
    if not (set(scheme.serving) == active == set(scheme.cancel_at)):
        problems.append("serving/cancel_at keys must equal active_messages")
    hearers = topology.hearers
    for i in sorted(active):
        T = assignment.transmit_sets.get(i, frozenset())
        if not T:
            problems.append(f"active message {i} has an empty transmit set")
            continue
        t = scheme.serving.get(i)
        if t not in T:
            problems.append(f"serving transmitter of message {i} is outside its transmit set")
        if t is not None and t not in topology.hears[i]:
            problems.append(f"serving transmitter of message {i} is not heard at receiver {i}")
        C = scheme.cancel_at.get(i, ())
        cs = set(C)
        if len(cs) != len(C):
            problems.append(f"cancellation list of message {i} has duplicates")
        if i in cs:
            problems.append(f"message {i} lists its own receiver for cancellation")
        audible_at = set()
        for tx in T:
            audible_at |= hearers(tx)
        if not cs <= audible_at:
            problems.append(f"cancellation list of message {i} includes receivers that hear none of its transmitters")
        missing = audible_at & active
        missing -= cs
        missing.discard(i)
        if missing:
            for k in sorted(missing):
                problems.append(f"active receiver {k} hears message {i} but is not in its cancellation list")
    return problems


def _chain(K: int, rows, name: str) -> tuple[MessageAssignment, ZfScheme]:
    """Lay chain blocks ``(a, gap, b, s)`` end to end along rows of a ``K``-user network.

    Each row is ``(blocks, rx, tx)``: its blocks are laid from local
    user 1 on, and local user ``p`` is global receiver ``rx[p-1]`` and
    transmitter ``tx[p-1]``.  In each block (local index ``i``) the
    first ``a`` messages are sent by transmitter spans
    ``{i+s,...,a+s}`` from transmitter ``i+s``, the next ``gap`` are
    dropped, and the last ``b`` are sent by spans
    ``{a+1+s,...,i-gap+s}`` from transmitter ``i-gap+s``.  Each message
    nulls its interference at the other active receivers of its half,
    nearest first.  Users no block serves get empty transmit sets.  The
    declared values come from each block's closed form, ``a+b``
    messages served at load ``(a(a+1) + b(b+1))/2``, summed over every
    block and divided by ``K``.  The scheme names no network.
    """
    tsets: dict[int, frozenset[int]] = dict.fromkeys(range(1, K + 1), frozenset())
    serving: dict[int, int] = {}
    cancel: dict[int, tuple[int, ...]] = {}
    served = load = 0
    for blocks, rx, tx in rows:
        o = 0
        for a, gap, b, s in blocks:
            head, tail = o + a, o + a + gap
            fore, span = tuple(rx[o:head]), tx[o + s : head + s]
            for k, r in enumerate(fore):
                tsets[r] = frozenset(span[k:])
                serving[r] = span[k]
                cancel[r] = fore[k + 1 :]
            o = tail + b
            if b:  # the coset plan lays one-user blocks, with no second half
                aft, span = tuple(rx[tail:o]), tx[head + s : o - gap + s]
                for k, r in enumerate(aft):
                    tsets[r] = frozenset(span[: k + 1])
                    serving[r] = span[k]
                    cancel[r] = aft[:k][::-1]
            served += a + b
            load += a * (a + 1) + b * (b + 1)
    scheme = ZfScheme(
        K=K,
        active_messages=frozenset(serving),
        serving=serving,
        cancel_at=cancel,
        declared_pudof=Fraction(served, K),
        declared_backhaul=Fraction(load, 2 * K),
        name=name,
    )
    return MessageAssignment(K=K, transmit_sets=tsets), scheme


@_collector_paused
def wyner_backhaul_scheme(K: int, B: int) -> tuple[MessageAssignment, ZfScheme]:
    """Chain-network scheme with integer backhaul budget ``B``.

    The network splits into :func:`_chain` blocks ``(2B, 1, 2B-1, 0)``
    of ``4B`` users; the block's last transmitter stays silent, isolating
    the next block.  Per-user DoF is ``(4B-1)/4B`` with backhaul exactly
    ``B``.

    Raises:
        InvalidParameterError: ``K`` or ``B`` not an integer of at least
            1, or ``4B`` not dividing ``K``.
    """
    B = _check_int("B", B, 1)
    F = 4 * B
    K = _check_int("K", K, 1)
    if K % F != 0:
        raise InvalidParameterError(f"K must be a positive multiple of {F}")
    users = range(1, K + 1)
    blocks = [(2 * B, 1, 2 * B - 1, 0)] * (K // F)
    return _chain(K, [(blocks, users, users)], f"wyner_backhaul_B{B}")


@_collector_paused
def locally_connected_scheme(K: int, L: int, M: int) -> tuple[MessageAssignment, ZfScheme]:
    """Block scheme for locally connected chains with cooperation order ``M``.

    The network splits into :func:`_chain` blocks ``(M, L, M, floor(L/2))``
    of ``2M+L`` users; the unused leading and trailing transmitters of a
    block stay silent, isolating consecutive blocks.  Per-user DoF is
    ``2M/(2M+L)`` with backhaul exactly ``M(M+1)/(2M+L)``.

    Raises:
        InvalidParameterError: non-integer or nonpositive parameters, or
            ``(2M+L)`` not dividing ``K``.
    """
    L = _check_int("L", L, 1)
    M = _check_int("M", M, 1)
    F = 2 * M + L
    K = _check_int("K", K, 1)
    if K % F != 0:
        raise InvalidParameterError(f"K must be a positive multiple of {F}")
    users = range(1, K + 1)
    blocks = [(M, L, M, L // 2)] * (K // F)
    return _chain(K, [(blocks, users, users)], f"locally_connected_L{L}_M{M}")


def table1_row(L: int) -> dict:
    """Best known block mixture for a locally connected chain, ``L in 2..6``.

    Mixes blocks of ``4+L`` users (cooperation order 2, block load 6)
    and ``6+L`` users (order 3, block load 12) so the overall backhaul
    is exactly 1; the block counts solve ``n2*(L-2) = n3*(6-L)`` in
    smallest whole numbers.

    Returns:
        dict with keys L, blocks_m2, blocks_m3, block_m2, block_m3,
        K_min, users_m2, users_m3, ratio (users ratio in lowest terms),
        pudof, backhaul.
    """
    L = _check_int("L", L)
    if L not in (2, 3, 4, 5, 6):
        raise InvalidParameterError("L must be one of 2..6")
    g = math.gcd(L - 2, 6 - L)
    n2, n3 = (6 - L) // g, (L - 2) // g
    F2, F3 = 4 + L, 6 + L
    users_m2, users_m3 = n2 * F2, n3 * F3
    K_min = users_m2 + users_m3
    g = math.gcd(users_m2, users_m3)
    ratio = (users_m2 // g, users_m3 // g)
    return {
        "L": L,
        "blocks_m2": n2,
        "blocks_m3": n3,
        "block_m2": F2,
        "block_m3": F3,
        "K_min": K_min,
        "users_m2": users_m2,
        "users_m3": users_m3,
        "ratio": ratio,
        "pudof": Fraction(4 * n2 + 6 * n3, K_min),
        "backhaul": Fraction(6 * n2 + 12 * n3, K_min),
    }


@_collector_paused
def table1_scheme(K: int, L: int) -> tuple[MessageAssignment, ZfScheme]:
    """Instantiate the best known unit-backhaul mixture at size ``K``.

    The row's order-2 blocks ``(2, L, 2, floor(L/2))`` come first, then
    its order-3 blocks ``(3, L, 3, floor(L/2))``, ``K / K_min`` times over.

    Raises:
        InvalidParameterError: ``L`` outside 2..6 or ``K`` not an integer
            multiple of the row's minimal tiling length.
    """
    row = table1_row(L)
    L = row["L"]
    K = _check_int("K", K, 1)
    if K % row["K_min"] != 0:
        raise InvalidParameterError(f"K must be a positive multiple of {row['K_min']} for L={L}")
    m = K // row["K_min"]
    s = L // 2
    blocks = [(2, L, 2, s)] * (m * row["blocks_m2"]) + [(3, L, 3, s)] * (m * row["blocks_m3"])
    users = range(1, K + 1)
    return _chain(K, [(blocks, users, users)], f"table1_L{L}")


def _row_blocks(N: int) -> list[tuple[int, int, int, int]]:
    """The grid row's blocks for a row of ``N`` users, ``12 | N``: order 2, then order 3."""
    return [(2, 1, 2, 0)] * (N // 12) + [(3, 1, 3, 0)] * (N // 12)


@_collector_paused
def two_dim_scheme(K: int) -> tuple[MessageAssignment, ZfScheme]:
    """Square-grid scheme: silence every third transmitter row.

    With transmitter rows ``0 mod 3`` silent, receiver rows ``1 mod 3``
    hear only their own transmitter row and receiver rows ``0 mod 3``
    hear only the row above, so each served row reduces to an isolated
    chain; receiver rows ``2 mod 3`` are dropped.  Running the 5/6-DoF
    chain mixture on each of the ``2N/3`` served rows yields overall
    per-user DoF exactly 5/9 at backhaul exactly 1.

    Raises:
        InvalidParameterError: ``K`` not a perfect square or ``sqrt(K)``
            not a multiple of 12.
    """
    K = _check_int("K", K, 1)
    N = math.isqrt(K)
    if N * N != K:
        raise InvalidParameterError("K must be a perfect square")
    if N % 12 != 0:
        raise InvalidParameterError("sqrt(K) must be a multiple of 12")
    blocks = _row_blocks(N)
    rows = []
    for rho in range(1, N + 1):
        if rho % 3 == 1:
            t_row = rho
        elif rho % 3 == 0:
            t_row = rho - 1
        else:
            continue
        rx = range((rho - 1) * N + 1, rho * N + 1)
        tx = range((t_row - 1) * N + 1, t_row * N + 1)
        rows.append((blocks, rx, tx))
    return _chain(K, rows, f"two_dim_N{N}")


def hexagonal_coset_scheme(lattice: HexLattice) -> tuple[MessageAssignment, ZfScheme]:
    """Hexagonal plan with no cooperation: only circle-coset users talk.

    No two circle nodes are adjacent, so every active receiver hears its
    own transmitter and nothing else — no cancellation is needed; each
    circle is a one-user :func:`_chain` block ``(1, 0, 0, 0)``.
    Per-user DoF and backhaul both equal ``|circles| / K`` (one third of
    the users on a full grid with side divisible by 3).
    """
    circles = sorted(i for i in lattice.coords if lattice.cosets[i] == "circle")
    rows = [([(1, 0, 0, 0)] * len(circles), circles, circles)]
    return _chain(len(lattice.coords), rows, "hexagonal_coset")


def _check_hex_coop_side(n: int | None) -> None:
    """Raise unless ``n``, a lattice side (None when not grid-built), is a multiple of 6."""
    if n is None or n % 6 != 0:
        raise InvalidParameterError("lattice must be grid-built with side n a multiple of 6")


def decompose_hexagonal_to_linear(lattice: HexLattice) -> tuple[frozenset[int], list[list[int]]]:
    """Silence a third of a hexagonal grid so the rest splits into chains.

    The circles and diamonds of every odd row are silenced.  Within a row
    the only missing edge is circle→diamond, squares have no upward edges,
    and a square's two downward edges reach the circle and diamond it sits
    above.  So row ``2j`` and the squares of row ``2j+1`` form one isolated
    path of ``4n/3`` nodes, a linear network of connectivity 2, read off in
    closed form: walk ``a`` along row ``2j`` and put the square
    ``(a, 2j+1)`` just before each diamond ``(a, 2j)``, where it joins that
    diamond to the circle at ``a-1``.  Sides must be multiples of 6, so
    every chain holds whole blocks of 8 users.

    Args:
        lattice: grid-built lattice with side ``n`` a multiple of 6.

    Returns:
        ``(deactivated, chains)`` with ``|deactivated| = K/3``, chains in
        row-pair order, each in path order from its lower-numbered end.

    Raises:
        InvalidParameterError: lattice not grid-built or ``6 ∤ n``.
    """
    n = lattice.n
    _check_hex_coop_side(n)
    at = lattice.index_of
    chains: list[list[int]] = []
    for b in range(0, n, 2):
        path: list[int] = []
        for a in range(n):
            if (a + b) % 3 == 2:
                path.append(at[a, b + 1])
            path.append(at[a, b])
        if path[0] > path[-1]:
            path.reverse()
        chains.append(path)
    return frozenset(lattice.coords).difference(*chains), chains


def hexagonal_cooperative_scheme(lattice: HexLattice) -> tuple[MessageAssignment, ZfScheme]:
    """Cooperative hexagonal plan: chains of 8-user blocks at order 3.

    The row-pair decomposition silences one third of the nodes and
    leaves ``n/2`` isolated chains of ``4n/3`` nodes; :func:`_chain`
    lays the connectivity-2, order-3 blocks ``(3, 2, 3, 1)`` of eight
    users along each chain, delivering 3/4 of the chain's messages at
    chain backhaul 3/2 — overall per-user DoF exactly 1/2 at backhaul
    exactly 1.

    Raises:
        InvalidParameterError: the lattice is not a grid with side ``n``
            a multiple of 6 (the chains then hold whole blocks of 8).
    """
    _, chains = decompose_hexagonal_to_linear(lattice)
    rows = [([(3, 2, 3, 1)] * (len(chain) // 8), chain, chain) for chain in chains]
    return _chain(len(lattice.coords), rows, "hexagonal_cooperative")


@_collector_paused
def scheme_to_json(scheme: ZfScheme, topology: NetworkTopology, assignment: MessageAssignment) -> str:
    """Serialize a scheme with its topology and transmit sets.

    Every document is whole, so it can be piped into verification or
    certification commands as it stands.  The whole document is encoded
    once: the topology enters as :meth:`NetworkTopology.to_dict` and the
    transmit sets as :meth:`MessageAssignment.to_dict` lists.  The
    ``"deactivated"`` list, the transmitters no active message uses, is
    derived here for readers of the document; :func:`scheme_from_json`
    does not read it.  Sizes that disagree raise
    :class:`InvalidParameterError`, so no document its reader refuses is written.
    """
    _check_sizes(scheme=scheme, topology=topology, assignment=assignment)
    used = frozenset().union(*(assignment.transmit_sets[i] for i in scheme.active_messages))
    obj: dict = {
        "K": scheme.K,
        "active": sorted(scheme.active_messages),
        "serving": {str(i): scheme.serving[i] for i in sorted(scheme.serving)},
        "cancel_at": {str(i): list(scheme.cancel_at[i]) for i in sorted(scheme.cancel_at)},
        "deactivated": [t for t in range(1, scheme.K + 1) if t not in used],
        "declared": {
            "pudof": str(scheme.declared_pudof),
            "backhaul": str(scheme.declared_backhaul),
        },
        "name": scheme.name,
        "topology": topology.to_dict(),
        "transmit_sets": assignment.to_dict()["transmit_sets"],
    }
    # The object is built here and holds no cycle, so the encoder's cycle check is skipped.
    return json.dumps(obj, check_circular=False)


@_collector_paused
def scheme_from_json(text: str) -> tuple[ZfScheme, NetworkTopology, MessageAssignment]:
    """Inverse of :func:`scheme_to_json`; the topology and transmit sets are required.

    The text is parsed once; the embedded topology is built from its
    parsed object (:func:`topology_from_dict`).  User indices are checked
    against ``K`` without building ``1..K``, and the embedded lists are
    counted against ``K`` first, so a document that claims a huge ``K``
    is rejected without memory or time proportional to ``K``.  The
    derived ``"deactivated"`` list and the network tag older documents
    carry are never read, like any key the reader does not know.

    Raises:
        InvalidParameterError: malformed JSON or shape, a missing
            ``topology`` or ``transmit_sets`` section, a ``K`` or user
            index that is not an ``int`` in ``1..K`` (a boolean or an
            integral float is not), ``serving``/``cancel_at`` keys other
            than the decimal forms ``str(i)`` of the active users (so
            ``"01"``, ``"+1"`` and ``" 1"`` are refused), a ``name`` that
            is not a string, declared fractions that are not strings, or
            an embedded topology of another ``K`` or of the wrong field
            types.
    """
    with _document_errors("scheme"):
        obj = json.loads(text)
        users = chain(
            obj["active"],
            obj["serving"].values(),
            *obj["cancel_at"].values(),
            *obj["transmit_sets"],
        )
        _check_users("scheme", obj["K"], users)
        # JSON keys are strings; only the canonical "4" names user 4, not "04" or " 4".
        keys = {str(i) for i in obj["active"]}
        if not set(obj["serving"]) == keys == set(obj["cancel_at"]):
            raise InvalidParameterError(
                "malformed scheme document (serving/cancel_at not keyed by active)"
            )
        _check_fields("scheme", obj, name=str, declared=dict)
        declared = obj.get("declared", {})
        _check_fields("scheme", declared, pudof=str, backhaul=str)
        scheme = ZfScheme(
            K=obj["K"],
            active_messages=frozenset(obj["active"]),
            serving={int(i): t for i, t in obj["serving"].items()},
            cancel_at={int(i): tuple(c) for i, c in obj["cancel_at"].items()},
            declared_pudof=Fraction(declared.get("pudof", "0")),
            declared_backhaul=Fraction(declared.get("backhaul", "0")),
            name=obj.get("name", ""),
        )
        topology = topology_from_dict(obj["topology"])
        if topology.K != scheme.K:
            raise InvalidParameterError(
                f"malformed scheme document (embedded topology has K={topology.K}, document K={scheme.K})"
            )
        assignment = MessageAssignment(
            K=scheme.K,
            transmit_sets={i + 1: frozenset(row) for i, row in enumerate(obj["transmit_sets"])},
        )
    return scheme, topology, assignment
