"""Exact search for optimal interference-avoidance at desk scale.

Three exhaustive-but-pruned searches serve as ground truth on small
instances: the best schedule when every message sits at one flexibly
chosen transmitter, the best activation count when transmit sets may be
designed under a backhaul budget, and the best activation count when
the transmit sets are already fixed.  All values are exact optima;
instances larger than the node limits are refused rather than
approximated.  Certifying that a given scheme attains its active set
needs no search: one deliverability test per active message decides it.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
import itertools
import math
import time

from .assignment import MessageAssignment
from .errors import InvalidParameterError, ResourceLimitError
from .schemes import ZfScheme, validate_scheme
from .topology import NetworkTopology


@dataclass
class AvoidanceSchedule:
    """A set of simultaneously interference-free (receiver, transmitter) pairs.

    Attributes:
        pairs: scheduled ``(receiver, transmitter)`` pairs; receivers
            are pairwise distinct, transmitters are pairwise distinct,
            and no scheduled receiver hears any other scheduled
            transmitter.
        value: number of pairs.
        nodes_explored: search nodes visited to prove optimality.
    """

    pairs: frozenset[tuple[int, int]]
    value: int
    nodes_explored: int = 0


@dataclass
class CooperativeWitness:
    """Optimal active set plus minimal transmit sets realizing it."""

    active: frozenset[int]
    assignment: MessageAssignment
    nodes_explored: int = 0


@dataclass
class ActivationWitness:
    """Optimal active set for a fixed assignment."""

    active: frozenset[int]
    nodes_explored: int = 0


def validate_schedule(topology: NetworkTopology, schedule: AvoidanceSchedule) -> list[str]:
    """Check one-shot avoidance semantics; returns violations.

    A pair naming a receiver or transmitter outside ``1..K`` is a
    violation, and its audibility is not checked.
    """
    problems: list[str] = []
    rxs = [r for r, _ in schedule.pairs]
    txs = [t for _, t in schedule.pairs]
    if len(set(rxs)) != len(rxs):
        problems.append("receivers are not pairwise distinct")
    if len(set(txs)) != len(txs):
        problems.append("transmitters are not pairwise distinct")
    # Audibility is only defined between users of the topology.
    K = topology.K
    inside = []
    for r, t in sorted(schedule.pairs):
        if 1 <= r <= K and 1 <= t <= K:
            inside.append((r, t))
        else:
            problems.append(f"pair ({r}, {t}) names a user outside 1..{K}")
    for r, t in inside:
        if t not in topology.hears[r]:
            problems.append(f"receiver {r} does not hear its transmitter {t}")
    for r, t in inside:
        for r2, t2 in inside:
            if t2 != t and t2 in topology.hears[r]:
                problems.append(f"receiver {r} hears interfering transmitter {t2}")
    if schedule.value != len(schedule.pairs):
        problems.append("value does not equal the number of pairs")
    return problems


class _Search:
    """The limits and node count of one exponential search; each node calls :meth:`tick`.

    Raises:
        InvalidParameterError: ``node_limit`` is below 1, or
            ``time_limit`` is set but not finite and positive.
        ResourceLimitError: ``K`` exceeds ``node_limit``.
    """

    def __init__(self, K: int, node_limit: int, time_limit: float | None):
        if node_limit < 1:
            raise InvalidParameterError(f"node_limit must be >= 1, got {node_limit}")
        if time_limit is not None and not 0 < time_limit < math.inf:
            raise InvalidParameterError(f"time_limit must be finite and > 0, got {time_limit}")
        if K > node_limit:
            raise ResourceLimitError(f"K={K} exceeds node_limit={node_limit}")
        self.expires = None if time_limit is None else time.monotonic() + time_limit
        self.nodes = 0

    def tick(self) -> None:
        """Count a node; read the clock on the first tick and on every 1024th after it."""
        self.nodes += 1
        if self.expires is not None and self.nodes % 1024 == 1 and time.monotonic() > self.expires:
            raise ResourceLimitError("search time limit exceeded")


def _color_order(compat: list[int], cand: int) -> list[tuple[int, int]]:
    """Greedy coloring of ``cand``: a clique inside it has at most max-color members."""
    order = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            avail &= ~compat[v]
            rest &= ~(1 << v)
            order.append((v, color))
    return order


def _expand(
    search: _Search, compat: list[int], cand: int, cur: int, cur_set: int, best: int, best_set: int
) -> tuple[int, int]:
    """Branch and bound below the clique ``cur_set`` (``cur`` members) over ``cand``.

    Returns the incumbent ``(best, best_set)``, improved where the branch
    finds a larger clique.
    """
    search.tick()
    for v, c in reversed(_color_order(compat, cand)):
        if cur + c <= best:
            break
        if cur + 1 > best:
            best = cur + 1
            best_set = cur_set | (1 << v)
        newcand = cand & compat[v]
        if newcand:
            best, best_set = _expand(
                search, compat, newcand, cur + 1, cur_set | (1 << v), best, best_set
            )
        cand &= ~(1 << v)
    return best, best_set


def max_avoidance_m1(
    topology: NetworkTopology, node_limit: int = 36, time_limit: float | None = None
) -> tuple[int, AvoidanceSchedule]:
    """Best schedule with each message at one flexibly chosen transmitter.

    Every candidate service is a pair ``(r, t)`` with ``t`` heard at
    ``r``; two services are compatible iff they share no receiver or
    transmitter and neither receiver hears the other's transmitter.  A
    valid schedule is a clique of the compatibility graph, found by
    branch and bound with a greedy-coloring admissible bound, as in
    Tomita et al.'s MCQ (J. Global Optim. 2007) and MCS (2010): the
    services are renumbered by non-increasing degree (ties by pair
    index) before the bitsets are built, so the coloring and the
    branching both follow that order, and the incumbent is seeded with
    the greedy clique that repeatedly takes the lowest-numbered
    compatible service.  The coloring bound is admissible in any
    vertex order, so the value stays exact.  The graph is built from
    per-receiver and per-transmitter service masks: a service's clash
    mask is the union of the transmitter masks over what its receiver
    hears and the receiver masks over who hears its transmitter, so
    each service costs one OR per hearing edge at its receiver and
    transmitter instead of a test against every other service.

    Raises:
        InvalidParameterError: ``node_limit`` is below 1, or
            ``time_limit`` is not finite and positive.
        ResourceLimitError: ``K`` exceeds ``node_limit``, or the time
            limit is hit.
    """
    search = _Search(topology.K, node_limit, time_limit)
    hears = topology.hears
    pairs = [(r, t) for r in range(1, topology.K + 1) for t in sorted(hears[r])]
    n = len(pairs)

    def clashes(pairs: list[tuple[int, int]]) -> list[int]:
        # Service y clashes with x = (r, t) iff y's transmitter is heard at
        # r or y's receiver hears t; a shared receiver or transmitter is a
        # special case, and x clashes with itself.
        at_rx = dict.fromkeys(range(1, topology.K + 1), 0)
        at_tx = dict(at_rx)
        for x, (r, t) in enumerate(pairs):
            at_rx[r] |= 1 << x
            at_tx[t] |= 1 << x
        out = []
        for r, t in pairs:
            mask = 0
            for u in hears[r]:
                mask |= at_tx[u]
            for u in topology.hearers(t):
                mask |= at_rx[u]
            out.append(mask)
        return out

    # Fewest clashes is highest degree; the stable sort keeps pair-index
    # order among equal degrees.
    clash = clashes(pairs)
    pairs = [pairs[x] for x in sorted(range(n), key=lambda x: clash[x].bit_count())]
    everything = (1 << n) - 1
    compat = [everything & ~mask for mask in clashes(pairs)]

    best = 0
    best_set = 0
    cand = everything
    while cand:
        v = (cand & -cand).bit_length() - 1
        best += 1
        best_set |= 1 << v
        cand &= compat[v]

    if n:
        best, best_set = _expand(search, compat, everything, 0, 0, best, best_set)
    chosen = frozenset(pairs[i] for i in range(n) if best_set >> i & 1)
    return best, AvoidanceSchedule(pairs=chosen, value=best, nodes_explored=search.nodes)


def _augment(
    rows: Sequence[Collection[int]], match_col: dict[int, int], r: int, seen: set[int]
) -> bool:
    """Kuhn's augmenting step: match row ``r``, moving matched rows along the way.

    Row ``r`` tries its columns in order, skipping those in ``seen``; a
    column already in ``match_col`` is taken when its row can move on.
    """
    for c in rows[r]:
        if c in seen:
            continue
        seen.add(c)
        if c not in match_col or _augment(rows, match_col, match_col[c], seen):
            match_col[c] = r
            return True
    return False


def _matching(rows: Sequence[Collection[int]]) -> dict[int, int]:
    """A maximum bipartite matching of row index to a member column, as ``{column: row}``.

    Kuhn's augmenting paths: each row in turn tries its columns, evicting
    a column's current row when that row can move to another column.
    The step is a module function, not a closure, so a call leaves no
    reference cycle for the garbage collector.
    """
    match_col: dict[int, int] = {}
    for r in range(len(rows)):
        _augment(rows, match_col, r, set())
    return match_col


def _mask(members: Iterable[int]) -> int:
    """The bitmask with bit ``t`` set for each member ``t``."""
    return sum(1 << t for t in members)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _deliverable(desired: int, crows: Sequence[int]) -> bool:
    """Generic zero-forcing deliverability of a message from its support rows.

    ``desired`` is the transmit set heard at the message's own receiver
    and ``crows`` the nonzero parts of it heard at the receivers whose
    interference must be nulled, all as transmitter bitmasks.  With
    generic channel gains the interference can be nulled while keeping
    a nonzero coefficient at the own receiver iff appending the desired
    row raises the maximum matching of the cancellation rows by one
    (generic rank is term rank), that is, by Berge's lemma, iff the
    desired row has an augmenting path against a maximum matching of
    them.  Kuhn's search in :func:`_matching` takes the rows in order,
    so with the desired row last it matches the cancellation rows
    maximally and then tries that single path; the desired row ends
    matched iff the path exists.  An empty desired row is never matched,
    and with no cancellation rows a nonempty one always is.
    """
    return len(crows) in _support_matching(desired, crows).values()


def _support_matching(desired: int, crows: Sequence[int]) -> dict[int, int]:
    """The matching :func:`_deliverable` decides by, as ``{transmitter: row}``.

    The cancellation rows keep their indices and the desired row is row
    ``len(crows)``.  Beam design reads a beam's support off it too.
    """
    return _matching([*map(_bits, crows), _bits(desired)])


def _delivers(i: int, sends: dict[int, int], heard: dict[int, int], rivals: Iterable[int]) -> bool:
    """:func:`_deliverable` for message ``i``, with one cancellation row per rival hearing ``T_i``.

    ``sends`` (messages) and ``heard`` (receivers) hold transmitter bitmasks.
    """
    T = sends[i]
    crows = [row for k in rivals if k != i and (row := T & heard[k])]
    return _deliverable(T & heard[i], crows)


def max_avoidance_cooperative(
    topology: NetworkTopology,
    B: Fraction | int,
    node_limit: int = 12,
    time_limit: float | None = None,
) -> tuple[int, CooperativeWitness]:
    """Best activation count over all assignments with backhaul at most ``B``.

    Active sets are tried largest-first, none larger than the budget
    ``B*K`` since every active message costs at least one transmitter.
    Given an active set, the cheapest workable transmit set of each
    message is independent of the others', so the set is feasible iff
    those minima fit the budget.  The minima are found level-wise for
    all open messages together: at level ``l`` every open message tries
    the size-``l`` subsets of its ball in lex order, and its first
    deliverable one is its cheapest.  A message still open after level
    ``l`` provably costs at least ``l + 1``, so the set is rejected as
    soon as the proven costs sum past the budget, or when a message is
    still open after the last level, the size of the pool the set hears.

    The ball of message ``i`` at level ``l`` holds the antennas within
    ``l - 1`` hops of ``heard[i]``; one hop adds ``heard[k]`` for each
    active ``k`` that hears the ball.  Lemma: a minimum-size deliverable
    set ``T`` is connected in the bipartite graph between ``T`` and its
    rows (receiver ``i`` and the active receivers that hear ``T``).  Were
    it not, the row system would be block-diagonal; generic rank is term
    rank (Edmonds 1967) and adds over the blocks, so the component that
    holds row ``i`` would be deliverable on its own and smaller.  Each
    member of ``T`` is therefore within ``l - 1`` hops, and as the ball
    is a sublist of the pool, each message still gets the lex-first
    minimum-size transmit set of the whole pool.

    A level's outcome depends only on ``(i, l, N)``, where ``N`` lists
    the other active receivers that hear the ball; ``N`` also fixes the
    ball, hop by hop.  The first deliverable set, or None, is memoised
    under that key for the call, and so are the verdicts of
    :func:`_deliverable`, keyed by the rows.  Sets are bitmasks, and a
    subset that misses the own receiver is rejected by one ``&``.  Each
    active set tried and each subset tried is a node and ticks the time
    limit, so a run of memo hits still reads the clock.

    Raises:
        InvalidParameterError: ``B`` is negative or not finite,
            ``node_limit`` is below 1, or ``time_limit`` is not finite
            and positive.
        ResourceLimitError: ``K`` exceeds ``node_limit`` or time is up.
    """
    if B < 0:
        raise InvalidParameterError(f"B must be >= 0, got {B}")
    if not B < math.inf:
        raise InvalidParameterError(f"B must be finite, got {B}")
    K = topology.K
    search = _Search(K, node_limit, time_limit)
    budget = int(Fraction(B) * K)
    heard = {i: _mask(topology.hears[i]) for i in range(1, K + 1)}
    verdicts: dict[tuple[int, tuple[int, ...]], bool] = {}
    cheapest: dict[tuple[int, int, tuple[int, ...]], int | None] = {}

    def first(i: int, level: int, near: tuple[int, ...], ball: int) -> int | None:
        """The lex-first deliverable size-``level`` subset of ``ball`` for message ``i``."""
        own = heard[i]
        rows = [heard[k] for k in near]
        for combo in itertools.combinations([1 << t for t in _bits(ball)], level):
            search.tick()
            T = sum(combo)
            desired = T & own
            if not desired:
                continue
            key = (desired, tuple(row for h in rows if (row := T & h)))
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = _deliverable(*key)
            if ok:
                return T
        return None

    def fit(A: tuple[int, ...]) -> dict[int, frozenset[int]] | None:
        """Each message's cheapest transmit set, or None if they overrun the budget."""
        search.tick()
        pool = 0
        for k in A:
            pool |= heard[k]
        others = [(k, heard[k]) for k in A]
        balls = {i: heard[i] for i in A}
        sets: dict[int, frozenset[int]] = {}
        waiting = A
        proven = len(A)  # sum of the proven per-message costs
        for level in range(1, pool.bit_count() + 1):
            still = []
            for i in waiting:
                near = tuple(k for k, h in others if k != i and h & balls[i])
                key = (i, level, near)
                if key not in cheapest:
                    cheapest[key] = first(i, level, near, balls[i])
                T = cheapest[key]
                if T is not None:
                    sets[i] = frozenset(_bits(T))
                    continue
                proven += 1
                if proven > budget:
                    return None
                still.append(i)
                for k in near:
                    balls[i] |= heard[k]
            if not still:
                return sets
            waiting = still
        return None

    empty = {i: frozenset() for i in range(1, K + 1)}
    for size in range(min(K, budget), 0, -1):
        for A in itertools.combinations(range(1, K + 1), size):
            sets = fit(A)
            if sets is not None:
                witness = MessageAssignment(K=K, transmit_sets={**empty, **sets})
                return size, CooperativeWitness(
                    active=frozenset(A), assignment=witness, nodes_explored=search.nodes
                )
    witness = MessageAssignment(K=K, transmit_sets=dict(empty))
    return 0, CooperativeWitness(active=frozenset(), assignment=witness, nodes_explored=search.nodes)


def max_activation_for_assignment(
    topology: NetworkTopology,
    assignment: MessageAssignment,
    node_limit: int = 24,
    time_limit: float | None = None,
) -> tuple[int, ActivationWitness]:
    """Best activation count when the transmit sets are already fixed.

    Depth-first include/exclude over messages: including a receiver
    re-checks deliverability of the newcomer and of every chosen
    receiver whose transmit set it hears (adding receivers only ever
    shrinks deliverability, so pruning is sound); branches that cannot
    beat the incumbent are cut by remaining count.

    Raises:
        InvalidParameterError: topology and assignment sizes disagree,
            ``node_limit`` is below 1, or ``time_limit`` is not finite
            and positive.
        ResourceLimitError: ``K`` exceeds ``node_limit`` or time is up.
    """
    if topology.K != assignment.K:
        raise InvalidParameterError("topology and assignment sizes disagree")
    K = topology.K
    search = _Search(K, node_limit, time_limit)
    heard = {i: _mask(topology.hears[i]) for i in range(1, K + 1)}
    sends = {i: _mask(T) for i, T in assignment.transmit_sets.items()}
    order = [i for i in range(1, K + 1) if sends[i] & heard[i]]
    best = 0
    best_set: frozenset[int] = frozenset()
    # Each branch explores its include child before its exclude child.
    stack = [(0, frozenset())]
    while stack:
        pos, active = stack.pop()
        search.tick()
        if len(active) > best:
            best = len(active)
            best_set = active
        if pos == len(order) or len(active) + len(order) - pos <= best:
            continue
        i = order[pos]
        grown = active | {i}
        stack.append((pos + 1, active))
        if _delivers(i, sends, heard, grown) and all(
            _delivers(k, sends, heard, grown) for k in active if sends[k] & heard[i]
        ):
            stack.append((pos + 1, grown))
    return best, ActivationWitness(active=best_set, nodes_explored=search.nodes)


def certify_lower_bound(
    topology: NetworkTopology, scheme: ZfScheme, assignment: MessageAssignment
) -> bool:
    """True iff the scheme is structurally valid and every active message is deliverable.

    With generic channel gains the scheme attains its active set iff each
    active message passes :func:`_deliverable` against the active
    receivers in ``hearers(t)`` for ``t in T_i``; every exact optimum is
    then at least ``|active|``.  No search runs, and the cost is linear
    in ``sum |T_i| * degree`` at any ``K``.
    """
    if validate_scheme(topology, assignment, scheme):
        return False
    active, tsets = scheme.active_messages, assignment.transmit_sets
    sends = {i: _mask(tsets[i]) for i in active}
    heard = {k: _mask(topology.hears[k]) for k in active}
    return all(
        _delivers(i, sends, heard, active & frozenset().union(*map(topology.hearers, tsets[i])))
        for i in active
    )
