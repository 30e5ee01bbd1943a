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

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
import itertools
import math
import time

from ._rank import _bits, _deliverable, _mask
from .assignment import MessageAssignment
from .errors import InvalidParameterError, ResourceLimitError
from .schemes import ZfScheme, validate_scheme
from .topology import NetworkTopology, _is_wyner_chain


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
    """An optimal active set and the transmit sets that serve it."""

    active: frozenset[int]
    assignment: MessageAssignment
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
    sent_by: dict[int, list[int]] = {}
    for r, t in inside:
        sent_by.setdefault(t, []).append(r)
        if t not in topology.hears[r]:
            problems.append(f"receiver {r} does not hear its transmitter {t}")
    for r, t in inside:
        heard = sorted((r2, t2) for t2 in topology.hears[r] if t2 != t for r2 in sent_by.get(t2, ()))
        problems.extend(f"receiver {r} hears interfering transmitter {t2}" for _, t2 in heard)
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


def _expand(
    search: _Search,
    compat: list[int],
    clash: list[int],
    cand: int,
    cur: int,
    cur_set: int,
    best: int,
    best_set: int,
) -> tuple[int, int]:
    """Branch and bound below the clique ``cur_set`` (``cur`` members) over ``cand``.

    A greedy coloring splits ``cand`` into classes, each a bitset built
    from its lowest member up: ``clash[v]`` holds the services that
    clash with ``v``, ``v`` itself excluded, so a class keeps only the
    services that clash with every member placed so far.  A clique has
    at most one member per class, so a branch on class ``c`` or below
    reaches at most ``cur + c``; only the classes above ``best - cur``
    are kept, and each is branched on from its highest bit down, the
    last class first.  Returns the incumbent ``(best, best_set)``,
    improved where the branch finds a larger clique.
    """
    search.tick()
    classes = []
    color = 0
    rest = cand
    while rest:
        avail = rest
        members = 0
        while avail:
            low = avail & -avail
            members |= low
            avail &= clash[low.bit_length() - 1]
        rest ^= members
        color += 1
        if cur + color > best:
            classes.append((color, members))
    for c, members in reversed(classes):
        while members:
            if cur + c <= best:
                return best, best_set
            v = members.bit_length() - 1
            members ^= 1 << v
            if cur + 1 > best:
                best = cur + 1
                best_set = cur_set | (1 << v)
            newcand = cand & compat[v]
            if newcand:
                best, best_set = _expand(
                    search, compat, clash, newcand, cur + 1, cur_set | (1 << v), best, best_set
                )
            cand ^= 1 << v
    return best, best_set


def _clash_masks(topology: NetworkTopology, pairs: list[tuple[int, int]]) -> list[int]:
    """Each service's clash mask, a bitset over the indices of ``pairs``.

    Two services clash when they share a receiver or a transmitter, or
    when either receiver hears the other's transmitter; a service
    clashes with itself.  Equivalently ``y`` clashes with ``x = (r, t)``
    iff ``y``'s transmitter is heard at ``r`` or ``y``'s receiver hears
    ``t``, so ``x``'s mask is ``heard_at[r] | hit[t]``: the services
    whose transmitter ``r`` hears, and those whose receiver hears ``t``.
    Each union is built once per node, so with ``n`` services, one per
    hearing edge, a call costs about ``3n`` ORs.
    """
    users = range(1, topology.K + 1)
    at_rx = dict.fromkeys(users, 0)
    at_tx = dict(at_rx)
    for x, (r, t) in enumerate(pairs):
        at_rx[r] |= 1 << x
        at_tx[t] |= 1 << x
    heard_at = {}
    hit = {}
    for u in users:
        mask = 0
        for t in topology.hears[u]:
            mask |= at_tx[t]
        heard_at[u] = mask
        mask = 0
        for r in topology.hearers(u):
            mask |= at_rx[r]
        hit[u] = mask
    return [heard_at[r] | hit[t] for r, t in pairs]


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
    two per-node unions (:func:`_clash_masks`): the services whose
    transmitter each receiver hears, and the services whose receiver
    hears each transmitter.  A service's clash mask is the OR of its
    receiver's union and its transmitter's, so a build of ``n``
    services costs about ``3n`` ORs instead of a test against every
    other service.

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

    # Fewest clashes is highest degree; the stable sort keeps pair-index
    # order among equal degrees.
    degree = [mask.bit_count() for mask in _clash_masks(topology, pairs)]
    pairs = [pairs[x] for x in sorted(range(n), key=degree.__getitem__)]
    everything = (1 << n) - 1
    masks = _clash_masks(topology, pairs)
    compat = [everything & ~mask for mask in masks]
    # A service clashes with itself; the coloring wants the others.
    clash = [mask ^ 1 << v for v, mask in enumerate(masks)]

    best = 0
    best_set = 0
    cand = everything
    while cand:
        v = (cand & -cand).bit_length() - 1
        best += 1
        best_set |= 1 << v
        cand &= compat[v]

    if n:
        best, best_set = _expand(search, compat, clash, everything, 0, 0, best, best_set)
    chosen = frozenset(pairs[i] for i in range(n) if best_set >> i & 1)
    return best, AvoidanceSchedule(pairs=chosen, value=best, nodes_explored=search.nodes)


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
    those minima fit the budget.  The witness is the lex-first feasible
    active set of the largest size, each message on its lex-first
    minimum-size transmit set.

    Connectivity lemma: a minimum-size deliverable set ``T`` of message
    ``i`` is connected in the bipartite graph between ``T`` and its rows
    (receiver ``i`` and the active receivers that hear ``T``).  Were it
    not, the row system would be block-diagonal; generic rank is term
    rank (Edmonds 1967) and adds over the blocks, so the component that
    holds row ``i`` would be deliverable on its own and smaller.

    On Wyner's network, where every receiver ``i`` hears exactly
    ``{i-1, i}`` within ``1..K`` (``build_wyner``, and
    ``build_locally_connected`` at ``L = 1``), the optimum is computed
    from run costs by :func:`_wyner_runs`; every other topology goes to
    the level-wise search :func:`_levelwise_cooperative`.  Both give the
    same value, active set and transmit sets.

    Span lemma (Wyner): for active ``i``, let ``j`` be the first
    inactive receiver right of ``i`` (``K+1`` if none) and ``j'`` the
    last inactive receiver left of it.  Message ``i`` costs exactly
    ``min(j - i, i - j')``, or ``j - i`` when there is no ``j'``; its
    lex-first minimum set is the left span ``{j'..i-1}`` when that is
    no longer than the right span ``{i..j-1}``, else the right span.
    Proof: antenna ``t`` is heard by receivers ``t`` and ``t+1`` only,
    so a connected ``T`` is an interval ``{a..b}`` whose inner
    receivers ``a+1..b`` are rows, hence active, and ``i`` lies in
    ``a..b+1`` as its desired row is nonempty.  The support is
    bidiagonal: row ``k`` meets columns ``k-1`` and ``k``.  If receivers
    ``a`` and ``b+1`` are both rows, dropping row ``i`` leaves rows
    ``a..i-1``, matched to columns ``a..i-1``, and rows ``i+1..b+1``,
    matched to columns ``i..b``: the cancellation rows alone reach term
    rank ``|T|``, so the desired row cannot raise it and ``T`` fails.
    So receiver ``a`` is inactive, hence ``a = j'`` and ``T`` contains
    the left span, or receiver ``b+1`` is inactive or ``K+1``, hence
    ``b+1 = j`` and ``T`` contains the right span.  Each span is
    deliverable: the cancellation rows match row ``k`` to column ``k``
    in the right span and to ``k-1`` in the left one, which leaves the
    desired row's column ``i`` or ``i-1`` free.  So a minimum set is one
    of the two spans, and the left one sorts first on a tie.

    Run costs: the active receivers fall into runs between inactive
    ones, and ``K+1`` closes the last run.  A run of ``r`` with an
    inactive receiver on its left costs ``sum min(p, r+1-p)``, that is
    ``(r+1)**2 // 4``; the first run, with none on its left, costs
    ``r(r+1)/2``.  Their marginal costs, ``ceil(k/2)`` and ``k`` for the
    ``k``-th member, are nondecreasing.

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
    if _is_wyner_chain(topology.hears[i] for i in range(1, K + 1)):
        A, sets = _wyner_runs(search, K, budget)
    else:
        A, sets = _levelwise_cooperative(search, topology, budget)
    empty = {i: frozenset() for i in range(1, K + 1)}
    witness = MessageAssignment(K=K, transmit_sets={**empty, **sets})
    return len(A), CooperativeWitness(
        active=frozenset(A), assignment=witness, nodes_explored=search.nodes
    )


def _completion(first: bool, t: int, add: int, fresh: int) -> int:
    """The least cost of ``add`` more active receivers after an open run of ``t``.

    ``first`` says whether the open run is the first one, and ``fresh``
    inactive receivers are still to come, each opening a closed run.
    The candidate marginal costs are the open run's from its
    ``(t+1)``-th member on and ``1, 1, 2, 2, ...`` for each fresh run;
    all are nondecreasing, so the least cost takes the ``add`` smallest.
    With ``c`` 1 for the first run and 2 otherwise, ``max(2*fresh*v,
    (2*fresh+c)*v - t)`` candidates are at most ``v``.  The level of the
    largest one taken, the least ``v`` where that reaches ``add``, is
    ``ceil((add+t)/(2*fresh+c))``, or ``ceil(add/(2*fresh))`` when
    ``fresh > 0`` and that is smaller; every candidate below the level
    is taken.
    """
    if not add:
        return 0
    c = 1 if first else 2
    level = -(-(add + t) // (2 * fresh + c))
    if fresh:
        level = min(level, -(-add // (2 * fresh)))
    v = level - 1
    extra = max(0, c * v - t)  # the open run's candidates at most v
    total = fresh * v * (v + 1) + _run_cost(first, t + extra) - _run_cost(first, t)
    return total + (add - 2 * fresh * v - extra) * level


def _run_cost(first: bool, r: int) -> int:
    """The cost of a run of ``r``: the first run, or one with an inactive receiver on its left."""
    return r * (r + 1) // 2 if first else (r + 1) ** 2 // 4


def _wyner_runs(
    search: _Search, K: int, budget: int
) -> tuple[tuple[int, ...], dict[int, frozenset[int]]]:
    """The Wyner optimum from run costs: its active set and transmit sets.

    The cheapest active set of ``size`` splits ``size`` active receivers
    into the first run and one closed run per inactive receiver; as the
    marginal costs are nondecreasing, that is :func:`_completion` from
    an empty first run.  The value is the largest size whose cheapest
    cost fits the budget.  One pass from receiver 1 to ``K`` then makes
    each receiver active iff a completion within the budget remains,
    which yields the lex-first active set of that size.  Each message
    takes the span the span lemma names.  A node is a size tried or a
    receiver decided, so the time limit still applies.
    """
    for size in range(min(K, budget), 0, -1):
        search.tick()
        if _completion(True, 0, size, K - size) <= budget:
            break
    else:
        return (), {}
    active: list[int] = []
    first, run, closed = True, 0, 0  # the open run, and the cost of the runs before it
    for p in range(1, K + 1):
        search.tick()
        add = size - len(active) - 1
        if add >= 0 and (
            closed + _run_cost(first, run + 1) + _completion(first, run + 1, add, K - p - add)
            <= budget
        ):
            active.append(p)
            run += 1
        else:
            closed += _run_cost(first, run)
            first, run = False, 0
    chosen = set(active)
    gaps = [0, *(p for p in range(1, K + 1) if p not in chosen), K + 1]
    sets = {}
    for left, right in zip(gaps, gaps[1:]):
        for i in range(left + 1, right):
            span = range(left, i) if left and i - left <= right - i else range(i, right)
            sets[i] = frozenset(span)
    return tuple(active), sets


def _levelwise_cooperative(
    search: _Search, topology: NetworkTopology, budget: int
) -> tuple[tuple[int, ...], dict[int, frozenset[int]]]:
    """The optimum by search: its active set and transmit sets.

    Level 1, the single antennas, has a closed form.  Lemma: antenna
    ``t`` alone serves message ``i`` of the active set ``A`` iff ``t``
    is private to ``i``, that is, ``t`` is in ``heard[i]`` and no other
    receiver of ``A`` hears it.  The desired row ``{t} & heard[i]`` is
    empty unless ``i`` hears ``t``.  Each other receiver that hears
    ``t`` adds the cancellation row ``{t}``, the same as the desired
    row, so column ``t`` is already matched and the term rank does not
    rise; with no such receiver there is no cancellation row and the
    desired row is matched.  With ``twice`` the antennas heard by at
    least two receivers of ``A``, message ``i``'s lex-first singleton is
    the lowest bit of ``heard[i] & ~twice``, and the cost proven after
    level 1 is exactly ``price(A) = |A| + shared(A)``, where
    ``shared(A)`` counts the messages of ``A`` without a private
    antenna.  A receiver joining ``A`` only grows ``twice``, so
    ``shared`` never falls: the price of a prefix bounds the price of
    every active set that extends it.

    The active sets of one size are walked depth-first over receivers in
    lex order.  A prefix ``P`` is dropped once ``size + shared(P)``
    passes the budget, or once too few receivers remain to fill it.
    Only sets whose price overruns the budget are dropped, so the first
    feasible set of each size, and with it the witness, is the lex-first
    one, as with a plain enumeration of the combinations.

    From level 2 on, the minima are found level-wise for all open
    messages together: at level ``l`` every open message tries the
    size-``l`` subsets of its ball in lex order, and its first
    deliverable one is its cheapest.  A message still open after level
    ``l`` provably costs at least ``l + 1``, so the set is rejected as
    soon as the proven costs sum past the budget, or when a message is
    still open after the last level, the size of the pool the set hears.

    The ball of message ``i`` at level ``l`` holds the antennas within
    ``l - 1`` hops of ``heard[i]``; one hop adds ``heard[k]`` for each
    active ``k`` that hears the ball.  By the connectivity lemma each
    member of a minimum-size set is within ``l - 1`` hops, and as the
    ball is a sublist of the pool, each message still gets the lex-first
    minimum-size transmit set of the whole pool.

    A level's outcome depends only on ``(i, l, N)``, where ``N`` lists
    the other active receivers that hear the ball; ``N`` also fixes the
    ball, hop by hop.  The first deliverable set, or None, is memoised
    under that key for the call, and so are the verdicts of
    :func:`_deliverable`, keyed by the rows.  Sets are bitmasks, and a
    subset that misses the own receiver is rejected by one ``&``.  A
    node is a prefix extension of the walk, whole active sets included,
    or a subset tried from level 2 on; each ticks the time limit, so a
    run of memo hits still reads the clock.
    """
    K = topology.K
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

    def fit(A: tuple[int, ...], pool: int, twice: int) -> dict[int, frozenset[int]] | None:
        """Each message's cheapest transmit set, or None if they overrun the budget.

        ``pool`` holds the antennas ``A`` hears and ``twice`` those heard
        by at least two of its receivers; ``price(A)`` fits the budget.
        """
        others = [(k, heard[k]) for k in A]
        sets: dict[int, frozenset[int]] = {}
        balls: dict[int, int] = {}
        for i in A:
            private = heard[i] & ~twice
            if private:
                sets[i] = frozenset({(private & -private).bit_length() - 1})
                continue
            # The 1-hop ball, through every receiver of A that hears heard[i].
            balls[i] = 0
            for _, h in others:
                if h & heard[i]:
                    balls[i] |= h
        waiting = list(balls)
        proven = len(A) + len(waiting)  # sum of the proven per-message costs
        for level in range(2, pool.bit_count() + 1):
            if not waiting:
                break
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
            waiting = still
        return None if waiting else sets

    def walk(size: int) -> tuple[tuple[int, ...], dict[int, frozenset[int]]] | None:
        """The lex-first active set of ``size`` that fits, with its transmit sets.

        Each frame holds a prefix, the antennas heard by at least one
        and at least two of its receivers, ``shared(prefix)``, and the
        receivers left to extend it by.  The walk keeps its own stack,
        so a call leaves no reference cycle behind.
        """
        frames = [((), 0, 0, 0, iter(range(1, K - size + 2)))]
        while frames:
            prefix, once, twice, shared, ks = frames[-1]
            k = next(ks, None)
            if k is None:
                frames.pop()
                continue
            search.tick()
            h = heard[k]
            # k has a private antenna iff it hears one the prefix does not;
            # a member loses its last private antennas only to the new ones.
            new = once & h & ~twice
            grown = twice | new
            cost = shared + (not h & ~once)
            if new:
                cost += sum(1 for i in prefix if heard[i] & new and not heard[i] & ~grown)
            if size + cost > budget:
                continue
            P = (*prefix, k)
            if len(P) < size:
                frames.append((P, once | h, grown, cost, iter(range(k + 1, K - size + len(P) + 2))))
            elif (sets := fit(P, once | h, grown)) is not None:
                return P, sets
        return None

    for size in range(min(K, budget), 0, -1):
        found = walk(size)
        if found is not None:
            return found
    return (), {}


def max_activation_for_assignment(
    topology: NetworkTopology,
    assignment: MessageAssignment,
    node_limit: int = 24,
    time_limit: float | None = None,
) -> tuple[int, CooperativeWitness]:
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
    return best, CooperativeWitness(active=best_set, assignment=assignment, nodes_explored=search.nodes)


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
