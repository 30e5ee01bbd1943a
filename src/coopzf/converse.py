"""Certified upper bounds on simultaneously served users.

Everything here bounds how many receivers a one-shot zero-forcing
scheme can serve, from above, given structural facts about a message
assignment.  The primitive fact is pairwise: when message ``i`` is
assigned to the single transmitter ``j``, every other receiver that
hears ``j`` competes with ``i`` — at most one of the two can be served.
A message none of whose transmitters its receiver hears is never
served.  :func:`lemma_pairwise_bounds` is the one definition of both
facts.  Group certificates assemble them over node groups of a
hexagonal lattice, solve each group's packing program exactly, and
add one for every node left outside all groups.  The groups are cut
from the lattice's cells and linking triangles, and the facts come
from its network; :class:`~coopzf.topology.HexLattice` builds all three
once, so no certify or audit call derives geometry.  A group's program
is solved in closed form: its optimum is ``|live| - nu/2``, with ``nu``
the maximum matching of the bipartite double cover of its conflicts.
The builders keep every such bound in half units, as the int
``2|live| - nu``, and turn it into a ``Fraction`` once per group when
they emit the certificate.

Two group builders are provided: :func:`algorithm1_certify` works from
a message assignment with per-message cooperation at most one, and
:func:`triangle_state_bound` works from an explicit served schedule,
through the assignment :func:`schedule_assignment` reads off it.  Both
take every constraint from the lemma, and :func:`validate_certificate`
accepts exactly the lemma's facts.  The auditor trusts no solver: it
checks each group's bound against a matching and a vertex cover of
equal size, which certify the optimum by weak duality.
:func:`backhaul_converse` is the linear-network counterpart: it scans
candidate cooperation sizes and bounds the served count under an
average-backhaul budget, with :func:`reconstructibility_check`
providing the supporting decodability argument.
"""

from __future__ import annotations

import math
import numbers
import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .assignment import MessageAssignment
from .errors import InvalidParameterError, PreconditionViolationError, UnsupportedError
from .oracle import AvoidanceSchedule, _matching, validate_schedule
from .topology import HexLattice, NetworkTopology

Constraint = tuple  # ("pair", i, k) or ("zero", i)


# ---------------------------------------------------------------------------
# pairwise facts
# ---------------------------------------------------------------------------


Facts = tuple[frozenset[tuple[int, int]], frozenset[int]]


def lemma_pairwise_bounds(topology: NetworkTopology, assignment: MessageAssignment) -> Facts:
    """All pairwise conflicts and zero facts implied by a 1-cooperative assignment.

    This is the single definition of a certificate fact:

    * ``("zero", i)`` holds iff no transmitter of ``T_i`` is heard at
      receiver ``i`` — the message is unassigned, or its one transmitter
      is inaudible — so ``i`` is never served;
    * ``("pair", i, k)`` holds iff ``k != i`` and receiver ``k`` hears
      the single transmitter ``j`` of a message ``i`` that is not zero:
      serving both in one shot is impossible, so their served
      indicators sum to at most one.

    Args:
        topology: who hears whom.
        assignment: transmit sets, each of size at most one.

    Returns:
        ``(pairs, zeros)`` where ``pairs`` holds ordered tuples
        ``(i, k)`` (``i`` the assigned message, ``k`` the competing
        receiver) and ``zeros`` the never-served message indices.

    Raises:
        PreconditionViolationError: if some transmit set has size > 1.
        InvalidParameterError: if sizes disagree.
    """
    if topology.K != assignment.K:
        raise InvalidParameterError("topology and assignment sizes disagree")
    pairs: set[tuple[int, int]] = set()
    zeros: set[int] = set()
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


def schedule_assignment(schedule: AvoidanceSchedule, K: int) -> MessageAssignment:
    """The single-transmitter assignment a schedule induces: ``r -> {t}`` per service."""
    sets = {i: frozenset() for i in range(1, K + 1)}
    sets.update((r, frozenset({t})) for r, t in schedule.pairs)
    return MessageAssignment(K=K, transmit_sets=sets)


# ---------------------------------------------------------------------------
# group certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifiedGroup:
    """One node group with its exact packing bound.

    Attributes:
        nodes: sorted member indices.
        bound: exact maximum of the sum of served indicators over the
            members, subject to ``constraints``.
        constraints: tuple of ``("pair", i, k)`` / ``("zero", i)``
            facts, each individually valid for the assignment the
            certificate was built from.
        note: short human-readable tag for how the group was formed.
    """

    nodes: tuple[int, ...]
    bound: Fraction
    constraints: tuple[Constraint, ...] = ()
    note: str = ""

    def to_json(self) -> dict:
        recorded = []
        for c in self.constraints:
            if c[0] == "pair":
                recorded.append({"kind": "pair", "i": c[1], "k": c[2]})
            else:
                recorded.append({"kind": "zero", "i": c[1]})
        return {
            "nodes": list(self.nodes),
            "bound": str(self.bound),
            "constraints": recorded,
            "note": self.note,
        }


@dataclass(frozen=True)
class GroupCertificate:
    """Partition-based upper bound on the number of served users.

    ``groups`` are pairwise disjoint; ``uncovered`` holds every node in
    no group and contributes one unit each (trivial bound).  The
    certified claim is: any one-shot scheme consistent with the facts
    serves at most ``certified_bound`` users in total.
    """

    groups: tuple[CertifiedGroup, ...]
    uncovered: frozenset[int]
    certified_bound: int
    bound_total: Fraction

    def to_json(self) -> dict:
        return {
            "groups": [g.to_json() for g in self.groups],
            "uncovered": sorted(self.uncovered),
            "certified_bound": self.certified_bound,
            "bound_total": str(self.bound_total),
        }


def _double_cover(
    nodes: Sequence[int], constraints: Sequence[Constraint]
) -> tuple[list[int], list[set[int]]]:
    """The live members and their rows in the bipartite double cover of the conflicts.

    A member is live unless a zero fact names it.  Row ``p`` lists the
    right-hand copies joined to the left copy of ``live[p]``: a pair
    fact between live members ``i`` and ``k`` joins ``i`` to ``k`` and
    ``k`` to ``i``; a self-pair joins ``i`` to its own copy.
    """
    zeros = {c[1] for c in constraints if c[0] == "zero"}
    live = sorted(set(nodes) - zeros)
    joined: dict[int, set[int]] = {x: set() for x in live}
    for c in constraints:
        if c[0] == "pair" and c[1] in joined and c[2] in joined:
            joined[c[1]].add(c[2])
            joined[c[2]].add(c[1])
    return live, [joined[x] for x in live]


def _lp_bound(nodes: Sequence[int], constraints: Sequence[Constraint]) -> int:
    """Twice the exact max of sum of d_i over d in [0, 1]^n meeting the constraints.

    Pair constraints cap ``d_i + d_k <= 1`` (only when both endpoints
    are members); zero constraints force ``d_i = 0``.  With ``y = 1 - d``
    on the live members this is a fractional vertex cover of the
    conflict graph.  Its optimum is half-integral (Nemhauser & Trotter
    1975) and equals half the maximum matching ``nu`` of the graph's
    bipartite double cover (König), so the bound is
    ``(2 |live| - nu) / 2``.  It is returned in half units, as the int
    ``2 |live| - nu``.
    """
    live, rows = _double_cover(nodes, constraints)
    return 2 * len(live) - len(_matching(rows))


def _konig_cover(
    live: list[int], rows: list[set[int]], matching: dict[int, int]
) -> tuple[set[int], set[int]]:
    """König's vertex cover of the double cover, from a maximum ``matching``.

    Walks the alternating paths from every unmatched left copy; the
    cover is the left copies not reached and the right copies reached,
    returned as two sets of node indices.
    """
    reached = set(range(len(rows))) - set(matching.values())
    stack = list(reached)
    right: set[int] = set()
    while stack:
        for c in rows[stack.pop()]:
            if c in right:
                continue
            right.add(c)
            p = matching.get(c)
            if p is not None and p not in reached:
                reached.add(p)
                stack.append(p)
    return {x for p, x in enumerate(live) if p not in reached}, right


def _bound_problems(group: CertifiedGroup) -> list[str]:
    """Audit ``group.bound`` with a matching and a König cover of its double cover.

    The witness is checked against the recorded constraints alone: the
    matching ``M`` uses only their edges and no endpoint twice, the
    cover ``C`` meets every edge, and ``|C| = |M|``.  By weak duality
    ``M`` is then maximum whatever code produced it, so the group's
    optimum is ``|live| - |M|/2``; it is compared with the recorded
    bound in half units, as ``2|live| - |M|``.
    """
    live, rows = _double_cover(group.nodes, group.constraints)
    matching = _matching(rows)
    left_cover, right_cover = _konig_cover(live, rows, matching)
    matched = {(live[p], c) for c, p in matching.items()}

    zeros = {c[1] for c in group.constraints if c[0] == "zero"}
    alive = set(group.nodes) - zeros
    edges = {
        (c[1], c[2])
        for c in group.constraints
        if c[0] == "pair" and c[1] in alive and c[2] in alive
    }
    edges |= {(k, i) for i, k in edges}
    proven = (
        len({i for i, _ in matched}) == len({k for _, k in matched}) == len(matched)
        and matched <= edges
        and all(i in left_cover or k in right_cover for i, k in edges)
        and len(left_cover) + len(right_cover) == len(matched)
    )
    if not proven:
        return [f"group {list(group.nodes)} has no matching-and-cover witness for its system"]
    twice = 2 * len(alive) - len(matched)
    if 2 * group.bound.numerator != twice * group.bound.denominator:
        return [
            f"group {list(group.nodes)} records bound {group.bound} "
            f"but its system solves to {Fraction(twice, 2)}"
        ]
    return []


def _select(facts: Facts, subjects: Sequence[int], members: Sequence[int]) -> list[Constraint]:
    """Each subject's zero fact, or its pair facts with ``members``, in order."""
    pairs, zeros = facts
    out: list[Constraint] = []
    for i in subjects:
        if i in zeros:
            out.append(("zero", i))
        else:
            out.extend(("pair", i, k) for k in members if (i, k) in pairs)
    return out


class _GroupBuilder:
    """Mutable accumulator for groups while a certify pass runs.

    Every constraint is selected from ``facts``, the output of
    :func:`lemma_pairwise_bounds`.  Each group keeps its exact bound
    in half units, the int :func:`_lp_bound` returns, solved once when
    the group is opened or grown; :meth:`finish` makes it a ``Fraction``.
    """

    def __init__(self, facts: Facts) -> None:
        self.facts = facts
        self.groups: list[dict] = []
        self.of: dict[int, int] = {}

    def new(self, nodes: list[int], subjects: list[int], note: str) -> None:
        """Open a group on ``nodes`` constrained by the facts about ``subjects``."""
        gid = len(self.groups)
        constraints = _select(self.facts, subjects, nodes)
        bound = _lp_bound(tuple(nodes), tuple(constraints))
        self.groups.append(
            {"nodes": list(nodes), "constraints": constraints, "note": note, "bound": bound}
        )
        for x in nodes:
            self.of[x] = gid

    def merge(self, x: int, gid: int, bound: int | None = None) -> None:
        """Add ``x`` to group ``gid`` with its pair facts against the members.

        ``bound`` is the grown group's bound, in half units, when the
        caller has solved it.
        """
        g = self.groups[gid]
        g["constraints"].extend(_select(self.facts, [x], g["nodes"]))
        g["nodes"].append(x)
        if bound is None:
            bound = _lp_bound(tuple(g["nodes"]), tuple(g["constraints"]))
        g["bound"] = bound
        self.of[x] = gid

    def finish(self, uncovered: set[int]) -> GroupCertificate:
        done = [
            CertifiedGroup(
                nodes=tuple(sorted(g["nodes"])),
                bound=Fraction(g["bound"], 2),
                constraints=tuple(g["constraints"]),
                note=g["note"],
            )
            for g in self.groups
        ]
        total = Fraction(sum(g["bound"] for g in self.groups), 2) + len(uncovered)
        return GroupCertificate(
            groups=tuple(done),
            uncovered=frozenset(uncovered),
            certified_bound=int(total),  # floor: served counts are integers
            bound_total=total,
        )


def algorithm1_certify(
    lattice: HexLattice,
    assignment: MessageAssignment,
    shuffle_seed: int | None = None,
) -> GroupCertificate:
    """Group certificate for a 1-cooperative assignment on a hexagonal lattice.

    Builds disjoint groups of lattice nodes such that each group's
    pairwise facts cap its served count, in three sweeps: (1) each
    self-serving node is paired with a cell partner, preferring the one
    further left; (2) nodes served from outside their own cell are
    grouped inside the linking triangle they are served across;
    (3) leftover cells are closed out, attaching stragglers to the
    existing group that costs the least.  Nodes that cannot be grouped
    count one unit each as uncovered.

    Args:
        lattice: hexagonal layout (any finite node set).
        assignment: transmit sets, each of size at most one.  A
            transmitter outside the message's own hearing range is
            useless: the lemma makes the message a zero fact.
        shuffle_seed: optional seed; permutes the sweep *iteration*
            orders (tie-breaks stay deterministic), for checking that
            the certified bound is order-insensitive.

    Returns:
        A :class:`GroupCertificate`; the bound applies to every
        one-shot scheme using this assignment.

    Raises:
        PreconditionViolationError: if some transmit set has size > 1.
        InvalidParameterError: if the assignment and lattice sizes disagree.
    """
    nodes = sorted(lattice.coords)
    topology, mains, middles = lattice.topology, lattice.cell, lattice.link
    facts = lemma_pairwise_bounds(topology, assignment)
    zeros = facts[1]
    # The one audible transmitter of every message that is not a zero fact.
    tx = {i: next(iter(assignment.transmit_sets[i])) for i in nodes if i not in zeros}

    self_servers = [x for x in nodes if tx.get(x) == x]
    # Served from outside its cell: no cell member transmits to it, and it
    # is not assigned within its own cell.
    outsider_set = {
        a
        for a in nodes
        if mains[a] is not None
        and tx.get(a) not in mains[a]
        and all(tx.get(m) != a for m in mains[a])
    }

    uncovered = {x for x in nodes if mains[x] is None}
    uncovered |= {a for a in outsider_set if middles[a] is None}

    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None

    def ordered(seq: list) -> list:
        seq = list(seq)
        if rng is not None:
            rng.shuffle(seq)
        return seq

    builder = _GroupBuilder(facts)

    def done(x: int) -> bool:
        return x in builder.of or x in uncovered

    # Sweep 1: self-serving nodes pair up inside their own cell.
    coords = lattice.coords
    for x in ordered(sorted(self_servers)):
        if done(x):
            continue
        pool = [y for y in mains[x] if y != x and not done(y)]
        if not pool:
            uncovered.add(x)
            continue
        # Twice the real part, a - b/2, so the leftmost partner wins.
        partner = min(pool, key=lambda y: (2 * coords[y][0] - coords[y][1], y))
        builder.new([x, partner], [x], "self-serving pair")

    # Sweep 2: nodes served from outside their cell, grouped per linking triangle.
    for a in ordered(sorted(outsider_set)):
        if done(a):
            continue
        outs = [o for o in middles[a] if not done(o) and o in outsider_set]
        if len(outs) >= 2:
            builder.new(outs, outs, "linking-triangle group")
            continue
        # `a` is the only groupable outside-served node of this triangle.
        if a in zeros:
            builder.new([a], [a], "unassigned outside-served")
            continue
        j = tx[a]
        if j in builder.of:
            builder.merge(a, builder.of[j])
        elif j in uncovered:
            uncovered.add(a)
        else:
            builder.new([a, j], [a], "served-across pair")

    # Sweep 3: close out every complete cell.
    for mt in ordered(lattice.cells):
        t = [x for x in mt if not done(x)]
        if not t:
            continue
        if len(t) >= 2:
            builder.new(t, t, "residual cell" if len(t) == 3 else "residual cell pair")
            continue
        (x,) = t
        if x in zeros:
            builder.new([x], [x], "residual unassigned")
            continue
        # Only a group holding another hearer of tx[x] gains a fact about x.
        gids = {builder.of[k] for k in topology.hearers(tx[x]) if k != x and k in builder.of}
        # Bounds in half units: a grown group bound above (|nodes| + 1) / 2
        # dilutes it.
        best: tuple[int, int, int] | None = None
        for gid in sorted(gids):
            g = builder.groups[gid]
            extra = _select(facts, [x], g["nodes"])
            new = _lp_bound(tuple(g["nodes"]) + (x,), tuple(g["constraints"] + extra))
            key = (new - g["bound"], gid, new)
            if best is None or key[:2] < best[:2]:
                best = key
        if best is None or best[2] > len(builder.groups[best[1]]["nodes"]) + 1:
            uncovered.add(x)  # no partner, or attaching would dilute the group
        else:
            builder.merge(x, best[1], best[2])

    return builder.finish(uncovered)


def validate_certificate(
    lattice: HexLattice, assignment: MessageAssignment, certificate: GroupCertificate
) -> list[str]:
    """Audit a group certificate against the assignment it claims to bound.

    Checks disjointness and full coverage by lattice nodes only; that
    every recorded constraint is one of the facts
    :func:`lemma_pairwise_bounds` derives for this assignment on this
    lattice and names only members of its group (so a self-pair
    ``("pair", i, i)`` is never accepted); and that every group's bound
    equals the exact optimum of its recorded constraint system.  The
    optimum is not taken from the builders' solver: the auditor finds a
    maximum matching and a König vertex cover of the group's double
    cover and checks that they are a matching and a cover of the
    recorded system of equal size, which proves the optimum by weak
    duality.

    Returns:
        A list of problem descriptions; empty when the certificate is
        sound and self-consistent.

    Raises:
        PreconditionViolationError: if some transmit set has size > 1.
        InvalidParameterError: if the assignment and lattice sizes disagree.
    """
    problems: list[str] = []
    nodes = set(lattice.coords)
    facts = lemma_pairwise_bounds(lattice.topology, assignment)

    seen: set[int] = set()
    for g in certificate.groups:
        for x in g.nodes:
            if x in seen:
                problems.append(f"node {x} appears in more than one group")
            seen.add(x)
    overlap = seen & certificate.uncovered
    if overlap:
        problems.append(f"nodes {sorted(overlap)} are both grouped and uncovered")
    missing = nodes - seen - certificate.uncovered
    if missing:
        problems.append(f"nodes {sorted(missing)} are in no group and not uncovered")
    outside = (seen | certificate.uncovered) - nodes
    if outside:
        problems.append(f"nodes {sorted(outside)} are not nodes of the lattice")

    for g in certificate.groups:
        # The facts that name only members of this group.
        allowed = set(_select(facts, g.nodes, g.nodes))
        for c in g.constraints:
            if c not in allowed:
                problems.append(f"{c} is not a fact of this assignment within {list(g.nodes)}")
        problems.extend(_bound_problems(g))
    total = sum((g.bound for g in certificate.groups), Fraction(0)) + len(certificate.uncovered)
    if total != certificate.bound_total:
        problems.append("bound_total does not match the sum of group bounds")
    if certificate.certified_bound != int(total):
        problems.append("certified_bound is not the floor of bound_total")
    return problems


# ---------------------------------------------------------------------------
# schedule-driven accounting
# ---------------------------------------------------------------------------


def triangle_state_bound(lattice: HexLattice, schedule: AvoidanceSchedule) -> GroupCertificate:
    """Group certificate derived from an explicit interference-free schedule.

    Classifies every complete cell by how the schedule touches it
    (in-cell service; member transmitting outward; member served from
    outward; untouched), turns each cross-cell service into its linking
    triangle's node triple, attaches those triples to the serving-side
    cell when possible, and emits per-group packing bounds whose facts
    are the pairwise/zero facts induced by the schedule.

    Args:
        lattice: hexagonal layout.
        schedule: distinct receivers served by distinct transmitters
            with no unintended audibility; validated first.

    Raises:
        PreconditionViolationError: if the schedule is not a valid
            interference-avoidance schedule for this lattice.
    """
    nodes = sorted(lattice.coords)
    topology = lattice.topology
    problems = validate_schedule(topology, schedule)
    if problems:
        raise PreconditionViolationError("; ".join(problems))
    facts = lemma_pairwise_bounds(topology, schedule_assignment(schedule, topology.K))
    zeros = facts[1]

    # Compared by anchor, so that two users of one clipped cell count as in-cell.
    pairs = sorted(schedule.pairs)
    in_cell = [(r, t) for r, t in pairs if lattice.cell_anchor(r) == lattice.cell_anchor(t)]
    cross = [(r, t) for r, t in pairs if lattice.cell_anchor(r) != lattice.cell_anchor(t)]

    state: dict[tuple[int, int, int], int] = {}
    for mt in lattice.cells:
        ms = set(mt)
        if any(r in ms for r, _ in in_cell):
            state[mt] = 1
        elif any(t in ms for _, t in cross):
            state[mt] = 2
        elif any(r in ms for r, _ in cross):
            state[mt] = 3
        else:
            state[mt] = 0

    # Each cross-cell service lives in one linking triangle; collect its triple.
    forced_uncovered: set[int] = set()
    triples: list[tuple[int, int, int]] = []  # (bystander, transmitter, receiver)
    for r, t in cross:
        mid = lattice.link[r]
        if mid is None or t not in mid:
            forced_uncovered.update((r, t))
            continue
        (a,) = (x for x in mid if x not in (r, t))
        triples.append((a, t, r))

    builder = _GroupBuilder(facts)
    consumed: set[tuple[int, int, int]] = set()

    # Absorb triples into the cell of their bystander node when that cell
    # is complete and not itself exporting or importing a service.  The
    # served receivers bring their pair facts, the unserved members zeros.
    for mt in lattice.cells:
        if state[mt] not in (0, 1):
            continue
        attached = [tr for tr in triples if tr[0] in mt and tr not in consumed]
        consumed.update(attached)
        members = sorted(set(mt).union(*((t, r) for _, t, r in attached)))
        served = [r for r, _ in in_cell if r in mt] + [r for _, _, r in attached]
        builder.new(
            members,
            served + [x for x in members if x in zeros],
            f"cell state {state[mt]} with {len(attached)} linked services",
        )

    # Remaining triples stand alone.
    for a, t, r in triples:
        if (a, t, r) in consumed:
            continue
        members = sorted((a, t, r))
        builder.new(members, [r] + [x for x in members if x in zeros], "standalone linked service")

    # Leftover members of exporting/importing cells are provably unserved.
    for mt in lattice.cells:
        if state[mt] not in (2, 3):
            continue
        left = [x for x in mt if x not in builder.of and x not in forced_uncovered]
        if left:
            builder.new(left, left, f"unserved rest of state-{state[mt]} cell")

    uncovered = forced_uncovered | {x for x in nodes if x not in builder.of}
    return builder.finish(uncovered)


# ---------------------------------------------------------------------------
# linear networks under a backhaul budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackhaulConverseResult:
    """Outcome of the backhaul-budget scan for a chain network.

    Attributes:
        M: the cooperation-size cutoff achieving the best bound.
        S: messages whose transmit set has size at most ``M``.
        A_bar: the deactivated candidates certified unservable.
        A_bar_size: ``len(A_bar)``.
        bound: certified maximum number of served users, ``K - A_bar_size``.
        K: number of users.
        slack: ``bound - (4B - 1) K / (4B)`` as an exact fraction;
            zero means the scan is tight against the matching scheme.
        scanned: bound obtained at every cutoff tried, ``M < min(2B, K)``,
            for reporting.
    """

    M: int
    S: tuple[int, ...]
    A_bar: tuple[int, ...]
    A_bar_size: int
    bound: int
    K: int
    slack: Fraction
    scanned: dict[int, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "M": self.M,
            "S": list(self.S),
            "A_bar": list(self.A_bar),
            "A_bar_size": self.A_bar_size,
            "bound": self.bound,
            "K": self.K,
            "slack": str(self.slack),
            "scanned": {str(m): v for m, v in sorted(self.scanned.items())},
        }


def _low_cooperation_candidates(sizes: Sequence[int], M: int) -> tuple[list[int], list[int]]:
    """Messages with small transmit sets, and the evenly spaced candidates among them.

    ``S`` lists every message whose transmit set has at most ``M``
    members (``sizes[i - 1] = |T_i|``), ascending.  Candidates sit at
    positions ``M + 1``, ``3M + 2``, ``5M + 3``, ... within ``S`` (1-based),
    i.e. every ``2M + 1`` entries, so any two candidates are separated by
    at least ``2M`` other low-cooperation messages.  Candidates whose
    forward window would leave the chain (index ``> K - M``) are dropped;
    the spacing means at most one candidate is ever dropped.
    """
    K = len(sizes)
    S = [i for i, size in enumerate(sizes, 1) if size <= M]
    kept = [s for s in S[M :: 2 * M + 1] if s + M <= K]
    return S, kept


def backhaul_converse(assignment: MessageAssignment, B: int | Fraction) -> BackhaulConverseResult:
    """Certified served-count bound for a chain network under backhaul budget ``B``.

    With average transmit-set size at most ``B``, for every cutoff
    ``M < 2B`` at least half the messages use at most ``M``
    transmitters (on average), so the low-cooperation set is dense
    enough to pick well-separated candidates; each candidate can be
    deactivated and its signal reconstructed from its neighbors, so no
    scheme can serve them all.  The scan keeps the best (smallest)
    bound over the cutoffs ``M < min(2B, K)``: a cutoff ``M >= K``
    keeps no candidate, so its bound is ``K`` and it is never the best.

    Args:
        assignment: transmit sets on a chain network with ``K`` users.
        B: integer backhaul budget; the assignment's average load must
            not exceed it.

    Raises:
        InvalidParameterError: if ``B`` is a bool or not a real number,
            is not finite, or is below 1.
        UnsupportedError: if ``B`` is not an integer.
        PreconditionViolationError: if the assignment's average
            transmit-set size exceeds ``B``.
    """
    if isinstance(B, bool) or not isinstance(B, numbers.Real):
        raise InvalidParameterError(f"B must be a number, got {B!r}")
    if not -math.inf < B < math.inf:
        raise InvalidParameterError(f"B must be finite, got {B}")
    B_frac = Fraction(B)
    if B_frac.denominator != 1:
        raise UnsupportedError("only integer backhaul budgets are scanned")
    B_int = int(B_frac)
    if B_int < 1:
        raise InvalidParameterError("backhaul budget must be at least 1")
    K, sets = assignment.K, assignment.transmit_sets
    sizes = [len(sets[i]) for i in range(1, K + 1)]
    if sum(sizes) > B_int * K:
        raise PreconditionViolationError(
            f"assignment has average load {Fraction(sum(sizes), K)}, above the budget {B_int}"
        )
    candidates = {M: _low_cooperation_candidates(sizes, M) for M in range(min(2 * B_int, K))}
    scanned = {M: K - len(kept) for M, (_, kept) in candidates.items()}
    M = min(scanned, key=scanned.__getitem__)  # the first cutoff with the smallest bound
    (S, kept), bound = candidates[M], scanned[M]
    slack = Fraction(bound) - Fraction((4 * B_int - 1) * K, 4 * B_int)
    return BackhaulConverseResult(
        M=M,
        S=tuple(S),
        A_bar=tuple(kept),
        A_bar_size=len(kept),
        bound=bound,
        K=K,
        slack=slack,
        scanned=scanned,
    )


def appendix_receiver_set(
    assignment: MessageAssignment, M: int
) -> tuple[frozenset[int], MessageAssignment]:
    """Active receiver set and trimmed assignment used by the reconstruction step.

    Picks the evenly spaced low-cooperation candidates for cutoff
    ``M``, removes them from the full receiver set to get ``A``, and
    reduces each low-cooperation message's transmit set to the window
    ``[i - M, i + M - 1]`` (other messages keep their sets).  The pair
    ``(A, reduced)`` always passes :func:`reconstructibility_check` on
    the matching chain network.

    Args:
        assignment: transmit sets on a chain network.
        M: cooperation-size cutoff, an int of at least 0.

    Raises:
        InvalidParameterError: if ``M`` is a bool, not an int, or negative.
    """
    if isinstance(M, bool) or not isinstance(M, int) or M < 0:
        raise InvalidParameterError(f"cutoff must be an int of at least 0, got {M!r}")
    K, sets = assignment.K, assignment.transmit_sets
    S, kept = _low_cooperation_candidates([len(sets[i]) for i in range(1, K + 1)], M)
    reduced_sets = dict(sets)
    for i in S:  # most sets already fit their window; rebuild only the others
        for t in sets[i]:
            if not i - M <= t < i + M:
                reduced_sets[i] = frozenset(t for t in sets[i] if i - M <= t < i + M)
                break
    A = frozenset(range(1, K + 1)).difference(kept)
    return A, MessageAssignment(K=K, transmit_sets=reduced_sets)


def reconstructibility_check(
    topology: NetworkTopology, assignment: MessageAssignment, A: frozenset[int] | set[int]
) -> bool:
    """Whether receivers in ``A`` pin down every transmitted signal on a chain.

    The unknowns are the transmitters carrying a message of a receiver
    outside ``A``.  A worklist holds the receivers in ``A`` that hear one
    unknown; each resolves it and updates only that transmitter's
    hearers, so the walk costs ``sum(|T_i| for i not in A)`` times the
    hearing degree.  Returns True when every transmitter is resolved,
    which is the decodability fact behind deactivating the complement of ``A``.

    Args:
        topology: must be a chain network (each receiver hears at most
            its own and the previous transmitter).
        assignment: transmit sets (which messages each transmitter carries).
        A: receiver subset doing the reconstruction.

    Raises:
        PreconditionViolationError: for non-chain topologies.
        InvalidParameterError: if ``A`` holds anything but ints in ``1..K``.
    """
    chain = topology.kind == "wyner" or (
        topology.kind == "locally_connected" and topology.params.get("L") == 1
    )
    if not chain:
        raise PreconditionViolationError("reconstruction walk is defined on chain networks")
    if topology.K != assignment.K:
        raise InvalidParameterError("topology and assignment sizes disagree")
    K = topology.K
    A = frozenset(A)
    if A and (set(map(type, A)) != {int} or min(A) < 1 or max(A) > K):
        raise InvalidParameterError(f"receiver set holds a value that is not an int in 1..{K}")

    sets = assignment.transmit_sets
    unknown = set().union(*(sets[i] for i in frozenset(range(1, K + 1)).difference(A)))
    pending = Counter(j for t in unknown for j in topology.hearers(t) if j in A)
    ready = [j for j, count in pending.items() if count == 1]
    while ready:
        j = ready.pop()
        if pending[j] != 1:
            continue  # its last unknown was resolved by another receiver
        (t,) = topology.hears[j] & unknown
        unknown.remove(t)
        for h in topology.hearers(t):
            if h in A:
                pending[h] -= 1
                if pending[h] == 1:
                    ready.append(h)
    return not unknown
