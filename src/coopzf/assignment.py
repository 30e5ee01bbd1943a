"""Message-to-transmitter assignments and cooperation metrics.

An assignment records, for each message ``W_i``, the transmit set
``T_i``: the transmitters that know the message and may cooperatively
send it.  An empty ``T_i`` means the message is never transmitted and
contributes zero degrees of freedom.  The two summary statistics used
throughout are the cooperation order ``M`` (maximum transmit set size)
and the backhaul load ``B`` (average transmit set size), both kept as
exact numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import json

from .errors import InvalidParameterError, PreconditionViolationError, _document_errors


@dataclass
class MessageAssignment:
    """Transmit sets for a K-user network.

    Attributes:
        K: number of users.
        transmit_sets: map from message index ``i`` to the frozen set of
            transmitter indices knowing ``W_i`` (possibly empty).
    """

    K: int
    transmit_sets: dict[int, frozenset[int]]

    def __post_init__(self) -> None:
        users = set(range(1, self.K + 1))
        if set(self.transmit_sets) != users:
            raise InvalidParameterError("transmit_sets must have exactly the keys 1..K")
        for i, T in self.transmit_sets.items():
            if not T <= users:
                raise InvalidParameterError(f"transmit set of message {i} leaves 1..K")

    def to_json(self) -> str:
        obj = {
            "K": self.K,
            "transmit_sets": [sorted(self.transmit_sets[i]) for i in range(1, self.K + 1)],
        }
        return json.dumps(obj)


def assignment_from_json(text: str) -> MessageAssignment:
    """Rebuild a :class:`MessageAssignment` from its JSON form."""
    with _document_errors("assignment"):
        obj = json.loads(text)
        sets = {i + 1: frozenset(row) for i, row in enumerate(obj["transmit_sets"])}
        return MessageAssignment(K=int(obj["K"]), transmit_sets=sets)


@dataclass
class CooperationMetrics:
    """Summary statistics of an assignment.

    Attributes:
        M: maximum transmit set size (0 when nothing is assigned).
        B: backhaul load, the exact average transmit set size.
        histogram: map ``j -> fraction of messages with |T_i| = j``;
            only sizes that occur are listed, and the fractions sum to 1.
    """

    M: int
    B: Fraction
    histogram: dict[int, Fraction]

    def to_json(self) -> str:
        obj = {
            "M": self.M,
            "B": str(self.B),
            "histogram": {str(j): str(f) for j, f in sorted(self.histogram.items())},
        }
        return json.dumps(obj)


def metrics(assignment: MessageAssignment) -> CooperationMetrics:
    """Compute cooperation order, backhaul load, and the size histogram."""
    K = assignment.K
    sizes = [len(assignment.transmit_sets[i]) for i in range(1, K + 1)]
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    histogram = {j: Fraction(c, K) for j, c in counts.items()}
    return CooperationMetrics(M=max(sizes), B=Fraction(sum(sizes), K), histogram=histogram)


def check_local_cooperation(assignment: MessageAssignment, r: int) -> bool:
    """True iff every ``T_i`` lies within radius ``r`` of its message index.

    Args:
        assignment: the assignment to check.
        r: nonnegative cooperation radius.
    """
    if r < 0:
        raise InvalidParameterError("r must be nonnegative")
    for i, T in assignment.transmit_sets.items():
        if any(t < i - r or t > i + r for t in T):
            return False
    return True


def reduce_wyner(assignment: MessageAssignment, M: int) -> MessageAssignment:
    """Drop transmitters that cannot help message ``i`` on a linear chain.

    On a chain where receiver ``i`` hears transmitters ``{i-1, i}``, any
    transmitter outside the window ``{i-M, ..., i+M-1}`` can be removed
    from ``T_i`` without reducing what the scheme can deliver.  The
    result's transmit sets are pointwise subsets of the input's, and the
    operation is idempotent.

    Args:
        assignment: assignment with all transmit sets of size at most M.
        M: positive window parameter.

    Raises:
        PreconditionViolationError: some ``|T_i|`` exceeds ``M``.
    """
    if M < 1:
        raise InvalidParameterError("M must be positive")
    for i, T in assignment.transmit_sets.items():
        if len(T) > M:
            raise PreconditionViolationError(f"|T_{i}| = {len(T)} exceeds M = {M}")
    reduced = {i: _chain_window(T, i, M) for i, T in assignment.transmit_sets.items()}
    return MessageAssignment(K=assignment.K, transmit_sets=reduced)


def _chain_window(T: frozenset[int], i: int, M: int) -> frozenset[int]:
    """The part of ``T`` inside message ``i``'s chain window ``[i-M, i+M-1]``."""
    return frozenset(t for t in T if i - M <= t <= i + M - 1)


def validate_backhaul(assignment: MessageAssignment, B: Fraction | int) -> bool:
    """True iff the assignment's backhaul load is at most ``B``."""
    return metrics(assignment).B <= Fraction(B)
