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
from itertools import chain
import json

from .errors import InvalidParameterError, _check_int, _check_users, _document_errors


@dataclass
class MessageAssignment:
    """Transmit sets for a K-user network.

    Attributes:
        K: number of users, an ``int`` of at least 1.
        transmit_sets: map from message index ``i`` to the frozen set of
            transmitter indices knowing ``W_i`` (possibly empty).
    """

    K: int
    transmit_sets: dict[int, frozenset[int]]

    def __post_init__(self) -> None:
        if _check_int("K", self.K) < 1:
            raise InvalidParameterError("K must be >= 1")
        # Count the keys before building 1..K (see NetworkTopology).
        sets = self.transmit_sets
        if len(sets) != self.K or set(sets) != (users := set(range(1, self.K + 1))):
            raise InvalidParameterError("transmit_sets must have exactly the keys 1..K")
        for i, T in sets.items():
            if not T <= users:
                raise InvalidParameterError(f"transmit set of message {i} leaves 1..K")

    def to_dict(self) -> dict:
        """The JSON object form, with sorted transmit sets; :meth:`to_json` encodes it."""
        return {
            "K": self.K,
            "transmit_sets": [sorted(self.transmit_sets[i]) for i in range(1, self.K + 1)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def assignment_from_dict(obj) -> MessageAssignment:
    """Rebuild a :class:`MessageAssignment` from the parsed object of its JSON form."""
    with _document_errors("assignment"):
        rows = obj["transmit_sets"]
        _check_users("assignment", obj["K"], chain.from_iterable(rows))
        sets = {i + 1: frozenset(row) for i, row in enumerate(rows)}
        return MessageAssignment(K=obj["K"], transmit_sets=sets)


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
