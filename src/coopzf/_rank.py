"""Term rank: the one matcher behind every generic-rank verdict.

With generic channel gains the rank of a zero-forcing system is the
term rank of its support, the size of a maximum bipartite matching of
rows to transmitter columns.  Deliverability (:func:`_deliverable`),
beam supports (:func:`_support_matching`) and the group bounds of
:mod:`coopzf.converse` all read it from :func:`_matching`, which takes
rows of column indices; the two kernels take transmitter bitmasks.
The certificate auditor calls nothing here: it checks the builders'
dual multipliers by arithmetic.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence


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
