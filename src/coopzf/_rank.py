"""Term rank: the one matcher behind every generic-rank verdict.

With generic channel gains the rank of a zero-forcing system is the
term rank of its support, the size of a maximum bipartite matching of
rows to transmitter columns.  Deliverability (:func:`_deliverable`),
beam supports (:func:`_support_matching`), and the group bounds and the
reconstruction check of :mod:`coopzf.converse` all read it from
:func:`_matching`, which takes rows of column indices; the two kernels
take transmitter bitmasks.  The certificate auditor calls nothing
here: it checks the builders' dual multipliers by arithmetic.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence


def _matching(rows: Sequence[Collection[int]]) -> dict[int, int]:
    """A maximum bipartite matching of row index to a member column, as ``{column: row}``.

    Kuhn's augmenting paths: each row in turn tries its columns in order,
    skipping those its search has already tried, and evicts a column's
    current row when that row can move on to another column.  The
    depth-first search keeps its path on lists, not the call stack, so a
    path through every row needs no recursion.  A row whose first column
    is free takes it before any of that is built: it is the search's
    first try, and most rows end there.
    """
    match_col: dict[int, int] = {}
    for root, row in enumerate(rows):
        first = next(iter(row), None)
        if first is not None and first not in match_col:
            match_col[first] = root
            continue
        seen: set[int] = set()
        tries, taken = [iter(row)], []  # the path's rows, and the column each is trying
        while tries:
            for c in tries[-1]:
                if c not in seen:
                    break
            else:  # the last row's columns are spent: back up to the row before it
                tries.pop()
                if taken:
                    taken.pop()
                continue
            seen.add(c)
            taken.append(c)
            r = match_col.get(c)
            if r is not None:
                tries.append(iter(rows[r]))
                continue
            r = root  # a free column: each row on the path moves to the column it tried
            for c in taken:
                match_col[c], r = r, match_col.get(c)
            break
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
