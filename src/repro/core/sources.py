"""Match sources: where the algorithms get ``lm`` / ``rm`` / scans from.

The paper's algorithms are defined over keyword lists ``S1 … Sk`` accessed
through three primitives:

* ``rm(v, S)`` — *right match*: the node of ``S`` with the smallest id
  greater than or equal to ``v``;
* ``lm(v, S)`` — *left match*: the node of ``S`` with the biggest id less
  than or equal to ``v``;
* an ordered scan of the whole list (used by Scan Eager's cursors and by
  the Stack algorithm's sort-merge).

A :class:`MatchSource` packages one keyword list behind those primitives.
Two in-memory implementations live here — binary-search lookups for Indexed
Lookup Eager and forward cursors for Scan Eager; the disk-backed
implementations in :mod:`repro.index.inverted` (B+tree descents) and
:mod:`repro.index.segments` (packed posting segments) expose the same
interface.  All implementations share an :class:`OpCounters` so a query's
operation profile can be compared with Table 1.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Protocol, Sequence

from repro.core.counters import OpCounters
from repro.xmltree.dewey import DeweyTuple


class MatchSource(Protocol):
    """One keyword list behind the paper's access primitives."""

    def lm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        """Left match: biggest id <= v, or None."""

    def rm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        """Right match: smallest id >= v, or None."""

    def scan(self) -> Iterator[DeweyTuple]:
        """All nodes in ascending id order."""

    def __len__(self) -> int:
        """Number of nodes in the list (the keyword's frequency)."""


class SortedListSource:
    """Binary-search matches over an in-memory sorted list (IL's accessor).

    Every ``lm``/``rm`` costs one ``O(log|S|)`` bisect, matching the paper's
    indexed-lookup cost model.
    """

    def __init__(self, nodes: Sequence[DeweyTuple], counters: Optional[OpCounters] = None):
        self._nodes: List[DeweyTuple] = list(nodes)
        if any(self._nodes[i] >= self._nodes[i + 1] for i in range(len(self._nodes) - 1)):
            raise ValueError("keyword list must be strictly sorted by Dewey id")
        self.counters = counters if counters is not None else OpCounters()

    def lm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        self.counters.lm_ops += 1
        i = bisect_right(self._nodes, v)
        return self._nodes[i - 1] if i > 0 else None

    def rm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        self.counters.rm_ops += 1
        i = bisect_left(self._nodes, v)
        return self._nodes[i] if i < len(self._nodes) else None

    def scan(self) -> Iterator[DeweyTuple]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


class CursorListSource:
    """Forward-cursor matches over an in-memory sorted list (Scan Eager).

    Exploits the fact that IL's probes into each list arrive in
    (near-)ascending order: the cursor only moves forward, and each ``lm`` /
    ``rm`` is answered from the two elements around the cursor.  A probe
    *can* regress — to an ancestor of the previous probe, whose candidate
    Lemma 1 discards anyway — and returning a wrong match there would break
    SLCA semantics, so regressions fall back to a bounded binary search over
    the already-passed prefix without moving the cursor back
    (``cursor_reseeks`` counts how rare this is).
    """

    def __init__(self, nodes: Sequence[DeweyTuple], counters: Optional[OpCounters] = None):
        self._nodes: List[DeweyTuple] = list(nodes)
        if any(self._nodes[i] >= self._nodes[i + 1] for i in range(len(self._nodes) - 1)):
            raise ValueError("keyword list must be strictly sorted by Dewey id")
        self._cursor = 0
        self.counters = counters if counters is not None else OpCounters()

    def _regressed(self, v: DeweyTuple) -> bool:
        return self._cursor > 0 and self._nodes[self._cursor - 1] >= v

    def _advance_to(self, v: DeweyTuple) -> None:
        c = bisect_left(self._nodes, v, self._cursor)
        self.counters.cursor_advances += c - self._cursor
        self._cursor = c

    def lm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        self.counters.lm_ops += 1
        if self._regressed(v):
            self.counters.cursor_reseeks += 1
            i = bisect_right(self._nodes, v, 0, self._cursor)
            return self._nodes[i - 1] if i > 0 else None
        self._advance_to(v)
        c = self._cursor
        if c < len(self._nodes) and self._nodes[c] == v:
            return v
        return self._nodes[c - 1] if c > 0 else None

    def rm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        self.counters.rm_ops += 1
        if self._regressed(v):
            self.counters.cursor_reseeks += 1
            # The true right match is in the passed prefix because the
            # element just before the cursor is already >= v.
            i = bisect_left(self._nodes, v, 0, self._cursor)
            return self._nodes[i]
        self._advance_to(v)
        c = self._cursor
        return self._nodes[c] if c < len(self._nodes) else None

    def scan(self) -> Iterator[DeweyTuple]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


class LazyCursorSource:
    """Cursor matches over a *streaming* sorted iterator.

    The disk Scan Eager source: Dewey numbers arrive from a sequential block
    read, and the cursor logic of :class:`CursorListSource` runs over the
    consumed prefix, which is retained in memory (Scan Eager reads whole
    lists anyway, and retaining the prefix is what makes the regression
    fallback possible without backward disk seeks).
    """

    def __init__(
        self,
        iterator: Iterator[DeweyTuple],
        length: int,
        counters: Optional[OpCounters] = None,
    ):
        self._iterator = iterator
        self._length = length
        self._consumed: List[DeweyTuple] = []
        self._exhausted = False
        self._cursor = 0
        self.counters = counters if counters is not None else OpCounters()

    def _pull(self) -> bool:
        """Consume one more element; False at end of stream."""
        if self._exhausted:
            return False
        nxt = next(self._iterator, None)
        if nxt is None:
            self._exhausted = True
            return False
        if self._consumed and nxt <= self._consumed[-1]:
            raise ValueError("scan stream is not strictly sorted")
        self._consumed.append(nxt)
        return True

    def _regressed(self, v: DeweyTuple) -> bool:
        return self._cursor > 0 and self._consumed[self._cursor - 1] >= v

    def _advance_to(self, v: DeweyTuple) -> None:
        start = c = self._cursor
        while True:
            c = bisect_left(self._consumed, v, c)
            if c < len(self._consumed) or not self._pull():
                break
        self.counters.cursor_advances += c - start
        self._cursor = c

    def lm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        self.counters.lm_ops += 1
        if self._regressed(v):
            self.counters.cursor_reseeks += 1
            i = bisect_right(self._consumed, v, 0, self._cursor)
            return self._consumed[i - 1] if i > 0 else None
        self._advance_to(v)
        c = self._cursor
        if c < len(self._consumed) and self._consumed[c] == v:
            return v
        return self._consumed[c - 1] if c > 0 else None

    def rm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        self.counters.rm_ops += 1
        if self._regressed(v):
            self.counters.cursor_reseeks += 1
            i = bisect_left(self._consumed, v, 0, self._cursor)
            return self._consumed[i]
        self._advance_to(v)
        c = self._cursor
        return self._consumed[c] if c < len(self._consumed) else None

    def scan(self) -> Iterator[DeweyTuple]:
        i = 0
        while True:
            while i < len(self._consumed):
                yield self._consumed[i]
                i += 1
            if not self._pull():
                return

    def __len__(self) -> int:
        return self._length


def memory_sources(
    keyword_lists: Sequence[Sequence[DeweyTuple]],
    counters: Optional[OpCounters] = None,
    cursor: bool = False,
) -> List[MatchSource]:
    """Wrap raw keyword lists as match sources sharing one counter set."""
    shared = counters if counters is not None else OpCounters()
    cls = CursorListSource if cursor else SortedListSource
    return [cls(nodes, shared) for nodes in keyword_lists]
