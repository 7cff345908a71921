"""The Indexed Lookup Eager algorithm (the paper's core contribution).

For every node ``v`` of the smallest keyword list ``S1``, the *candidate*
``slca({v}, S2, …, Sk)`` is computed with two match lookups per remaining
list (Property 1, applied recursively per Property 2):

    x ← v
    for each further list S:
        x ← deeper( lca(x, lm(x, S)),  lca(x, rm(x, S)) )

The candidate is the root of the smallest subtree containing ``v`` plus at
least one node of every other list.  Candidates for ascending ``v`` are then
filtered on the fly:

* **Lemma 1** — a candidate that does not advance in document order is an
  ancestor-or-self of the currently held candidate: discard it.
* **Lemma 2** — when a candidate advances past the held candidate without
  being its descendant, the held candidate can never be an ancestor of any
  later candidate: it is confirmed as an SLCA and emitted immediately.

The generator therefore *pipelines* SLCAs (the paper's "eagerness"): the
first answers appear long before ``S1`` is exhausted, with only O(1) state.

Main-memory complexity ``O(k·d·|S1|·log|S|)`` where ``d`` is the maximum
depth and ``|S|`` the largest list; the same control flow over cursor-based
sources is the Scan Eager algorithm (:mod:`repro.core.scan_eager`).

Sources that expose their list as sorted integer keys of one
:class:`~repro.xmltree.codec.KeyLayout` (the posting segments do) are run
by an **integer kernel**: the same loop, filtering, deadline checkpoints
and operation counts, with ``lm``/``rm`` as one ``bisect`` over the keys
and ``lca`` as a masked ``and`` — tuples exist only for the results.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Sequence

from repro.core.counters import OpCounters
from repro.core.sources import MatchSource, SortedListSource
from repro.robustness.deadline import checkpoint
from repro.xmltree.dewey import DeweyTuple, lca


def slca_candidate(
    v: DeweyTuple,
    others: Sequence[MatchSource],
    counters: OpCounters,
) -> DeweyTuple:
    """``slca({v}, S2, …, Sk)`` — the smallest subtree root covering *v*
    and one node from each source (Properties 1 and 2).

    Every source must be non-empty (the caller short-circuits otherwise).
    """
    x = v
    for source in others:
        left = source.lm(x)
        right = source.rm(x)
        # lca(x, match) is a prefix of x, so the two LCAs are comparable
        # and `deeper` = the longer prefix; inline for the hot path.
        best: Optional[DeweyTuple] = None
        if left is not None:
            best = lca(x, left)
            counters.lca_ops += 1
        if right is not None:
            candidate = lca(x, right)
            counters.lca_ops += 1
            if best is None or len(candidate) > len(best):
                best = candidate
        x = best
    return x


def eager_slca(
    sources: Sequence[MatchSource],
    counters: Optional[OpCounters] = None,
) -> Iterator[DeweyTuple]:
    """Shared eager SLCA pipeline over any kind of match source.

    ``sources[0]`` plays the role of ``S1``; the query engine passes the
    smallest list first (the algorithm is correct for any order, only the
    cost changes).  Yields SLCAs in document order, as soon as confirmed.
    """
    counters = counters if counters is not None else OpCounters()
    if not sources:
        raise ValueError("at least one keyword list is required")
    if any(len(source) == 0 for source in sources):
        return
    if _share_packed_layout(sources):
        yield from _eager_slca_packed(sources, counters)
        return
    others = sources[1:]
    held: Optional[DeweyTuple] = None
    for v in sources[0].scan():
        checkpoint("execute")
        x = slca_candidate(v, others, counters)
        counters.candidates += 1
        if held is None:
            held = x
            continue
        if x > held:
            if held != x[: len(held)]:  # Lemma 2: held is not an ancestor of x
                counters.results += 1
                yield held
            held = x
        # else x <= held: Lemma 1 — x is an ancestor-or-self of held; drop x.
    if held is not None:
        counters.results += 1
        yield held


def _share_packed_layout(sources: Sequence[MatchSource]) -> bool:
    """Whether every source exposes integer keys of one layout, and every
    probed source the same access mode (see ``PackedListSource``)."""
    layout = getattr(sources[0], "layout", None)
    return layout is not None and all(
        getattr(source, "layout", None) is layout
        and source.cursor == sources[1].cursor
        for source in sources[1:]
    )


def _eager_slca_packed(
    sources: Sequence[MatchSource], counters: OpCounters
) -> Iterator[DeweyTuple]:
    """:func:`eager_slca` over integer keys.

    ``deeper(lca(x, lm), lca(x, rm))`` is the larger of the two masked
    keys (both are prefixes of ``x``), and "``held`` is an ancestor of
    ``x``" is ``lca(held, x) == held``.  In cursor mode the bisect starts
    at the list's cursor, and a probe behind it searches the passed prefix
    instead — counted exactly as the cursor sources count.  Counts are
    kept in locals and written to *counters* before every yield and on
    exit, whichever way the generator ends.
    """
    layout = sources[0].layout
    lca_masks, unpack = layout.lca_masks, layout.unpack
    lists = [source.keys for source in sources[1:]]
    cursor = sources[-1].cursor
    positions = [0] * len(lists)
    slots = range(len(lists))
    candidates = lca_ops = advances = reseeks = 0

    def flush() -> None:
        nonlocal candidates, lca_ops, advances, reseeks
        counters.lm_ops += candidates * len(lists)
        counters.rm_ops += candidates * len(lists)
        counters.candidates += candidates
        counters.lca_ops += lca_ops
        counters.cursor_advances += advances
        counters.cursor_reseeks += reseeks
        candidates = lca_ops = advances = reseeks = 0

    held: Optional[int] = None
    try:
        for x in sources[0].keys:
            checkpoint("execute")
            for slot in slots:
                keys = lists[slot]
                position = positions[slot]
                if position and keys[position - 1] >= x:
                    reseeks += 2  # lm and rm each re-seek the passed prefix
                    i = bisect_left(keys, x, 0, position)
                else:
                    i = bisect_left(keys, x, position)
                    if cursor:
                        advances += i - position
                        positions[slot] = i
                if i == len(keys):
                    x &= lca_masks[(x ^ keys[i - 1]).bit_length()]
                    lca_ops += 1
                    continue
                right = keys[i]
                if right == x:
                    lca_ops += 2  # both matches are x itself
                    continue
                best = x & lca_masks[(x ^ right).bit_length()]
                lca_ops += 1
                if i:
                    left = x & lca_masks[(x ^ keys[i - 1]).bit_length()]
                    lca_ops += 1
                    if left > best:
                        best = left
                x = best
            candidates += 1
            if held is None:
                held = x
            elif x > held:
                if held & lca_masks[(held ^ x).bit_length()] != held:  # Lemma 2
                    flush()
                    counters.results += 1
                    yield unpack(held)
                held = x
        if held is not None:
            flush()
            counters.results += 1
            yield unpack(held)
    finally:
        flush()


def indexed_lookup_eager(
    sources: Sequence[MatchSource],
    counters: Optional[OpCounters] = None,
) -> Iterator[DeweyTuple]:
    """Indexed Lookup Eager over prepared match sources (Algorithm IL)."""
    return eager_slca(sources, counters)


def indexed_lookup_slca(
    keyword_lists: Sequence[Sequence[DeweyTuple]],
    counters: Optional[OpCounters] = None,
) -> List[DeweyTuple]:
    """Convenience wrapper: run IL over in-memory keyword lists.

    Orders the lists by size (smallest first) as the paper prescribes, then
    materializes the full answer.
    """
    counters = counters if counters is not None else OpCounters()
    ordered = sorted(keyword_lists, key=len)
    sources = [SortedListSource(lst, counters) for lst in ordered]
    return list(eager_slca(sources, counters))


def indexed_lookup_blocked(
    sources: Sequence[MatchSource],
    block_size: int,
    counters: Optional[OpCounters] = None,
) -> Iterator[List[DeweyTuple]]:
    """The paper's memory-bounded variant: process ``S1`` in blocks of *b*.

    Computes ``slca(B1, S2, …, Sk)``, then ``slca({last result} ∪ B2, …)``
    and so on; every block's confirmed SLCAs are emitted together while the
    block's final candidate is carried into the next block.  Semantically
    identical to :func:`indexed_lookup_eager` (the generator already holds
    only the current candidate); this variant exists to measure
    time-to-first-answer as a function of *b* in the buffering ablation.
    """
    if block_size < 1:
        raise ValueError("block size must be positive")
    counters = counters if counters is not None else OpCounters()
    if any(len(source) == 0 for source in sources):
        return
    others = sources[1:]
    held: Optional[DeweyTuple] = None
    block: List[DeweyTuple] = []
    seen_any = False
    for v in sources[0].scan():
        checkpoint("execute")
        seen_any = True
        x = slca_candidate(v, others, counters)
        counters.candidates += 1
        if held is not None:
            if x > held:
                if held != x[: len(held)]:
                    counters.results += 1
                    block.append(held)
                held = x
        else:
            held = x
        if len(block) >= block_size:
            yield block
            block = []
    if seen_any and held is not None:
        counters.results += 1
        block.append(held)
    if block:
        yield block
