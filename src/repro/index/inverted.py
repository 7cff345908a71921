"""Disk-backed keyword index and its match sources.

:class:`DiskKeywordIndex` opens an index directory produced by
:func:`repro.index.builder.build_index` and exposes the paper's access
primitives over the B+trees:

* ``lm`` / ``rm`` — descend the ``il`` tree (keyword ⊕ dewey composite
  keys) with ``floor_entry`` / ``ceiling_entry`` clamped to the keyword's
  key range;
* ``scan`` — stream a keyword's Dewey numbers from the ``scan`` tree's
  packed blocks (sequential leaf I/O);
* a **segment fast path** — when the packed posting segments
  (:mod:`repro.index.segments`) are present and current, ``lm``/``rm``
  are one bisect over a keyword's sorted integer keys in the mmap'd
  segment file and ``scan`` walks the same keys, skipping the B+trees
  entirely; a generation mismatch (an updater ran) falls back to the
  trees with byte-identical results;
* cache-temperature control — ``make_cold()`` empties the buffer pool so
  the next query pays physical reads; by default the B+trees' internal
  pages are pinned, realizing the "non-leaf nodes are cached" assumption of
  the paper's disk-access analysis (Table 1).

``sources_for`` wires keyword lists into the algorithm layer: indexed
sources for IL, lazy cursor sources for Scan Eager, plain scans for Stack.

Concurrency: the read path is thread-safe — every page access is
serialized by the buffer pool's lock, and the remaining per-query state
(sources, cursors, codecs) is private to each call — so one
:class:`DiskKeywordIndex` may serve any number of query threads (this is
what the threaded demo server relies on).  Writes are not concurrent:
:class:`~repro.index.updates.IndexUpdater` must run with no in-flight
queries on the same directory; afterwards, open handles observe the bumped
index *generation* (see :mod:`repro.index.generation`) and transparently
reload their on-disk state.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.counters import OpCounters
from repro.core.sources import LazyCursorSource
from repro.errors import IndexFormatError, IndexNotFoundError
from repro.index.builder import (
    DOCUMENT_NAME,
    FREQUENCY_NAME,
    INDEX_FILE_NAME,
    MANIFEST_NAME,
    TAGS_NAME,
    load_level_table,
    load_manifest,
    make_codec,
)
from repro.index.frequency import FrequencyTable
from repro.index.generation import current_generation, seed_generation
from repro.index.segments import (
    PackedListSource,
    SegmentReader,
    open_index_segments,
)
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry, instrumentation_enabled
from repro.storage.bptree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.storage.records import keyword_range, posting_key, unpack_tagged_block
from repro.xmltree.dewey import DeweyTuple

_log = get_logger("index")


class DiskIndexedSource:
    """IL's disk match source: B+tree lookups within one keyword's range.

    IL probes each list with ``lm(x)`` then ``rm(x)`` at the same value
    (``slca_candidate``), so both answers are fetched in **one** tree
    descent (:meth:`~repro.storage.bptree.BPlusTree.neighbors`) and the
    second call at the same probe is answered from memory — halving
    descents per candidate while still counting one ``lm_op`` and one
    ``rm_op``, exactly the paper's cost model.
    """

    def __init__(self, index: "DiskKeywordIndex", keyword: str, counters: OpCounters):
        self._index = index
        self._keyword = keyword
        self._lo, self._hi = keyword_range(keyword)
        self._length = index.frequency(keyword)
        self._last_probe: Optional[
            Tuple[DeweyTuple, Optional[DeweyTuple], Optional[DeweyTuple]]
        ] = None
        self.counters = counters

    def _neighbors(self, v: DeweyTuple) -> Tuple[Optional[DeweyTuple], Optional[DeweyTuple]]:
        last = self._last_probe
        if last is not None and last[0] == v:
            return last[1], last[2]
        probe = posting_key(self._keyword, self._index.codec.encode(v))
        floor, ceiling = self._index.il_tree.neighbors(probe)
        prefix_len = len(self._lo)
        left = (
            None
            if floor is None or floor[0] < self._lo
            else self._index.codec.decode(floor[0][prefix_len:])
        )
        right = (
            None
            if ceiling is None or ceiling[0] >= self._hi
            else self._index.codec.decode(ceiling[0][prefix_len:])
        )
        self._last_probe = (v, left, right)
        return left, right

    def lm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        self.counters.lm_ops += 1
        return self._neighbors(v)[0]

    def rm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        self.counters.rm_ops += 1
        return self._neighbors(v)[1]

    def scan(self) -> Iterator[DeweyTuple]:
        decode = self._index.codec.decode
        prefix_len = len(self._lo)
        for key, _ in self._index.il_tree.scan(self._lo, self._hi):
            yield decode(key[prefix_len:])

    def __len__(self) -> int:
        return self._length


class DiskKeywordIndex:
    """An opened XKSearch index directory.

    ``mmap_mode=True`` opens the page file readonly through a shared
    memory mapping (see :class:`~repro.storage.pager.Pager`): page reads
    come from the OS page cache — one physical copy shared by every
    process mapping the index — and the handle carries no file-offset
    state, making it the read mode for forked worker processes
    (:mod:`repro.xksearch.parallel`).  The API is identical; only writes
    (which this class never performs) are forbidden underneath.

    ``use_segments`` (default on) reads ``lm``/``rm``/``scan`` through
    the packed posting segments (:mod:`repro.index.segments`) whenever
    the segment file exists and its generation matches the live one;
    otherwise — no file (``varint`` codec, or a level table wider than 64
    bits), a file of an older format, a stale file after an updater bump,
    or ``use_segments=False`` — every read transparently falls back to
    the B+trees with byte-identical results.  ``xks_segment_sources_total{tier}``
    counts which tier served each source.
    """

    def __init__(
        self,
        index_dir: Union[str, os.PathLike],
        pool_capacity: int = 4096,
        pin_internal: bool = True,
        mmap_mode: bool = False,
        use_segments: bool = True,
        verify_checksums: bool = False,
    ):
        self.index_dir = os.fspath(index_dir)
        self.manifest = load_manifest(self.index_dir)
        self.mmap_mode = mmap_mode
        self._pin_internal = pin_internal
        self._refresh_lock = threading.RLock()
        self._manifest_path = os.path.join(self.index_dir, MANIFEST_NAME)
        self._manifest_mtime_ns = self._stat_manifest()
        self._seen_generation = seed_generation(
            self.index_dir, self.manifest.get("generation", 0)
        )
        self.level_table = load_level_table(self.index_dir)
        self.codec = make_codec(self.manifest["codec"], self.level_table)
        self._load_metadata()
        index_file = os.path.join(self.index_dir, INDEX_FILE_NAME)
        if not os.path.exists(index_file):
            # The pager would silently create an empty file, turning a
            # damaged installation into silently-empty search results.
            raise IndexNotFoundError(f"missing index file at {index_file}")
        self.verify_checksums = verify_checksums
        self.pager = Pager(
            index_file, readonly=mmap_mode, verify_checksums=verify_checksums
        )
        self.pool = BufferPool(self.pager, capacity=pool_capacity, direct=mmap_mode)
        self._open_trees()
        self.use_segments = use_segments
        self._segments: Optional[SegmentReader] = None
        self._segments_warned = False
        self._open_segments()

    def _load_metadata(self) -> None:
        """(Re)load the frequency table and tag dictionary from disk."""
        self.frequency_table = FrequencyTable.load(
            os.path.join(self.index_dir, FREQUENCY_NAME)
        )
        tags_path = os.path.join(self.index_dir, TAGS_NAME)
        if os.path.exists(tags_path):
            with open(tags_path, "r", encoding="utf-8") as fh:
                self.tags: List[str] = json.load(fh)
        else:
            self.tags = [""]
        self._tag_ids = {tag: i for i, tag in enumerate(self.tags)}

    def _open_trees(self) -> None:
        """(Re)open the B+trees over the pool, honoring the pin policy."""
        self.il_tree = BPlusTree(self.pool, "il")
        self.scan_tree = BPlusTree(self.pool, "scan")
        if self._pin_internal:
            self.pool.pin_many(self.il_tree.internal_page_ids())
            self.pool.pin_many(self.scan_tree.internal_page_ids())
            self.pager.stats.reset()

    def _open_segments(self) -> None:
        """(Re)open the packed posting segments, if enabled and present.

        Any failure here downgrades to the B+tree tier rather than
        failing the open: the segments are an acceleration sidecar, the
        trees are ground truth.
        """
        if self._segments is not None:
            self._segments.close()
            self._segments = None
        if not self.use_segments:
            return
        try:
            self._segments = open_index_segments(
                self.index_dir, self.verify_checksums
            )
        except (OSError, IndexFormatError) as exc:
            # E.g. a file of an older format: ignored here, rewritten by
            # the next commit.  Logged once per handle, not per refresh.
            if not self._segments_warned:
                self._segments_warned = True
                _log.warning(
                    "segments_unavailable", index_dir=self.index_dir, error=repr(exc)
                )

    def segments_active(self) -> bool:
        """Whether reads are currently served from the packed segments.

        True only while the segment file's stamped generation matches the
        live one; an updater bump flips this to False instantly (in every
        process observing the bump) until the segments are rebuilt.
        """
        segments = self._segments
        if segments is None or segments.quarantined:
            return False
        return segments.generation == current_generation(self.index_dir)

    def posting_tier(self) -> str:
        """``"segment"`` or ``"bptree"`` — the tier the next read uses."""
        return "segment" if self.segments_active() else "bptree"

    @staticmethod
    def _note_tier(tier: str, count: int = 1) -> None:
        if count and instrumentation_enabled():
            get_registry().counter(
                "xks_segment_sources_total",
                "Match sources built per posting tier (segment fast path "
                "vs B+tree fallback).",
                labelnames=("tier",),
            ).labels(tier=tier).inc(count)

    # -- generations ---------------------------------------------------------

    def _stat_manifest(self) -> Optional[int]:
        try:
            return os.stat(self._manifest_path).st_mtime_ns
        except OSError:
            return None

    def generation(self) -> int:
        """Current mutation generation of this index directory.

        Query caches stamp entries with this value (see
        :mod:`repro.index.generation`): an :class:`IndexUpdater` mutation
        bumps it, instantly staling every cached result.  If the counter
        has advanced since this handle last looked, the handle reloads its
        on-disk state first so subsequent reads see the new contents.
        """
        # An updater in this process bumps the registry directly; one in
        # *another* process only persists its bump to the manifest on
        # close.  One stat per query detects that cheaply.
        mtime = self._stat_manifest()
        if mtime != self._manifest_mtime_ns:
            with self._refresh_lock:
                if mtime != self._manifest_mtime_ns:
                    self._manifest_mtime_ns = mtime
                    seed_generation(
                        self.index_dir,
                        load_manifest(self.index_dir).get("generation", 0),
                    )
        generation = current_generation(self.index_dir)
        if generation != self._seen_generation:
            with self._refresh_lock:
                if generation != self._seen_generation:
                    self.refresh()
                    self._seen_generation = generation
        return generation

    def refresh(self) -> None:
        """Reload header, trees and metadata after an out-of-band update.

        Must not race in-flight queries on this handle: an updater rewrote
        pages under us, so cached pages (including pinned internals) and
        tree root pointers are re-read from disk.
        """
        with self._refresh_lock:
            self.manifest = load_manifest(self.index_dir)
            self._manifest_mtime_ns = self._stat_manifest()
            self.pager.reload_header()
            self.pool.clear(keep_pinned=False)
            self._load_metadata()
            self._open_trees()
            self._open_segments()
        _log.info(
            "index_refreshed",
            index_dir=self.index_dir,
            generation=self.manifest.get("generation", 0),
            keywords=self.manifest.get("keywords"),
        )

    # -- catalogue -----------------------------------------------------------

    def frequency(self, keyword: str) -> int:
        return self.frequency_table.frequency(keyword)

    def keywords(self) -> List[str]:
        return sorted(self.frequency_table.keywords())

    def __contains__(self, keyword: str) -> bool:
        return keyword.lower() in self.frequency_table

    # -- access primitives ------------------------------------------------------

    def lm(self, keyword: str, v: DeweyTuple) -> Optional[DeweyTuple]:
        """One-off left match (prefer sources for repeated use)."""
        return DiskIndexedSource(self, keyword.lower(), OpCounters()).lm(v)

    def rm(self, keyword: str, v: DeweyTuple) -> Optional[DeweyTuple]:
        """One-off right match."""
        return DiskIndexedSource(self, keyword.lower(), OpCounters()).rm(v)

    def scan(self, keyword: str) -> Iterator[DeweyTuple]:
        """All Dewey numbers of *keyword*, in document order.

        Walks the packed segments' keys when they are current, else the
        block (scan) tree — identical output either way.
        """
        kw = keyword.lower()
        segments = self._segments
        if segments is not None and kw in segments and self.segments_active():
            self._note_tier("segment")
            return segments.scan(kw)
        self._note_tier("bptree")
        return self._scan_bptree(kw)

    def _scan_bptree(self, keyword: str) -> Iterator[DeweyTuple]:
        return (dewey for dewey, _ in self.scan_tagged(keyword))

    def scan_tagged(self, keyword: str) -> Iterator[Tuple[DeweyTuple, str]]:
        """(Dewey, context tag) pairs of *keyword*, in document order."""
        lo, hi = keyword_range(keyword.lower())
        tags = self.tags
        for _, value in self.scan_tree.scan(lo, hi):
            for encoded, tag_id in unpack_tagged_block(value):
                tag = tags[tag_id] if tag_id < len(tags) else ""
                yield self.codec.decode(encoded), tag

    def keyword_list(
        self, keyword: str, tag: Optional[str] = None
    ) -> List[DeweyTuple]:
        """Materialized keyword list, optionally restricted to occurrences
        whose context element is *tag* (the ``tag:word`` query atom).

        The keyword is normalized exactly once at entry; both branches
        below receive it already lowercased (the tagged branch used to
        rely on ``scan_tagged`` normalizing internally).
        """
        kw = keyword.lower()
        if tag is None:
            return list(self.scan(kw))
        wanted = tag.lower()
        return [
            dewey
            for dewey, context in self.scan_tagged(kw)
            if context == wanted
        ]

    def sources_for(
        self,
        keywords: Sequence[str],
        mode: str = "indexed",
        counters: Optional[OpCounters] = None,
    ) -> List:
        """Match sources for a query, one per keyword.

        ``mode="indexed"`` returns point-lookup sources (IL), ``"scan"``
        forward-cursor sources (Scan Eager).  While the segments are
        current both are :class:`~repro.index.segments.PackedListSource`
        over the keyword's keys; otherwise B+tree sources — descents for
        IL, lazy cursors over sequential block reads for Scan Eager —
        with byte-identical answers either way.
        """
        if mode not in ("indexed", "scan"):
            raise ValueError(f"unknown source mode {mode!r}")
        counters = counters if counters is not None else OpCounters()
        segments = self._segments if self.segments_active() else None
        sources: List = []
        segment_count = 0
        for keyword in keywords:
            kw = keyword.lower()
            if segments is not None and kw in segments:
                sources.append(
                    PackedListSource(segments, kw, counters, cursor=mode == "scan")
                )
                segment_count += 1
            elif mode == "indexed":
                sources.append(DiskIndexedSource(self, kw, counters))
            else:
                sources.append(
                    LazyCursorSource(self._scan_bptree(kw), self.frequency(kw), counters)
                )
        self._note_tier("segment", segment_count)
        self._note_tier("bptree", len(sources) - segment_count)
        return sources

    # -- cache temperature ---------------------------------------------------------

    def make_cold(self) -> None:
        """Empty the buffer pool (pinned internal pages survive) and reset
        the physical-read sequence, so the next query runs cold."""
        self.pool.clear()

    def make_fully_cold(self) -> None:
        """Cold including internal pages (for the unpinned ablation)."""
        self.pool.clear(keep_pinned=False)
        self.pool.unpin_all()

    def io_snapshot(self):
        return self.pager.stats.snapshot()

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Storage-layer stats: buffer pool, pager I/O, B+tree node touches.

        This is what the serving layer folds into ``/statz`` and mirrors at
        ``GET /metrics`` — the paper's disk-access cost dimension, live.
        """
        return {
            "buffer_pool": self.pool.stats.as_dict(),
            "pager": self.pager.stats.as_dict(),
            "bptree": {
                "il_node_reads": self.il_tree.node_reads,
                "scan_node_reads": self.scan_tree.node_reads,
            },
            "mmap_mode": self.mmap_mode,
            "posting_tier": self.posting_tier(),
            "segments": (
                self._segments.stats_dict() if self._segments is not None else None
            ),
        }

    # -- documents -----------------------------------------------------------------

    def document_path(self) -> Optional[str]:
        path = os.path.join(self.index_dir, DOCUMENT_NAME)
        return path if os.path.exists(path) else None

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        if self._segments is not None:
            self._segments.close()
            self._segments = None
        self.pager.close()

    def __enter__(self) -> "DiskKeywordIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
