"""Incremental maintenance of an on-disk XKSearch index.

The paper's system builds its index once; real deployments need to add and
remove content.  :class:`IndexUpdater` applies posting-level changes to an
existing index directory:

* the ``il`` tree takes point inserts/deletes (the B+tree handles splits;
  deletion may leave underfull leaves, which scans and matches tolerate);
* the ``scan`` tree is maintained per keyword: all of a changed keyword's
  blocks are read, merged with the change set, re-chunked and rewritten —
  O(|S_kw|) per touched keyword, the right trade for an index whose reads
  vastly outnumber its writes;
* the frequency table and tag dictionary are updated and persisted on
  ``close()``;
* the packed posting segments (:mod:`repro.index.segments`), when the
  index carries them, are **rebuilt on** ``close()`` from the
  authoritative IL tree and stamped with the final generation.  Between
  the first mutation (which bumps the generation, instantly staling the
  old segment file in every reader) and the rebuild, readers serve from
  the B+trees — correct, just not on the fast path.

Two constraints are enforced rather than silently broken:

* new Dewey numbers must fit the existing level table — widening a level
  would change every packed encoding on disk, so the updater raises and
  the caller must rebuild (``build_index``) instead;
* a stored ``document.xml`` no longer matches an updated index, so the
  updater deletes it and flags the manifest, unless the caller provides
  the new document text.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.errors import DeweyError, IndexFormatError
from repro.index.builder import (
    DOCUMENT_NAME,
    FREQUENCY_NAME,
    INDEX_FILE_NAME,
    MANIFEST_NAME,
    TAGS_NAME,
    _default_block_budget,
    key_layout,
    load_level_table,
    load_manifest,
    make_codec,
)
from repro.index.frequency import FrequencyTable
from repro.obs.logging import get_logger
from repro.storage.bptree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.storage.records import (
    block_key,
    keyword_range,
    pack_tagged_block,
    posting_key,
)
from repro.xksearch.cache import bump_generation, current_generation, seed_generation
from repro.xmltree.dewey import DeweyTuple
from repro.xmltree.tree import Node, TEXT_TAG

#: A change set: keyword → postings, each (dewey, context tag).
TaggedPostings = Mapping[str, Sequence[Tuple[DeweyTuple, str]]]

_log = get_logger("index")


class IndexUpdater:
    """Applies posting changes to an index directory.

    Use as a context manager; metadata (frequency table, tag dictionary,
    manifest) is persisted on exit::

        with IndexUpdater(index_dir) as updater:
            updater.add_postings({"smith": [((0, 5, 1, 0, 0), "author")]})
            updater.remove_postings({"jones": [(0, 2, 1, 1, 0)]})
    """

    def __init__(self, index_dir: Union[str, os.PathLike]):
        self.index_dir = os.fspath(index_dir)
        self.manifest = load_manifest(self.index_dir)
        self.level_table = load_level_table(self.index_dir)
        self.codec = make_codec(self.manifest["codec"], self.level_table)
        self._key_layout = key_layout(self.manifest["codec"], self.level_table)
        self.frequency = FrequencyTable.load(os.path.join(self.index_dir, FREQUENCY_NAME))
        tags_path = os.path.join(self.index_dir, TAGS_NAME)
        if os.path.exists(tags_path):
            with open(tags_path, encoding="utf-8") as fh:
                self._tags: List[str] = json.load(fh)
        else:
            self._tags = [""]
        self._tag_ids = {tag: i for i, tag in enumerate(self._tags)}
        index_file = os.path.join(self.index_dir, INDEX_FILE_NAME)
        if not os.path.exists(index_file):
            raise IndexFormatError(f"missing index file at {index_file}")
        self._pager = Pager(index_file)
        self._pool = BufferPool(self._pager, capacity=4096)
        self._il = BPlusTree(self._pool, "il")
        self._scan = BPlusTree(self._pool, "scan")
        self._budget = _default_block_budget(self.manifest["page_size"])
        self._closed = False
        self._postings_delta = 0
        # Join the process-wide generation domain for this index directory,
        # starting from whatever the manifest last persisted.
        seed_generation(self.index_dir, self.manifest.get("generation", 0))

    # -- change application ------------------------------------------------------

    def add_postings(self, changes: TaggedPostings) -> int:
        """Insert postings; returns the number actually added.

        Re-adding an existing (keyword, dewey) posting updates its tag
        rather than duplicating.  Raises :class:`DeweyError` if a Dewey
        number does not fit the index's level table (rebuild instead).
        """
        added = 0
        for keyword, postings in changes.items():
            kw = keyword.lower()
            merged: Dict[DeweyTuple, int] = {}
            for dewey, tag in postings:
                self.level_table.check_fits(dewey)
                merged[dewey] = self._tag_id(tag)
            for dewey, tag_id in merged.items():
                key = posting_key(kw, self.codec.encode(dewey))
                existed = self._il.search(key) is not None
                self._il.insert(key, tag_id.to_bytes(2, "big"))
                if not existed:
                    added += 1
            self._rewrite_scan_blocks(kw)
            self._refresh_frequency(kw)
        self._postings_delta += added
        if added:
            # Stale every cached query result computed against the old
            # contents (see repro.xksearch.cache).
            generation = bump_generation(self.index_dir)
            _log.info(
                "postings_added",
                added=added,
                keywords=len(changes),
                generation=generation,
            )
        return added

    def remove_postings(
        self, changes: Mapping[str, Sequence[DeweyTuple]]
    ) -> int:
        """Delete postings; returns the number actually removed."""
        removed = 0
        for keyword, deweys in changes.items():
            kw = keyword.lower()
            for dewey in deweys:
                try:
                    encoded = self.codec.encode(dewey)
                except DeweyError:
                    continue  # cannot be in the index at all
                if self._il.delete(posting_key(kw, encoded)):
                    removed += 1
            self._rewrite_scan_blocks(kw)
            self._refresh_frequency(kw)
        self._postings_delta -= removed
        if removed:
            generation = bump_generation(self.index_dir)
            _log.info(
                "postings_removed",
                removed=removed,
                keywords=len(changes),
                generation=generation,
            )
        return removed

    def add_subtree(self, node: Node) -> int:
        """Index every keyword occurrence in a (Dewey-numbered) subtree.

        The subtree must already carry its final Dewey numbers (e.g. a new
        document grafted under a collection root via ``renumber_subtree``).
        """
        changes: Dict[str, List[Tuple[DeweyTuple, str]]] = {}
        for descendant in node.iter_subtree():
            if descendant.is_text:
                parent = descendant.parent
                context = parent.tag.lower() if parent is not None else TEXT_TAG
            else:
                context = descendant.tag.lower()
            seen_here = set()
            for word in descendant.keywords():
                if word in seen_here:
                    continue
                seen_here.add(word)
                changes.setdefault(word, []).append((descendant.dewey, context))
        return self.add_postings(changes)

    def remove_subtree(self, node: Node) -> int:
        """Remove every posting contributed by a (Dewey-numbered) subtree."""
        changes: Dict[str, List[DeweyTuple]] = {}
        for descendant in node.iter_subtree():
            seen_here = set()
            for word in descendant.keywords():
                if word in seen_here:
                    continue
                seen_here.add(word)
                changes.setdefault(word, []).append(descendant.dewey)
        return self.remove_postings(changes)

    # -- internals -----------------------------------------------------------------

    def _tag_id(self, tag: str) -> int:
        tag = (tag or "").lower()
        if tag not in self._tag_ids:
            self._tag_ids[tag] = len(self._tags)
            self._tags.append(tag)
        return self._tag_ids[tag]

    def _il_postings(self, keyword: str) -> Iterable[Tuple[bytes, int]]:
        """(dewey encoding, tag id) for one keyword, from the IL tree."""
        lo, hi = keyword_range(keyword)
        for key, value in self._il.scan(lo, hi):
            yield key[len(lo):], int.from_bytes(value, "big")

    def _rewrite_scan_blocks(self, keyword: str) -> None:
        """Re-chunk one keyword's scan-tree run from the (authoritative)
        IL tree contents."""
        lo, hi = keyword_range(keyword)
        old_block_keys = [key for key, _ in self._scan.scan(lo, hi)]
        seq = 0
        block: List[Tuple[bytes, int]] = []
        block_bytes = 0

        def flush() -> None:
            nonlocal seq, block, block_bytes
            self._scan.insert(block_key(keyword, seq), pack_tagged_block(block))
            seq += 1
            block = []
            block_bytes = 0

        for encoded, tag_id in self._il_postings(keyword):
            entry_bytes = len(encoded) + 3
            if block and block_bytes + entry_bytes > self._budget:
                flush()
            block.append((encoded, tag_id))
            block_bytes += entry_bytes
        if block:
            flush()
        for stale in old_block_keys:
            if stale >= block_key(keyword, seq):
                self._scan.delete(stale)

    def _refresh_frequency(self, keyword: str) -> None:
        count = sum(1 for _ in self._il_postings(keyword))
        counts = dict(self.frequency.items())
        if count:
            counts[keyword] = count
        else:
            counts.pop(keyword, None)
        self.frequency = FrequencyTable(counts)

    # -- lifecycle -----------------------------------------------------------------

    def _rebuild_segments(self, generation: int) -> None:
        """Rewrite the packed posting segments from the IL tree.

        Written to a temporary sibling and atomically renamed: live
        readers keep their mapping of the old (now stale-stamped) file
        and pick up the new one on their next generation-driven refresh.
        """
        from repro.index.segments import write_index_segments

        # The IL tree's key suffixes are the packed encodings the segment
        # keys are made of: no Dewey number is decoded on the way.
        self.manifest["segments"] = write_index_segments(
            self.index_dir,
            (
                (keyword, (encoded for encoded, _ in self._il_postings(keyword)))
                for keyword in sorted(
                    self.frequency.keywords(), key=lambda kw: kw.encode("utf-8")
                )
            ),
            generation,
            self._key_layout,
        )

    def close(self) -> None:
        """Persist metadata and release the index file."""
        if self._closed:
            return
        self.frequency.save(os.path.join(self.index_dir, FREQUENCY_NAME))
        with open(os.path.join(self.index_dir, TAGS_NAME), "w", encoding="utf-8") as fh:
            json.dump(self._tags, fh)
        self.manifest["keywords"] = len(self.frequency)
        self.manifest["postings"] = self.manifest.get("postings", 0) + self._postings_delta
        self.manifest["generation"] = current_generation(self.index_dir)
        if self._key_layout is not None and (
            "segments" in self.manifest
            or os.path.exists(os.path.join(self.index_dir, "segments.dat"))
        ):
            self._rebuild_segments(self.manifest["generation"])
        document_path = os.path.join(self.index_dir, DOCUMENT_NAME)
        if self._postings_delta != 0 and os.path.exists(document_path):
            # The stored document no longer matches the index contents.
            os.remove(document_path)
            self.manifest["has_document"] = False
        with open(os.path.join(self.index_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh)
        self._pager.sync()
        self._pager.close()
        self._closed = True
        _log.info(
            "updater_closed",
            index_dir=self.index_dir,
            postings_delta=self._postings_delta,
            generation=self.manifest["generation"],
        )

    def __enter__(self) -> "IndexUpdater":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
