"""Incremental maintenance of an on-disk XKSearch index.

The paper's system builds its index once; real deployments need to add and
remove content.  :class:`IndexUpdater` applies posting-level changes to an
existing index directory, and what it costs follows what changed — the
lists a batch touches — not the size of the index.

**Applying a change** (``add_postings`` / ``remove_postings``, one
keyword at a time):

* the ``il`` tree — the ground truth — takes point inserts/deletes (the
  B+tree handles splits; deletion may leave underfull leaves, which scans
  and matches tolerate);
* then **one pass** over the keyword's IL run brings everything derived
  from it up to date: the ``scan`` tree's blocks are re-chunked and
  rewritten (stale tail blocks deleted), the frequency table's count is
  edited in place, and the keyword's segment keys are kept for
  ``close()`` — O(|S_kw|) per touched keyword and call, the right trade
  for an index whose reads vastly outnumber its writes;
* the page writes are handed to the OS and the index *generation* is
  bumped, which stales every segment reader at once: when the call
  returns, an in-process reader serves IL **and** Scan Eager from
  B+trees that are both current.

**Committing** (``close()``) writes ``segments.dat``
(:mod:`repro.index.segments`) for the final generation by **copy-through**:
the lists the passes re-derived are written afresh, and every untouched
list — keys, directory entries and its *stored* CRC words, never
recomputed — is lifted in whole runs out of the previous file's mapping.
No IL node is read.  The result is byte-identical to a rebuild from the
whole IL tree, which remains the **cold path** for when the previous file
cannot be trusted to reflect the trees.  The rule: before its first tree
write an updater renames ``segments.dat`` to ``segments.dat.base`` (new
readers fall back to the B+trees; open ones keep their mapping), and at
``close()`` copies from it only if it is a readable version-3 file in this
writer's layout, stamped with the generation the updater opened at.  A
``.base`` found already present was left by an updater that changed the
trees and never closed; a missing, truncated, older-format or
otherwise-stamped file predates changes nobody recorded.  All of these
rebuild in full, and every ``close()`` removes the ``.base``.

**Publishing.**  Readers in other processes watch ``manifest.json``.  So
``close()`` first syncs the pages (and their checksum sidecar) and the
segment file, then swaps in ``frequency.json``, ``tags.json`` and, last,
the manifest — each written to a temporary sibling and renamed, so none
is ever seen half-written and whoever sees the new manifest finds
everything it describes.

Two constraints are enforced rather than silently broken:

* new Dewey numbers must fit the existing level table — widening a level
  would change every packed encoding on disk, so the updater raises and
  the caller must rebuild (``build_index``) instead;
* a stored ``document.xml`` no longer matches an updated index, so the
  updater deletes it and flags the manifest.
"""

from __future__ import annotations

import json
import os
from array import array
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

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
from repro.index.segments import SegmentReader, segments_path, write_index_segments
from repro.obs.logging import get_logger
from repro.storage.bptree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager, write_json_atomic
from repro.storage.records import block_key, keyword_range, pack_block, posting_key
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
        self._opened_generation = seed_generation(
            self.index_dir, self.manifest.get("generation", 0)
        )
        self._segments_path = segments_path(self.index_dir)
        self._base_path = self._segments_path + ".base"
        self._writes_segments = self._key_layout is not None and (
            "segments" in self.manifest or os.path.exists(self._segments_path)
        )
        #: Whether this updater moved the segment file to ``_base_path``.
        self._has_base: Optional[bool] = None
        #: Keywords whose IL run may differ from the base segment file →
        #: their segment keys as of the last pass over the run.
        self._touched: Dict[str, array] = {}
        #: Keywords with IL writes since their last pass (non-empty only
        #: while a call runs, or after one raised half-way).
        self._stale: Set[str] = set()

    # -- change application ------------------------------------------------------

    def add_postings(self, changes: TaggedPostings) -> int:
        """Insert postings; returns the number actually added.

        Re-adding an existing (keyword, dewey) posting updates its tag
        rather than duplicating.  Raises :class:`DeweyError` if a Dewey
        number does not fit the index's level table (rebuild instead).
        """
        self._retire_segments()
        added = 0
        for keyword, postings in changes.items():
            kw = keyword.lower()
            merged: Dict[DeweyTuple, int] = {}
            for dewey, tag in postings:
                self.level_table.check_fits(dewey)
                merged[dewey] = self._tag_id(tag)
            self._stale.add(kw)
            for dewey, tag_id in merged.items():
                key = posting_key(kw, self.codec.encode(dewey))
                added += self._il.insert(key, tag_id.to_bytes(2, "big"))
            self._rederive(kw)
        self._postings_delta += added
        self._pager.flush()  # before the bump sends in-process readers to the trees
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
        self._retire_segments()
        removed = 0
        for keyword, deweys in changes.items():
            kw = keyword.lower()
            self._stale.add(kw)
            for dewey in deweys:
                try:
                    encoded = self.codec.encode(dewey)
                except DeweyError:
                    continue  # cannot be in the index at all
                removed += self._il.delete(posting_key(kw, encoded))
            self._rederive(kw)
        self._postings_delta -= removed
        self._pager.flush()
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

    def _rederive(self, keyword: str) -> None:
        """Bring everything derived from *keyword*'s IL run up to date, in
        one pass over the run: its scan-tree blocks (re-chunked), its
        frequency count and — for ``close()`` — its segment keys."""
        lo, hi = keyword_range(keyword)
        prefix = len(lo)
        keys = key_of = None
        if self._writes_segments:
            keys = array(self._key_layout.typecode)
            key_of = self._key_layout.key_of_encoding
        budget = self._budget
        count = seq = block_bytes = 0
        block: List[bytes] = []
        for key, tag in self._il.scan(lo, hi):
            encoded = key[prefix:]
            entry_bytes = len(encoded) + 3  # length prefix + 2 tag bytes
            if block and block_bytes + entry_bytes > budget:
                self._scan.insert(block_key(keyword, seq), pack_block(block))
                seq += 1
                block = []
                block_bytes = 0
            # A tagged-block record (records.pack_tagged_block): the
            # encoding, then the two tag bytes exactly as the IL tree
            # stores them.
            block.append(encoded + tag)
            block_bytes += entry_bytes
            count += 1
            if keys is not None:
                keys.append(key_of(encoded))
        if block:
            self._scan.insert(block_key(keyword, seq), pack_block(block))
            seq += 1
        # Blocks are numbered densely from 0: what the old run had beyond
        # the new one is deleted until the first miss.
        while self._scan.delete(block_key(keyword, seq)):
            seq += 1
        self.frequency.set_count(keyword, count)
        if keys is not None:
            self._touched[keyword] = keys
        self._stale.discard(keyword)

    # -- segments ------------------------------------------------------------------

    def _retire_segments(self) -> None:
        """Before the first tree write, move the segment file out of service.

        New readers then find no file and use the B+trees (open readers
        keep their mapping of it, stale-stamped by the generation bump),
        and the move doubles as this updater's claim on the file:
        ``close()`` copies untouched lists out of it and deletes it.  A
        ``.base`` already there was left by an updater that changed the
        trees and never closed, so no segment file on disk reflects them
        any more; it stays as that marker until some ``close()`` has
        rebuilt the segments in full.
        """
        if self._has_base is not None or not self._writes_segments:
            return
        try:
            if os.path.exists(self._base_path):
                self._has_base = False
                os.remove(self._segments_path)
            else:
                os.replace(self._segments_path, self._base_path)
                self._has_base = True
        except FileNotFoundError:
            self._has_base = False

    def _open_base(self) -> Optional[SegmentReader]:
        """The retired segment file, if its untouched lists are current:
        readable, and stamped with the generation this updater opened at
        (anything else predates changes this updater knows nothing of)."""
        if not self._has_base:
            return None
        try:
            base = SegmentReader(self._base_path, self._key_layout)
        except (OSError, IndexFormatError):
            return None
        if base.generation != self._opened_generation:
            base.close()
            return None
        return base

    def _il_keys(self, keyword: str) -> Iterable[int]:
        """One keyword's segment keys straight from the IL tree: its key
        suffixes are the packed encodings the keys are made of."""
        lo, hi = keyword_range(keyword)
        key_of = self._key_layout.key_of_encoding
        return (key_of(key[len(lo):]) for key, _ in self._il.scan(lo, hi))

    def _write_segments(self, generation: int) -> dict:
        """Write the segment file for *generation*; returns its manifest entry.

        Touched lists come from the passes the mutations already made,
        all others are copied out of the retired base file.  Without a
        base that can be trusted the file is rebuilt from the whole IL
        tree — the cold path.  Either way it lands by atomic rename:
        live readers keep their mapping of the old file and pick the new
        one up on their next generation-driven refresh.
        """
        self._retire_segments()
        by_bytes = str.encode  # the directory's order: keywords as UTF-8
        base = self._open_base()
        try:
            if base is not None:
                try:
                    return write_index_segments(
                        self.index_dir,
                        ((kw, self._touched[kw]) for kw in sorted(self._touched, key=by_bytes)),
                        generation,
                        self._key_layout,
                        base,
                    )
                except IndexFormatError as exc:
                    _log.warning("segments_base_unusable", error=repr(exc))
            return write_index_segments(
                self.index_dir,
                (
                    (kw, self._il_keys(kw))
                    for kw in sorted(self.frequency.keywords(), key=by_bytes)
                ),
                generation,
                self._key_layout,
            )
        finally:
            if base is not None:
                base.close()
            if os.path.exists(self._base_path):
                os.remove(self._base_path)

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Publish the changes and release the index file.

        Order matters to readers in other processes, which watch the
        manifest: the B+tree pages and the segment file reach the disk
        first, then each metadata file is swapped in whole, the manifest
        last — whoever sees the new manifest sees everything it names.
        """
        if self._closed:
            return
        if self._stale:
            # A call raised between a tree write and its pass: finish its
            # work, and announce the writes it never got to announce.
            for keyword in sorted(self._stale):
                self._rederive(keyword)
            bump_generation(self.index_dir)
        self.manifest["keywords"] = len(self.frequency)
        self.manifest["postings"] = self.manifest.get("postings", 0) + self._postings_delta
        self.manifest["generation"] = current_generation(self.index_dir)
        self._pager.sync()
        if self._writes_segments:
            self.manifest["segments"] = self._write_segments(self.manifest["generation"])
        self.frequency.save(os.path.join(self.index_dir, FREQUENCY_NAME))
        write_json_atomic(os.path.join(self.index_dir, TAGS_NAME), self._tags)
        document_path = os.path.join(self.index_dir, DOCUMENT_NAME)
        if self._postings_delta != 0 and os.path.exists(document_path):
            # The stored document no longer matches the index contents.
            os.remove(document_path)
            self.manifest["has_document"] = False
        write_json_atomic(os.path.join(self.index_dir, MANIFEST_NAME), self.manifest)
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
