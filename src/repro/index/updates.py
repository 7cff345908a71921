"""Incremental maintenance of an on-disk XKSearch index.

The paper's system builds its index once; real deployments need to add and
remove content.  :class:`IndexUpdater` applies posting-level changes to an
existing index directory, and what it costs follows the postings that
change — not the length of their lists, nor the size of the index.

**Applying a change** (``add_postings`` / ``remove_postings``) is three
local edits per posting, a keyword's postings in key order:

* the ``il`` tree — the ground truth — takes a point insert/delete (the
  B+tree handles splits; deletion may leave underfull leaves, which scans
  and matches tolerate);
* the ``scan`` tree keys a block like a B+tree separator
  (:mod:`repro.storage.records`), so the block a posting belongs in is
  the floor of its IL key — or, with nothing below it in the keyword's
  range, the block keyed by the range's lower bound.  The record, or just
  its tag bytes, is spliced into that block's value; a block past its
  byte budget splits at the midpoint and one that empties is deleted, so
  blocks end up unevenly full (Figure 4 fixes their format, not their
  fill) and ``xksearch fsck`` checks the separator invariant instead;
* the keyword's segment keys — lifted on its first touch out of the
  retired segment file, and checked against their stored CRCs — take one
  ``bisect`` insert/pop, and its frequency count moves by one.

The page writes are then handed to the OS and, if a stored value changed
(a tag counts), the index *generation* is bumped, which stales every
segment reader and cached result at once: when the call returns, an
in-process reader serves IL **and** Scan Eager from B+trees that are both
current.  Only a call that raises half-way costs a pass over a list:
``close()`` re-derives its keyword's blocks, count and keys from the IL run.

**Committing** (``close()``) writes ``segments.dat``
(:mod:`repro.index.segments`) for the final generation by **copy-through**:
touched lists from the keys the edits maintained, and every untouched
list — keys, directory entries and its *stored* CRC words, never
recomputed — lifted in whole runs out of the previous file's mapping.
No IL node is read.  The result is byte-identical to a rebuild from the
whole IL tree, which remains the **cold path** for when the previous file
cannot be trusted to reflect the trees.  The rule: before its first tree
write an updater renames ``segments.dat`` to ``segments.dat.base`` (new
readers fall back to the B+trees; open ones keep their mapping) and uses
it only if it is a readable version-3 file in this writer's layout,
stamped with the generation the updater opened at, whose touched lists
pass their checksums.  A ``.base`` found already present was left by an
updater that changed the trees and never closed; a missing, truncated,
older-format or otherwise-stamped file predates changes nobody recorded.
All of these rebuild in full, and every ``close()`` removes the ``.base``.

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
from bisect import bisect_left
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
from repro.index.generation import bump_generation, current_generation, seed_generation
from repro.index.segments import SegmentReader, segments_path, write_index_segments
from repro.obs.logging import get_logger
from repro.storage.bptree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager, write_json_atomic
from repro.storage.records import (
    block_midpoint,
    find_record,
    first_encoding,
    keyword_range,
    pack_block,
)
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
        #: Whether any stored value (a posting or its tag) has changed.
        self._changed = False
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
        self._retired = False
        #: The segment file, retired to ``_base_path``, while it is trusted.
        self._base: Optional[SegmentReader] = None
        #: Keywords whose IL run may differ from the base segment file →
        #: their segment keys, edited in step with the run.
        self._touched: Dict[str, array] = {}
        #: Keywords whose scan blocks, count and keys may lag their IL run
        #: (non-empty only while a call runs, or after one raised half-way).
        self._stale: Set[str] = set()

    # -- change application ------------------------------------------------------

    def add_postings(self, changes: TaggedPostings) -> int:
        """Insert postings; returns the number actually added.

        Re-adding an existing (keyword, dewey) posting updates its tag
        rather than duplicating.  Raises :class:`DeweyError` if a Dewey
        number does not fit the index's level table (rebuild instead).
        """
        self._retire_segments()
        batches: Dict[str, Dict[bytes, bytes]] = {}
        for keyword, postings in changes.items():  # all checked before any is applied
            merged = batches.setdefault(keyword.lower(), {})
            for dewey, tag in postings:
                self.level_table.check_fits(dewey)
                merged[self.codec.encode(dewey)] = self._tag_id(tag).to_bytes(2, "big")
        added = 0
        changed = False
        for keyword, merged in batches.items():
            count, rewritten = self._apply(keyword, merged)
            added += count
            changed |= rewritten
        self._announce("postings_added", added, changed, len(changes))
        return added

    def remove_postings(
        self, changes: Mapping[str, Sequence[DeweyTuple]]
    ) -> int:
        """Delete postings; returns the number actually removed."""
        self._retire_segments()
        removed = 0
        for keyword, deweys in changes.items():
            doomed: Dict[bytes, None] = {}
            for dewey in deweys:
                try:
                    doomed[self.codec.encode(dewey)] = None
                except DeweyError:
                    continue  # cannot be in the index at all
            removed -= self._apply(keyword.lower(), doomed)[0]
        self._announce("postings_removed", -removed, removed > 0, len(changes))
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

    def _apply(
        self, keyword: str, changes: Mapping[bytes, Optional[bytes]]
    ) -> Tuple[int, bool]:
        """Apply one keyword's changes — Dewey encoding → tag bytes to
        store, or ``None`` to remove the posting — to the IL tree, the
        scan block each falls in, the segment keys and the count.
        Returns (postings added minus removed, whether any stored value
        changed)."""
        lo, _ = keyword_range(keyword)
        keys = self._segment_keys(keyword)
        self._stale.add(keyword)
        # Block key -> [stored value, (encoding, tag, step), ...], step
        # being +1 for a new posting, 0 for a tag rewritten, -1 for a
        # removal: in key order, so a block's edits share one read and write.
        edits: Dict[bytes, list] = {}
        for encoded in sorted(changes):
            tag = changes[encoded]
            key = lo + encoded  # posting_key(keyword, encoded)
            if tag is not None:
                step = int(self._il.insert(key, tag))
            elif self._il.delete(key):
                step = -1
            else:
                continue
            floor = self._scan.floor_entry(key)
            if floor is None or floor[0] < lo:
                floor = (lo, b"")
            edits.setdefault(floor[0], [floor[1]]).append((encoded, tag, step))
        count = 0
        changed = False
        for block_key, (stored, *postings) in edits.items():
            block = stored
            for encoded, tag, step in postings:
                start, end = find_record(block, encoded)
                if (end > start) == (step > 0):
                    raise IndexFormatError(
                        f"scan tree out of step with the il tree for {keyword!r}"
                    )
                record = pack_block([encoded + tag]) if tag is not None else b""
                block = block[:start] + record + block[end:]
                count += step
                if keys is not None and step:
                    segment_key = self._key_layout.key_of_encoding(encoded)
                    at = bisect_left(keys, segment_key)
                    if step > 0:
                        keys.insert(at, segment_key)
                    else:
                        del keys[at]
            if block != stored:
                changed = True
                self._store_block(lo, block_key, block)
        self.frequency.set_count(keyword, self.frequency.frequency(keyword) + count)
        self._stale.discard(keyword)
        return count, changed

    def _store_block(self, lo: bytes, key: bytes, block: bytes) -> None:
        """Write *block* under *key*: over the budget it splits at the
        midpoint, the upper half keyed by its first posting's IL key (*lo*,
        the keyword's range bound, plus the encoding); empty, it goes."""
        mid = block_midpoint(block) if len(block) > self._budget else len(block)
        if mid < len(block):
            upper = block[mid:]
            self._store_block(lo, key, block[:mid])
            self._store_block(lo, lo + first_encoding(upper), upper)
        elif block:
            self._scan.insert(key, block)
        else:
            self._scan.delete(key)

    def _repair(self, keyword: str) -> None:
        """Re-derive everything kept in step with *keyword*'s IL run — its
        scan blocks, count and segment keys — in one pass over the run:
        what ``close()`` does for a keyword a failed call left behind."""
        lo, hi = keyword_range(keyword)
        for key in [key for key, _ in self._scan.scan(lo, hi)]:
            self._scan.delete(key)
        records = [key[len(lo):] + tag for key, tag in self._il.scan(lo, hi)]
        self._store_block(lo, lo, pack_block(records))
        self.frequency.set_count(keyword, len(records))
        if keyword in self._touched:
            key_of = self._key_layout.key_of_encoding
            self._touched[keyword] = array(
                self._key_layout.typecode, (key_of(record[:-2]) for record in records)
            )
        self._stale.discard(keyword)

    def _announce(self, event: str, count: int, changed: bool, keywords: int) -> None:
        """End a call: flush, then — if a stored value changed — bump the
        generation, which stales every cached query result (see
        :mod:`repro.index.generation`) and sends in-process readers to the
        trees the flush just made current."""
        self._postings_delta += count
        self._pager.flush()
        if changed:
            self._changed = True
            generation = bump_generation(self.index_dir)
            _log.info(event, postings=abs(count), keywords=keywords, generation=generation)

    # -- segments ------------------------------------------------------------------

    def _retire_segments(self) -> None:
        """Before the first tree write, move the segment file out of
        service and open it as the base.

        New readers then find no file and use the B+trees (open readers
        keep their mapping of it, stale-stamped by the generation bump),
        and the move doubles as this updater's claim on the file.  A
        ``.base`` already there was left by an updater that changed the
        trees and never closed: no file on disk reflects them any more,
        and it stays as that marker until a ``close()`` has rebuilt in full.
        """
        if self._retired or not self._writes_segments:
            return
        self._retired = True
        try:
            if os.path.exists(self._base_path):
                os.remove(self._segments_path)
                return
            os.replace(self._segments_path, self._base_path)
        except FileNotFoundError:
            return
        try:
            base = SegmentReader(self._base_path, self._key_layout)
        except (OSError, IndexFormatError):
            return
        # Stamped otherwise, it predates changes this updater knows nothing of.
        if base.generation == self._opened_generation:
            self._base = base
        else:
            base.close()

    def _segment_keys(self, keyword: str) -> Optional[array]:
        """*keyword*'s segment keys, for the edits to keep in step with
        its IL run: on the first touch, the base file's.  ``None`` without
        a trusted base (``close()`` then rebuilds from the IL tree)."""
        if self._base is None:
            return None
        keys = self._touched.get(keyword)
        if keys is None:
            keys = array(self._key_layout.typecode)
            if keyword in self._base:
                if self._base.corrupt_chunks(keyword):
                    # Copied as it is, the damage would leave the commit
                    # freshly checksummed: one bad list condemns the file.
                    _log.warning("segments_base_unusable", error=f"{keyword!r} fails its checksums")
                    self._base.close()
                    self._base = None
                    self._touched.clear()
                    return None
                keys.frombytes(self._base.keys(keyword).cast("B"))
            self._touched[keyword] = keys
        return keys

    def _il_keys(self, keyword: str) -> Iterable[int]:
        """One keyword's segment keys straight from the IL tree: its key
        suffixes are the packed encodings the keys are made of."""
        lo, hi = keyword_range(keyword)
        key_of = self._key_layout.key_of_encoding
        return (key_of(key[len(lo):]) for key, _ in self._il.scan(lo, hi))

    def _write_segments(self, generation: int) -> dict:
        """Write the segment file for *generation*; returns its manifest entry.

        Touched lists come from the keys the edits maintained, all others
        are copied out of the retired base file.  Without a base that can
        be trusted the file is rebuilt from the whole IL tree — the cold
        path.  Either way it lands by atomic rename: live readers keep
        their mapping of the old file and pick the new one up on their
        next generation-driven refresh.
        """
        self._retire_segments()
        by_bytes = str.encode  # the directory's order: keywords as UTF-8
        try:
            if self._base is not None:
                try:
                    return write_index_segments(
                        self.index_dir,
                        ((kw, self._touched[kw]) for kw in sorted(self._touched, key=by_bytes)),
                        generation,
                        self._key_layout,
                        self._base,
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
            if self._base is not None:
                self._base.close()
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
            # A call raised between its tree writes: finish its work, and
            # announce the writes it never got to announce.
            for keyword in sorted(self._stale):
                self._repair(keyword)
            self._changed = True
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
        if self._changed and os.path.exists(document_path):
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
