"""Packed posting segments: keyword lists as sorted integer Dewey keys.

The B+trees are the index's ground truth, but answering ``lm``/``rm``
through them costs a tree descent per probe.  This module adds a
read-optimized sidecar — one immutable **segment file**
(``segments.dat``) per index directory — that the hot path reads instead
whenever it is current:

* each keyword's list is one contiguous, sorted array of fixed-width
  **integer keys** (:class:`~repro.xmltree.codec.KeyLayout`: the paper's
  level-table-packed Dewey number, left-aligned in 32 or 64 bits), so
  integer order is document order and nothing is ever decoded to probe;
* the file is opened **zero-copy via mmap** and each list is exposed as a
  typed ``memoryview``: ``lm``/``rm`` are one C-level ``bisect`` over it,
  and parent threads and forked pool workers share one physical copy in
  the OS page cache;
* the header carries the index **generation** the segments were built
  from.  Readers use segments only while that matches the live
  generation (:mod:`repro.index.generation`); after an
  :class:`~repro.index.updates.IndexUpdater` bump they fall back to the
  B+trees transparently — results are byte-identical either way — until
  the updater's ``close()`` writes the next file (re-deriving the lists
  it touched, copying the rest from this one: :func:`write_segments`).

File layout, version 3 (header and directory integers big-endian; keys
and CRCs in the writer's native byte order, recorded in the flags)::

    header   magic "XKSG" | version u16 | flags u16 | generation u64
             | dir_offset u64 | dir_count u32 | key_bits u32
    keys     every keyword's keys, back to back (u32 or u64 each)
    crcs     one u32 per chunk of <= 128 keys, chunked per keyword,
             in the same order as the keys
    dir      (klen u16 | keyword utf-8 | count u32) x dir_count, at
             dir_offset; a keyword's first key and first CRC follow from
             the counts before it

Flags bit 0 names the CRC polynomial (:mod:`repro.robustness.checksum`),
bit 1 is set when the keys are little-endian.  An index whose level table
needs more than 64 bits, or that uses the ``varint`` codec, has no key
layout and therefore no segment file: the B+tree tier serves it.  Files
of an older version are refused (``IndexFormatError``) — the caller logs
it, serves from the B+trees, and the next commit rewrites the file.

A reader opened with ``verify_checksums`` re-checksums a list's chunks on
its first touch (a bisect reads across the whole list, so all of it must
be trusted before the first probe).  On a mismatch the whole file is
**quarantined**: the reader raises
:class:`~repro.errors.CorruptionError`, counts
``xks_corruption_detected_total{tier="segment"}``, and flags itself so
:meth:`~repro.index.inverted.DiskKeywordIndex.segments_active` routes
every later query to the B+trees (the ground truth; answers are
byte-identical).

:class:`PackedListSource` is the :class:`~repro.core.sources.MatchSource`
over one keyword's keys, in indexed (bisect) or cursor (Scan Eager)
mode; its counter accounting is identical to the in-memory sources', so
the paper's Table 1 cost profiles are preserved.  It also exposes the
raw keys, which lets :func:`~repro.core.indexed_lookup.eager_slca` run
its integer kernel without ever building a tuple per probe.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.counters import OpCounters
from repro.errors import CorruptionError, IndexFormatError
from repro.robustness import faultinject
from repro.robustness.checksum import (
    ALGORITHM,
    algorithm_flag,
    algorithm_from_flag,
    checksum,
    count_corruption,
)
from repro.storage.pager import open_readonly_mmap
from repro.xmltree.codec import KeyLayout
from repro.xmltree.dewey import DeweyTuple

SEGMENTS_NAME = "segments.dat"
SEGMENTS_VERSION = 3

#: Keys per checksummed chunk.
CHUNK_ENTRIES = 128

_MAGIC = b"XKSG"
_HEADER = struct.Struct(">4sHHQQII")
_DIR_ENTRY_HEAD = struct.Struct(">H")
_DIR_ENTRY_TAIL = struct.Struct(">I")
_FLAG_LITTLE_ENDIAN = 2


def segments_path(index_dir: os.PathLike) -> str:
    return os.path.join(os.fspath(index_dir), SEGMENTS_NAME)


def _chunk_count(entries: int) -> int:
    return -(-entries // CHUNK_ENTRIES)


# -- writer -------------------------------------------------------------------


def write_segments(
    path: str,
    keyword_keys: Iterable[Tuple[str, Iterable[int]]],
    generation: int,
    layout: KeyLayout,
    base: Optional["SegmentReader"] = None,
) -> int:
    """Write a segment file; returns the number of keywords written.

    ``keyword_keys`` yields ``(keyword, ascending keys)``; empty lists are
    skipped.  The file is written to a temporary sibling and atomically
    renamed into place, so live readers keep their mapping of the old
    inode and the swap is crash-safe.

    With *base* — a reader over the file this one replaces —
    ``keyword_keys`` names only the lists that changed, in ascending
    UTF-8 order (an empty list drops its keyword).  Every other list is
    lifted out of the base mapping as bytes, whole runs of neighbouring
    lists at a time: keys, directory entries and the **stored** CRC words,
    which are never recomputed, so damage in the base is carried along
    with the checksum that exposes it rather than blessed with a fresh
    one.  The result is byte-identical to writing all lists afresh.
    Raises :class:`~repro.errors.IndexFormatError`, before touching the
    disk, if *base* was not laid out the way this writer lays files out.
    """
    key_starts, crc_starts, dir_starts, names = (
        base.copy_table(layout) if base is not None else ([0], [0], [0], [])
    )
    tmp_path = path + ".tmp"
    chunk_bytes = CHUNK_ENTRIES * layout.bits // 8
    crcs = bytearray()
    directory = bytearray()
    dir_count = 0
    with open(tmp_path, "wb") as fh:
        fh.write(b"\x00" * _HEADER.size)

        def copy_lists(start: int, stop: int) -> None:
            """Lift base lists ``start <= i < stop`` verbatim."""
            nonlocal dir_count
            if start < stop:
                fh.write(base.raw_keys[key_starts[start]:key_starts[stop]])
                crcs.extend(base.raw_crcs[crc_starts[start]:crc_starts[stop]])
                directory.extend(base.raw_directory[dir_starts[start]:dir_starts[stop]])
                dir_count += stop - start

        copied = 0  # base lists before this one are written or dropped
        for keyword, keys in keyword_keys:
            kw_bytes = keyword.encode("utf-8")
            if names:
                at = bisect_left(names, kw_bytes, copied)
                copy_lists(copied, at)
                replaces = at < len(names) and names[at] == kw_bytes
                copied = at + 1 if replaces else at
            data = array(layout.typecode, keys).tobytes()
            if not data:
                continue
            fh.write(data)
            crcs += array(
                "I",
                (
                    checksum(data[start:start + chunk_bytes])
                    for start in range(0, len(data), chunk_bytes)
                ),
            ).tobytes()
            directory += _DIR_ENTRY_HEAD.pack(len(kw_bytes)) + kw_bytes
            directory += _DIR_ENTRY_TAIL.pack(len(data) * 8 // layout.bits)
            dir_count += 1
        copy_lists(copied, len(names))
        dir_offset = fh.tell() + len(crcs)
        fh.write(crcs)
        fh.write(directory)
        flags = algorithm_flag(ALGORITHM)
        if sys.byteorder == "little":
            flags |= _FLAG_LITTLE_ENDIAN
        fh.seek(0)
        fh.write(
            _HEADER.pack(
                _MAGIC, SEGMENTS_VERSION, flags, generation,
                dir_offset, dir_count, layout.bits,
            )
        )
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    return dir_count


def write_index_segments(
    index_dir: os.PathLike,
    keyword_keys: Iterable[Tuple[str, Iterable[int]]],
    generation: int,
    layout: KeyLayout,
    base: Optional["SegmentReader"] = None,
) -> dict:
    """:func:`write_segments` into *index_dir*'s segment file; returns the
    manifest's ``"segments"`` entry describing what was written."""
    write_segments(segments_path(index_dir), keyword_keys, generation, layout, base)
    return {
        "version": SEGMENTS_VERSION,
        "generation": generation,
        "key_bits": layout.bits,
    }


def stored_version(path: str) -> Optional[int]:
    """The format version in a segment file's header (``None`` if unreadable)."""
    try:
        with open(path, "rb") as fh:
            magic, version = struct.unpack(">4sH", fh.read(6))
    except (OSError, struct.error):
        return None
    return version if magic == _MAGIC else None


# -- reader -------------------------------------------------------------------


class SegmentReader:
    """A segment file opened zero-copy for reading.

    Thread-safe in the same sense as the rest of the read path: the
    mapping is immutable and every list is handed out as a read-only
    ``memoryview`` slice of it.
    """

    def __init__(self, path: str, layout: KeyLayout, verify_checksums: bool = False):
        self.path = path
        self.layout = layout
        try:
            view = memoryview(open_readonly_mmap(path))
            magic, version, flags, generation, dir_offset, dir_count, key_bits = (
                _HEADER.unpack_from(view, 0)
            )
        except (ValueError, struct.error):  # ValueError: an empty file cannot be mapped
            raise IndexFormatError(f"segment file {path} is truncated") from None
        if magic != _MAGIC:
            raise IndexFormatError(f"segment file {path} has bad magic {magic!r}")
        if version != SEGMENTS_VERSION:
            raise IndexFormatError(
                f"segment format version {version} is obsolete "
                f"(this build reads version {SEGMENTS_VERSION} only)"
            )
        if key_bits != layout.bits or bool(flags & _FLAG_LITTLE_ENDIAN) != (
            sys.byteorder == "little"
        ):
            raise IndexFormatError(
                f"segment file {path} holds {key_bits}-bit keys in a layout "
                "this index/machine cannot map"
            )
        self.version = version
        self.generation = generation
        self.checksum_algorithm = algorithm_from_flag(flags & 1)
        self.verify_checksums = verify_checksums
        self.quarantined = False
        #: keyword -> (first key index, key count, first chunk index)
        self._directory: Dict[str, Tuple[int, int, int]] = {}
        self._verified = set()
        pos = dir_offset
        first_key = first_chunk = 0
        try:
            for _ in range(dir_count):
                (klen,) = _DIR_ENTRY_HEAD.unpack_from(view, pos)
                pos += _DIR_ENTRY_HEAD.size
                keyword = bytes(view[pos:pos + klen]).decode("utf-8")
                pos += klen
                (count,) = _DIR_ENTRY_TAIL.unpack_from(view, pos)
                pos += _DIR_ENTRY_TAIL.size
                self._directory[keyword] = (first_key, count, first_chunk)
                first_key += count
                first_chunk += _chunk_count(count)
        except (struct.error, UnicodeDecodeError):
            raise IndexFormatError(f"segment directory of {path} is corrupt") from None
        crc_offset = _HEADER.size + first_key * key_bits // 8
        if crc_offset + 4 * first_chunk != dir_offset or pos > len(view):
            raise IndexFormatError(f"segment directory of {path} is corrupt")
        #: The three sections as stored bytes (what a rewrite copies).
        self.raw_keys = view[_HEADER.size:crc_offset]
        self.raw_crcs = view[crc_offset:dir_offset]
        self.raw_directory = view[dir_offset:pos]
        self._keys = self.raw_keys.cast(layout.typecode)
        self._crcs = self.raw_crcs.cast("I")

    # -- catalogue -----------------------------------------------------------

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._directory

    def count(self, keyword: str) -> int:
        entry = self._directory.get(keyword)
        return entry[1] if entry is not None else 0

    def keywords(self) -> List[str]:
        return sorted(self._directory)

    def copy_table(self, layout: KeyLayout) -> Tuple[List[int], List[int], List[int], List[bytes]]:
        """Where each list sits, for :func:`write_segments` to copy from.

        Returns ``(key_starts, crc_starts, dir_starts, names)``: the lists'
        keywords as UTF-8 in file order, and for list ``i`` the byte
        offset of its keys, CRC words and directory entry within
        ``raw_keys`` / ``raw_crcs`` / ``raw_directory`` (each with one
        closing entry, the section's length).  Raises
        :class:`~repro.errors.IndexFormatError` if copying would not
        reproduce what the writer emits: another key width or CRC
        polynomial, or lists not in ascending keyword order.
        """
        names = [keyword.encode("utf-8") for keyword in self._directory]
        if (
            layout.bits != self.layout.bits
            or self.checksum_algorithm != ALGORITHM
            or any(a >= b for a, b in zip(names, names[1:]))
        ):
            raise IndexFormatError(
                f"segment file {self.path} is not laid out as this writer would"
            )
        width = layout.bits // 8
        entries = self._directory.values()
        return (
            [first * width for first, _, _ in entries] + [self.raw_keys.nbytes],
            [4 * chunk for _, _, chunk in entries] + [self.raw_crcs.nbytes],
            list(
                accumulate(
                    (_DIR_ENTRY_HEAD.size + len(name) + _DIR_ENTRY_TAIL.size for name in names),
                    initial=0,
                )
            ),
            names,
        )

    def byte_offset(self, keyword: str) -> int:
        """File offset of *keyword*'s first key (for corruption drills)."""
        return _HEADER.size + self._directory[keyword][0] * self.layout.bits // 8

    # -- list access ---------------------------------------------------------

    def keys(self, keyword: str) -> memoryview:
        """One keyword's sorted keys, zero-copy.

        Under ``verify_checksums`` the list's chunks are re-checksummed
        the first time it is touched; the ``delay-io`` and
        ``corrupt-block`` fault points fire here.
        """
        try:
            first, count, _ = self._directory[keyword]
        except KeyError:
            raise KeyError(f"keyword {keyword!r} has no segment") from None
        faultinject.maybe_delay("delay-io")
        injected = faultinject.fire("corrupt-block") is not None
        if injected or (self.verify_checksums and keyword not in self._verified):
            bad = self.corrupt_chunks(keyword, flip_first=injected)
            if bad:
                raise self._quarantine(keyword, bad[0])
            self._verified.add(keyword)
        return self._keys[first:first + count]

    def corrupt_chunks(self, keyword: str, flip_first: bool = False) -> List[int]:
        """Indexes of *keyword*'s chunks whose bytes fail their stored CRC.

        ``flip_first`` checks a bit-flipped copy of the first chunk instead
        of what the mapping holds (the ``corrupt-block`` fault).
        """
        first, count, first_chunk = self._directory[keyword]
        data = self._keys[first:first + count].cast("B")
        step = CHUNK_ENTRIES * self.layout.bits // 8
        bad = []
        for n in range(_chunk_count(count)):
            chunk = data[n * step:(n + 1) * step]
            if flip_first and n == 0:
                chunk = faultinject.corrupt_bytes(bytes(chunk))
            if checksum(chunk, self.checksum_algorithm) != self._crcs[first_chunk + n]:
                bad.append(n)
        return bad

    def _quarantine(self, keyword: str, chunk: int) -> CorruptionError:
        """Flag the whole file unusable and build the error to raise.

        One bad chunk condemns the file: the writer produced it in a
        single pass, so damage is evidence about the medium, not the
        chunk.  ``segments_active`` routes all later queries to the
        B+trees; the current query's engine retries against them too.
        """
        self.quarantined = True
        count_corruption("segment")
        return CorruptionError(
            f"segment block {keyword!r}#{chunk} of {self.path}: checksum mismatch",
            tier="segment",
        )

    def scan(self, keyword: str) -> Iterator[DeweyTuple]:
        """All of a keyword's ids in ascending order, as Dewey tuples."""
        return map(self.layout.unpack, self.keys(keyword))

    # -- observability -------------------------------------------------------

    def stats_dict(self) -> dict:
        return {
            "keywords": len(self._directory),
            "generation": self.generation,
            "version": self.version,
            "key_bits": self.layout.bits,
            "verify_checksums": self.verify_checksums,
            "quarantined": self.quarantined,
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop this reader's hold on the mapping.

        ``mmap.close()`` raises ``BufferError`` while any query still
        holds a view of a list, so the mapping is never closed by hand:
        it is unmapped when the last view of it is released.
        """
        self._keys = self._crcs = None
        self.raw_keys = self.raw_crcs = self.raw_directory = None

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_index_segments(
    index_dir: os.PathLike, verify_checksums: bool = False
) -> Optional[SegmentReader]:
    """A reader over *index_dir*'s segment file, or ``None`` when the
    index has none (no file, or no integer-key layout to read it with).
    Raises :class:`~repro.errors.IndexFormatError` for an unreadable or
    obsolete file."""
    # Imported lazily: the builder imports this module to write segments.
    from repro.index.builder import key_layout, load_level_table, load_manifest

    layout = key_layout(load_manifest(index_dir)["codec"], load_level_table(index_dir))
    path = segments_path(index_dir)
    if layout is None or not os.path.exists(path):
        return None
    return SegmentReader(path, layout, verify_checksums)


# -- match source -------------------------------------------------------------


class PackedListSource:
    """The segment-backed :class:`~repro.core.sources.MatchSource`.

    Tuple in, tuple out: a probe is packed to a key, located with one
    ``bisect`` over the mapped keys, and the hit unpacked.  With
    ``cursor=True`` the bisect starts at a forward cursor and the source
    counts ``cursor_advances`` / ``cursor_reseeks`` exactly as
    :class:`~repro.core.sources.CursorListSource` does (Scan Eager);
    otherwise it is IL's indexed source, one ``lm_op``/``rm_op`` per probe.

    ``keys``, ``layout`` and ``cursor`` are public: a loop handed only
    such sources can work on the keys directly (``eager_slca`` does).
    A probe that does not fit the level table raises
    :class:`~repro.errors.DeweyError`, as the B+tree source does.
    """

    def __init__(
        self,
        reader: SegmentReader,
        keyword: str,
        counters: Optional[OpCounters] = None,
        cursor: bool = False,
    ):
        self.keys = reader.keys(keyword)
        self.layout = reader.layout
        self.cursor = cursor
        self._position = 0
        self.counters = counters if counters is not None else OpCounters()

    def _seek(self, key: int) -> int:
        """Index of the smallest stored key ``>= key``."""
        keys = self.keys
        if not self.cursor:
            return bisect_left(keys, key)
        position = self._position
        if position and keys[position - 1] >= key:
            # The probe regressed behind the cursor: search the passed
            # prefix without moving the cursor back.
            self.counters.cursor_reseeks += 1
            return bisect_left(keys, key, 0, position)
        i = bisect_left(keys, key, position)
        self.counters.cursor_advances += i - position
        self._position = i
        return i

    def lm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        self.counters.lm_ops += 1
        key = self.layout.pack(v)
        i = self._seek(key)
        keys = self.keys
        if i < len(keys) and keys[i] == key:
            return v
        return self.layout.unpack(keys[i - 1]) if i else None

    def rm(self, v: DeweyTuple) -> Optional[DeweyTuple]:
        self.counters.rm_ops += 1
        i = self._seek(self.layout.pack(v))
        keys = self.keys
        return self.layout.unpack(keys[i]) if i < len(keys) else None

    def scan(self) -> Iterator[DeweyTuple]:
        return map(self.layout.unpack, self.keys)

    def __len__(self) -> int:
        return len(self.keys)
