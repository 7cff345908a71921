"""Index builder: document → on-disk XKSearch index.

Mirrors the architecture of Figure 6 in the paper: the *LevelTableBuilder*
derives the level table from the document, the *inverted index builder*
emits one keyword list per keyword into the B+tree structures, and a
*frequency table* records list sizes for query planning.

Two B+trees are bulk-loaded into one pager file:

* ``il`` — one entry per posting, keyed ``keyword ⊕ packed-dewey``
  (Figure 5); this is what Indexed Lookup Eager's match lookups descend;
* ``scan`` — per-keyword runs of *blocks*, each block one B+tree value
  packing many compressed Dewey numbers (Figure 4), keyed by the IL key
  of its first posting; this is what Scan Eager and Stack read
  sequentially.

The builder accepts either a parsed :class:`XMLTree` or raw keyword lists
(the virtual workloads of the experiment harness build lists directly,
skipping tree materialization at the 100 000-posting scale).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import IndexFormatError
from repro.index.frequency import FrequencyTable
from repro.index.generation import seed_generation
from repro.index.segments import segments_path, write_index_segments
from repro.obs.logging import get_logger
from repro.storage.bptree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import DEFAULT_PAGE_SIZE, Pager
from repro.storage.records import keyword_range, pack_tagged_block, posting_key
from repro.xmltree.codec import (
    DeweyCodec,
    KeyLayout,
    PackedDeweyCodec,
    VarintDeweyCodec,
)
from repro.xmltree.dewey import DeweyTuple
from repro.xmltree.level_table import LevelTable
from repro.xmltree.serialize import serialize
from repro.xmltree.tree import XMLTree

MANIFEST_NAME = "manifest.json"
LEVEL_TABLE_NAME = "level_table.json"
FREQUENCY_NAME = "frequency.json"
TAGS_NAME = "tags.json"
INDEX_FILE_NAME = "index.db"
DOCUMENT_NAME = "document.xml"
#: 3: prefix-truncated slotted B+tree leaves (:mod:`repro.storage.bptree`);
#: older indexes hold an older leaf format and are refused, to be rebuilt.
FORMAT_VERSION = 3

_log = get_logger("index")

#: Tag id reserved for postings without a known context tag (e.g. indexes
#: built from raw keyword lists).
UNTAGGED = 0

CODECS = ("packed", "varint")


def make_codec(name: str, level_table: LevelTable) -> DeweyCodec:
    """Instantiate the Dewey codec recorded in a manifest."""
    if name == "packed":
        return PackedDeweyCodec(level_table)
    if name == "varint":
        return VarintDeweyCodec()
    raise IndexFormatError(f"unknown Dewey codec {name!r}; expected one of {CODECS}")


def key_layout(codec: str, level_table: LevelTable) -> Optional[KeyLayout]:
    """The integer-key layout the posting segments use, or ``None`` when
    the index cannot have segments: the ``varint`` codec has no fixed-width
    form, and a level table wider than 64 bits overflows the key.  Such
    indexes are served by the B+tree tier."""
    if codec != "packed" or level_table.max_dewey_bits > KeyLayout.MAX_BITS:
        return None
    return KeyLayout(level_table)


@dataclass
class IndexBuildReport:
    """Summary statistics returned by :func:`build_index`."""

    keywords: int
    postings: int
    pages: int
    page_size: int
    il_height: int
    scan_height: int
    codec: str

    @property
    def bytes_on_disk(self) -> int:
        return self.pages * self.page_size


def build_index(
    source: Union[XMLTree, Mapping[str, Sequence[DeweyTuple]]],
    index_dir: Union[str, os.PathLike],
    page_size: int = DEFAULT_PAGE_SIZE,
    codec: str = "packed",
    level_table: Optional[LevelTable] = None,
    keep_document: bool = True,
    scan_block_budget: Optional[int] = None,
    segments: bool = True,
) -> IndexBuildReport:
    """Build a complete XKSearch index directory.

    ``source`` is a parsed document or a keyword-list mapping.  The level
    table is derived from the document (or from the Dewey numbers
    themselves) unless given explicitly.  With ``keep_document`` and a tree
    source, the document text is stored alongside the index so search
    results can be rendered as XML snippets.

    With ``segments`` (the default) the builder additionally emits the
    packed posting-segment sidecar (:mod:`repro.index.segments`) — the
    zero-copy fast path for ``lm``/``rm``/``scan`` — stamped with the
    directory's current generation; the B+trees remain ground truth.
    Indexes without an integer-key layout (:func:`key_layout`) get none.
    """
    index_dir = os.fspath(index_dir)
    os.makedirs(index_dir, exist_ok=True)

    # Normalize the source into tagged postings: kw -> [(dewey, tag id)],
    # plus the tag dictionary (id 0 = untagged).
    tag_ids: Dict[str, int] = {"": UNTAGGED}
    tagged: Dict[str, List[Tuple[DeweyTuple, int]]] = {}
    if isinstance(source, XMLTree):
        for keyword, plist in source.keyword_postings().items():
            tagged[keyword] = [
                (dewey, tag_ids.setdefault(tag, len(tag_ids))) for dewey, tag in plist
            ]
        if level_table is None:
            level_table = LevelTable.from_tree(source)
        document_text: Optional[str] = serialize(source.root) if keep_document else None
    else:
        for keyword, lst in source.items():
            tagged[keyword] = [(dewey, UNTAGGED) for dewey in lst]
        if level_table is None:
            level_table = LevelTable.from_deweys(
                dewey for plist in tagged.values() for dewey, _ in plist
            )
        document_text = None

    dewey_codec = make_codec(codec, level_table)
    frequency = FrequencyTable.from_lists(tagged)
    # Every structure below stores the same encodings (order-preserving,
    # so sortedness is checked on them): encode each posting once.
    encoded: Dict[str, List[Tuple[bytes, int]]] = {}
    for keyword in sorted(tagged, key=lambda kw: kw.encode("utf-8")):
        plist = [(dewey_codec.encode(dewey), tag_id) for dewey, tag_id in tagged[keyword]]
        if any(plist[i][0] >= plist[i + 1][0] for i in range(len(plist) - 1)):
            raise IndexFormatError(
                f"keyword list for {keyword!r} is not strictly sorted"
            )
        encoded[keyword] = plist

    index_path = os.path.join(index_dir, INDEX_FILE_NAME)
    with Pager(index_path, page_size=page_size, create=True) as pager:
        pool = BufferPool(pager, capacity=4096)
        il_tree = BPlusTree(pool, "il")
        postings = il_tree.bulk_load(_iter_posting_entries(encoded))
        scan_tree = BPlusTree(pool, "scan")
        budget = scan_block_budget or _default_block_budget(page_size)
        scan_tree.bulk_load(_iter_block_entries(encoded, budget))
        report = IndexBuildReport(
            keywords=len(frequency),
            postings=postings,
            pages=pager.num_pages,
            page_size=page_size,
            il_height=il_tree.height,
            scan_height=scan_tree.height,
            codec=codec,
        )
        pager.sync()

    with open(os.path.join(index_dir, LEVEL_TABLE_NAME), "w", encoding="utf-8") as fh:
        fh.write(level_table.to_json())
    frequency.save(os.path.join(index_dir, FREQUENCY_NAME))
    tag_list = [tag for tag, _ in sorted(tag_ids.items(), key=lambda kv: kv[1])]
    with open(os.path.join(index_dir, TAGS_NAME), "w", encoding="utf-8") as fh:
        json.dump(tag_list, fh)
    manifest = {
        "version": FORMAT_VERSION,
        "codec": codec,
        "page_size": page_size,
        "keywords": report.keywords,
        "postings": report.postings,
        "has_document": document_text is not None,
    }
    layout = key_layout(codec, level_table) if segments else None
    if layout is not None:
        generation = seed_generation(index_dir, 0)
        manifest["generation"] = generation
        key_of = layout.key_of_encoding
        manifest["segments"] = write_index_segments(
            index_dir,
            ((kw, (key_of(enc) for enc, _ in plist)) for kw, plist in encoded.items()),
            generation,
            layout,
        )
    elif os.path.exists(segments_path(index_dir)):
        # A rebuild into a directory that had segments must not leave a
        # file behind that could pass for this index's.
        os.remove(segments_path(index_dir))
    with open(os.path.join(index_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    if document_text is not None:
        with open(os.path.join(index_dir, DOCUMENT_NAME), "w", encoding="utf-8") as fh:
            fh.write(document_text)
    _log.info(
        "index_built",
        index_dir=os.fspath(index_dir),
        keywords=report.keywords,
        postings=report.postings,
        pages=report.pages,
        codec=report.codec,
    )
    return report


def _default_block_budget(page_size: int) -> int:
    """Byte budget for one scan block: most of a page, leaving room for the
    leaf header, the composite key and the entry framing."""
    return max(64, page_size - 160)


def _iter_posting_entries(
    encoded: Mapping[str, Sequence[Tuple[bytes, int]]],
) -> Iterator[Tuple[bytes, bytes]]:
    """IL-tree entries from ``keyword -> [(dewey encoding, tag id)]``
    (keywords already in key order)."""
    for keyword, plist in encoded.items():
        for dewey_bytes, tag_id in plist:
            yield posting_key(keyword, dewey_bytes), tag_id.to_bytes(2, "big")


def _iter_block_entries(
    encoded_lists: Mapping[str, Sequence[Tuple[bytes, int]]],
    budget: int,
) -> Iterator[Tuple[bytes, bytes]]:
    for keyword, plist in encoded_lists.items():
        # A block is keyed by its first posting's IL key; the list's first
        # block by the bound below all of them, so every posting has a floor.
        key = keyword_range(keyword)[0]
        block: List[Tuple[bytes, int]] = []
        block_bytes = 0
        for encoded, tag_id in plist:
            entry_bytes = len(encoded) + 3  # length prefix + 2 tag bytes
            if block and block_bytes + entry_bytes > budget:
                yield key, pack_tagged_block(block)
                key = posting_key(keyword, encoded)
                block = []
                block_bytes = 0
            block.append((encoded, tag_id))
            block_bytes += entry_bytes
        if block:
            yield key, pack_tagged_block(block)


def load_level_table(index_dir: Union[str, os.PathLike]) -> LevelTable:
    """Read an index directory's level table."""
    path = os.path.join(os.fspath(index_dir), LEVEL_TABLE_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return LevelTable.from_json(fh.read())
    except FileNotFoundError:
        from repro.errors import IndexNotFoundError

        raise IndexNotFoundError(f"missing level table at {path}") from None


def load_manifest(index_dir: Union[str, os.PathLike]) -> Dict:
    """Read and validate an index directory's manifest."""
    path = os.path.join(os.fspath(index_dir), MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        from repro.errors import IndexNotFoundError

        raise IndexNotFoundError(f"no index manifest at {path}") from None
    version = manifest.get("version")
    if isinstance(version, int) and version < FORMAT_VERSION:
        raise IndexFormatError(
            f"index at {os.fspath(index_dir)} (format version {version}) predates "
            f"the current page format (version {FORMAT_VERSION}); rebuild it "
            "from its document with `xksearch build`"
        )
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"index format version {version} is not supported")
    return manifest
