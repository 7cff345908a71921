"""Order-preserving record encodings for the index B+trees.

The IL index keys every posting with ``keyword ⊕ dewey`` (the paper's
Figure 5: keywords are the primary key, Dewey numbers the secondary key).
The scan index (Figure 4) keys each block of a keyword's list with the
same composite, as a B+tree-style *separator*: a keyword's first block is
built under the lower bound of :func:`keyword_range`, every later block
under the :func:`posting_key` of the posting that was its first when the
block was created.  So ``block key <= its first posting < next block's
key`` — the block a posting belongs in is the floor of its IL key — while
a range scan of ``keyword_range`` still yields the list's blocks in
order, which is all a reader relies on.

The composites must compare bytewise in (keyword, suffix) order, which
holds because keywords are NUL-free and the separator is a single NUL
byte: no keyword is a prefix of another *plus separator*, and within one
keyword the suffix (an order-preserving Dewey encoding) decides.

A block's value is a run of length-prefixed records, each a Dewey
encoding followed by two context-tag bytes; :func:`find_record`,
:func:`block_midpoint` and :func:`first_encoding` let the updater edit
and split one in place.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import IndexFormatError

_SEP = b"\x00"


def encode_keyword(keyword: str) -> bytes:
    """Keyword → key-prefix bytes (validates NUL-freedom)."""
    raw = keyword.encode("utf-8")
    if b"\x00" in raw:
        raise IndexFormatError(f"keyword may not contain NUL bytes: {keyword!r}")
    if not raw:
        raise IndexFormatError("keyword may not be empty")
    return raw


def posting_key(keyword: str, dewey_bytes: bytes) -> bytes:
    """Composite key for one posting in the IL tree."""
    return encode_keyword(keyword) + _SEP + dewey_bytes


def split_posting_key(key: bytes) -> Tuple[str, bytes]:
    """Inverse of :func:`posting_key`."""
    sep = key.find(_SEP)
    try:
        if sep >= 0:
            return key[:sep].decode("utf-8"), key[sep + 1:]
    except UnicodeDecodeError:
        pass
    raise IndexFormatError(f"malformed posting key: {key!r}")


def keyword_range(keyword: str) -> Tuple[bytes, bytes]:
    """Half-open key interval [lo, hi) covering all postings of *keyword*."""
    prefix = encode_keyword(keyword)
    return prefix + _SEP, prefix + b"\x01"


def pack_tagged_block(entries: list) -> bytes:
    """Pack (dewey encoding, tag id) pairs into one block value.

    Each record is length-prefixed; the last two bytes of a record are the
    big-endian context-tag id, the rest the Dewey encoding.
    """
    return pack_block([enc + tag_id.to_bytes(2, "big") for enc, tag_id in entries])


def unpack_tagged_block(data: bytes) -> list:
    """Inverse of :func:`pack_tagged_block`: list of (encoding, tag id)."""
    out = []
    for record in unpack_block(data):
        if len(record) < 2:
            raise IndexFormatError("tagged block record too short")
        out.append((record[:-2], int.from_bytes(record[-2:], "big")))
    return out


def find_record(block: bytes, encoding: bytes) -> Tuple[int, int]:
    """The byte span of *encoding*'s record in a tagged block: ``(start,
    end)`` of the record holding exactly *encoding*, or the empty span
    ``(start, start)`` at the offset where it belongs."""
    pos = 0
    while pos < len(block):
        end = pos + 1 + block[pos]
        found = block[pos + 1:end - 2]
        if found >= encoding:
            return pos, end if found == encoding else pos
        pos = end
    return pos, pos


def first_encoding(block: bytes) -> bytes:
    """The Dewey encoding of a non-empty tagged block's first record."""
    return block[1:block[0] - 1]


def block_midpoint(block: bytes) -> int:
    """The first record boundary at or past the byte midpoint that leaves
    a record on both sides; ``len(block)`` when there is just one record."""
    pos = 1 + block[0]
    while pos < len(block) // 2 and pos + 1 + block[pos] < len(block):
        pos += 1 + block[pos]
    return pos


def pack_block(dewey_encodings: list) -> bytes:
    """Concatenate Dewey encodings with one-byte length prefixes."""
    parts = []
    for enc in dewey_encodings:
        if len(enc) > 255:
            raise IndexFormatError(f"Dewey encoding too long for a block: {len(enc)} bytes")
        parts.append(bytes([len(enc)]))
        parts.append(enc)
    return b"".join(parts)


def unpack_block(data: bytes) -> list:
    """Inverse of :func:`pack_block`."""
    out = []
    i = 0
    n = len(data)
    while i < n:
        length = data[i]
        i += 1
        if i + length > n:
            raise IndexFormatError("truncated Dewey block")
        out.append(data[i:i + length])
        i += length
    return out
