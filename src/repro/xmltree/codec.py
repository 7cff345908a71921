"""Order-preserving Dewey-number codecs.

The disk index stores Dewey numbers as byte strings whose bytewise order
must equal document order, and in which an ancestor's encoding must never
collide with a descendant's.  Two codecs are provided:

* :class:`PackedDeweyCodec` — the paper's scheme: fixed bit width per level
  from the :class:`~repro.xmltree.level_table.LevelTable`, components packed
  big-endian and the tail padded with zero bits to a byte boundary.  Each
  component is stored as ``ordinal + 1`` so a stored component is never the
  all-zero pattern; that makes the zero padding unambiguous, which gives both
  injectivity (parent vs. first child) and self-delimiting decode.
* :class:`VarintDeweyCodec` — a level-table-free alternative used for the
  codec ablation: each component is an order-preserving, prefix-free varint
  (single byte below 240, else a length-tagged big-endian integer).

Both satisfy, for all Dewey numbers ``a``, ``b``:
``encode(a) < encode(b)  iff  a < b`` (document order), and
``encode(a)`` is a prefix of ``encode(b)`` only if ``a`` is an
ancestor-or-self of ``b``.

:class:`KeyLayout` is the packed codec as a fixed-width **integer**: the
same bits, left-aligned in a 32- or 64-bit key, so document order is
integer order and the Dewey algebra (ancestor test, LCA) runs on machine
words without decoding — what the posting segments store and the SLCA
integer kernel computes on.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Tuple

from repro.errors import DeweyError
from repro.xmltree.dewey import DeweyTuple
from repro.xmltree.level_table import LevelTable


class DeweyCodec:
    """Interface shared by the codecs."""

    name = "abstract"

    def encode(self, dewey: DeweyTuple) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> DeweyTuple:
        raise NotImplementedError


class PackedDeweyCodec(DeweyCodec):
    """Level-table bit packing (paper Section 4)."""

    name = "packed"

    def __init__(self, table: LevelTable):
        self.table = table

    def encode(self, dewey: DeweyTuple) -> bytes:
        if not dewey or dewey[0] != 0:
            raise DeweyError(f"Dewey number must start with the root 0: {dewey!r}")
        self.table.check_fits(dewey)
        widths = self.table.widths
        acc = 0
        nbits = 0
        for level, component in enumerate(dewey[1:]):
            w = widths[level]
            acc = (acc << w) | (component + 1)
            nbits += w
        pad = (-nbits) % 8
        acc <<= pad
        nbits += pad
        return acc.to_bytes(nbits // 8, "big")

    def decode(self, data: bytes) -> DeweyTuple:
        widths = self.table.widths
        total_bits = len(data) * 8
        acc = int.from_bytes(data, "big")
        components: List[int] = [0]
        consumed = 0
        for w in widths:
            if total_bits - consumed < w:
                break
            shift = total_bits - consumed - w
            value = (acc >> shift) & ((1 << w) - 1)
            if value == 0:
                break  # zero padding: no further components
            components.append(value - 1)
            consumed += w
        # Whatever remains must be zero padding shorter than a byte would
        # have allowed; a nonzero remainder means corruption.
        if consumed < total_bits:
            remainder = acc & ((1 << (total_bits - consumed)) - 1)
            if remainder != 0:
                raise DeweyError(f"corrupt packed Dewey encoding: {data.hex()}")
        return tuple(components)


class KeyLayout:
    """Level-table-packed Dewey numbers as fixed-width integer keys.

    A key is the :class:`PackedDeweyCodec` bit string (each component
    stored as ``ordinal + 1`` in its level's width, zero-padded tail)
    left-aligned in ``bits`` = 32 or 64 bits::

        level widths [3, 7, 5, ...], 32-bit key
        bit 31..29   28..22   21..17   ...   low bits
            comp 1 | comp 2 | comp 3 | ... | zero padding

    Integer order is document order; an ancestor's key is its
    descendants' key under ``masks[depth]``; and the LCA of two keys is
    ``x & lca_masks[(x ^ y).bit_length()]`` — the highest differing bit
    names the first component the two disagree on, and the mask keeps the
    components above it.  Level tables wider than :data:`MAX_BITS` have
    no layout.
    """

    MAX_BITS = 64

    def __init__(self, table: LevelTable):
        total = table.max_dewey_bits
        if total > self.MAX_BITS:
            raise DeweyError(
                f"level table needs {total} bits; keys hold at most {self.MAX_BITS}"
            )
        self.bits = 32 if total <= 32 else 64
        #: ``array`` / ``memoryview.cast`` type code of one key.
        self.typecode = "I" if self.bits == 32 else "Q"
        shifts = []
        shift = self.bits
        for width in table.widths:
            shift -= width
            shifts.append(shift)
        #: (shift, largest stored value) per level, for pack/unpack loops.
        self._fields = tuple((s, (1 << w) - 1) for s, w in zip(shifts, table.widths))
        full = (1 << self.bits) - 1
        #: ``masks[d]`` keeps the first ``d`` components below the root.
        self.masks: Tuple[int, ...] = (0,) + tuple(full ^ ((1 << s) - 1) for s in shifts)
        #: ``level_of_bit[n]``: the component holding bit ``n - 1``, i.e.
        #: how many components two keys share when ``n`` is the bit length
        #: of their xor (0 → identical keys → all of them).
        level_of_bit = [len(shifts)] * (self.bits + 1)
        for level, (s, w) in enumerate(zip(shifts, table.widths)):
            for n in range(s + 1, s + w + 1):
                level_of_bit[n] = level
        self.level_of_bit: Tuple[int, ...] = tuple(level_of_bit)
        self.lca_masks: Tuple[int, ...] = tuple(self.masks[l] for l in level_of_bit)

    def pack(self, dewey: DeweyTuple) -> int:
        """The key of *dewey*; :class:`DeweyError` if it does not fit."""
        fields = self._fields
        if len(dewey) - 1 > len(fields):
            raise DeweyError(
                f"Dewey {dewey!r} is deeper than the level table ({len(fields)} levels)"
            )
        key = 0
        for component, (shift, limit) in zip(islice(dewey, 1, None), fields):
            if component >= limit:
                raise DeweyError(
                    f"component {component} of {dewey!r} exceeds its level-table width"
                )
            key |= (component + 1) << shift
        return key

    def unpack(self, key: int) -> DeweyTuple:
        components = [0]
        for shift, limit in self._fields:
            value = (key >> shift) & limit
            if not value:
                break
            components.append(value - 1)
        return tuple(components)

    def key_of_encoding(self, data: bytes) -> int:
        """The key of a :meth:`PackedDeweyCodec.encode` byte string."""
        return int.from_bytes(data, "big") << (self.bits - 8 * len(data))

    def depth(self, key: int) -> int:
        """Number of components below the root (the lowest set bit's level)."""
        return self.level_of_bit[(key & -key).bit_length()] + 1 if key else 0

    def lca(self, x: int, y: int) -> int:
        return x & self.lca_masks[(x ^ y).bit_length()]

    def is_ancestor_or_self(self, a: int, b: int) -> bool:
        return b & self.masks[self.depth(a)] == a


_VARINT_SINGLE_MAX = 239
_VARINT_MARKER_BASE = 240


class VarintDeweyCodec(DeweyCodec):
    """Order-preserving prefix-free varints, one per component.

    Components below 240 take a single byte; larger components take
    ``1 + blen`` bytes where the first byte ``240 + (blen - 1)`` encodes the
    big-endian byte length.  Ordering holds because every multi-byte marker
    exceeds every single-byte value and markers grow with magnitude.
    """

    name = "varint"

    def encode(self, dewey: DeweyTuple) -> bytes:
        if not dewey or dewey[0] != 0:
            raise DeweyError(f"Dewey number must start with the root 0: {dewey!r}")
        out = bytearray()
        for component in dewey[1:]:
            if component < 0:
                raise DeweyError(f"negative Dewey component in {dewey!r}")
            if component <= _VARINT_SINGLE_MAX:
                out.append(component)
            else:
                blen = (component.bit_length() + 7) // 8
                out.append(_VARINT_MARKER_BASE + blen - 1)
                out.extend(component.to_bytes(blen, "big"))
        return bytes(out)

    def decode(self, data: bytes) -> DeweyTuple:
        components: List[int] = [0]
        i = 0
        n = len(data)
        while i < n:
            first = data[i]
            i += 1
            if first <= _VARINT_SINGLE_MAX:
                components.append(first)
                continue
            blen = first - _VARINT_MARKER_BASE + 1
            if i + blen > n:
                raise DeweyError(f"truncated varint Dewey encoding: {data.hex()}")
            components.append(int.from_bytes(data[i:i + blen], "big"))
            i += blen
        return tuple(components)
