"""Disk-based B+tree over byte-string keys.

This replaces the BerkeleyDB B-trees of the paper's XKSearch implementation.
Keys and values are arbitrary byte strings; key order is plain bytewise
comparison, which is why the Dewey codecs guarantee bytewise order equals
document order.

Supported operations map one-to-one onto what the algorithms need:

* ``search`` — exact lookup,
* ``floor_entry`` / ``ceiling_entry`` — the disk versions of the paper's
  ``lm`` (left match) and ``rm`` (right match),
* ``scan`` — ordered iteration over a key range through the chained leaves
  (what Scan Eager and Stack read),
* ``insert`` — incremental insertion with node splits,
* ``bulk_load`` — build from a sorted stream with consecutive leaf pages,
  so that full-list scans are classified as sequential I/O,
* ``internal_page_ids`` — so the index layer can pin non-leaf pages,
  realizing the paper's "non-leaf nodes are cached" disk-cost assumption.

Page layout (both node kinds start with ``type:u8, nkeys:u16``; every
integer is big-endian):

* leaf (slotted, prefix-truncated): ``next_leaf:u32, plen:u16``; the
  prefix every key on the page shares, ``cpl(first key, last key)``,
  stored once (Bayer & Unterauer's prefix B-trees); the directory —
  ``nkeys+1`` ``u16`` record-end offsets (the first is 0) and ``nkeys``
  ``u16`` key-suffix lengths; the ``suffix‖value`` records, contiguous and
  in key order.  Record ``i`` is ``records[end[i]:end[i+1]]``, its key the
  prefix plus its first ``klen[i]`` bytes.  A lookup compares the probe
  with the prefix once and bisects the suffixes in place; an edit that
  keeps ``cpl`` splices the page (header, directory with the later offsets
  shifted, records before, new record, records after), one that moves it
  repacks the page.  A leaf is always exactly ``_LeafNode.pack`` of its
  entries, and every API hands out full keys.
* internal: ``(nkeys+1) * child:u32`` then per key ``klen:u16, key``
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PageError, TreeCorruptError
from repro.storage.buffer_pool import BufferPool

_LEAF = 1
_INTERNAL = 0
_LEAF_HEADER = 1 + 2 + 4 + 2
_EMPTY_LEAF = _LEAF_HEADER + 2  # header + the first record offset
_INTERNAL_HEADER = 1 + 2
_SWAP_U16 = sys.byteorder == "little"

Entry = Tuple[bytes, bytes]


def _shift_u16s(raw: bytes, delta: int) -> bytes:
    """*raw*'s big-endian ``u16``s, each plus *delta*: every result is an
    in-page offset, so one big-integer addition carries across no lane."""
    lanes = int.from_bytes(b"\x00\x01" * (len(raw) // 2), "big")
    return (int.from_bytes(raw, "big") + delta * lanes).to_bytes(len(raw), "big")


def _cpl(a: bytes, b: bytes) -> int:
    """Length of the common prefix of *a* and *b*: the highest set bit of
    their XOR marks the first byte that differs."""
    n = min(len(a), len(b))
    diff = int.from_bytes(a[:n], "big") ^ int.from_bytes(b[:n], "big")
    return n - (diff.bit_length() + 7) // 8


def _packed_size(entries: Sequence[Entry]) -> int:
    """Length of ``_LeafNode.pack(entries, ...)``, without packing."""
    plen = _cpl(entries[0][0], entries[-1][0]) if entries else 0
    return _EMPTY_LEAF + plen + sum(len(k) + len(v) + 4 - plen for k, v in entries)


class _LeafNode:
    """A slotted leaf, read in place: the page bytes (the buffer pool's own
    object, not a copy), the key prefix, and the directory as two arrays.

    Indexing a leaf yields its key *suffixes* — ``leaf[i]``, ``len(leaf)``
    — so ``bisect`` runs over the page itself (``bisect(key=)`` needs
    3.10); :meth:`bisect` maps a full probe key onto them.
    """

    __slots__ = ("page", "next_leaf", "prefix", "ends", "klens", "base")

    def __init__(self, page: bytes):
        nkeys = int.from_bytes(page[1:3], "big")
        ends_at = _LEAF_HEADER + int.from_bytes(page[7:9], "big")
        self.base = base = ends_at + 2 + 4 * nkeys
        if base > len(page):
            raise TreeCorruptError(f"leaf prefix and {nkeys}-entry directory overrun their page")
        self.page = page
        self.next_leaf = int.from_bytes(page[3:7], "big")
        self.prefix = page[_LEAF_HEADER:ends_at]
        # The directory, big-endian on the page, in one C-level copy each.
        self.ends = array("H", page[ends_at:ends_at + 2 + 2 * nkeys])
        self.klens = array("H", page[ends_at + 2 + 2 * nkeys:base])
        if _SWAP_U16:
            self.ends.byteswap()
            self.klens.byteswap()
        if base + self.ends[nkeys] > len(page):
            raise TreeCorruptError("leaf records overrun their page")

    @classmethod
    def pack(cls, entries: Sequence[Entry], next_leaf: int) -> "_LeafNode":
        plen = _cpl(entries[0][0], entries[-1][0]) if entries else 0
        records = [key[plen:] + value for key, value in entries]
        ends = list(accumulate(map(len, records), initial=0))
        return cls(b"".join((
            struct.pack(">BHIH", _LEAF, len(entries), next_leaf, plen),
            entries[0][0][:plen] if entries else b"",
            struct.pack(f">{len(ends)}H{len(records)}H", *ends,
                        *[len(key) - plen for key, _ in entries]),
            *records,
        )))

    def __len__(self) -> int:
        return len(self.klens)

    def __getitem__(self, i: int) -> bytes:
        start = self.base + self.ends[i]
        return self.page[start:start + self.klens[i]]

    def bisect(self, key: bytes, right: bool = False) -> int:
        """``bisect_left`` (or ``_right``) of *key* among the full keys.
        Every key starts with the prefix, so a probe that does not lies
        before all of them or after all of them."""
        prefix = self.prefix
        if key.startswith(prefix):
            return (bisect_right if right else bisect_left)(self, key[len(prefix):])
        return 0 if key < prefix else len(self.klens)

    def entry(self, i: int) -> Entry:
        start = self.base + self.ends[i]
        split = start + self.klens[i]
        return self.prefix + self.page[start:split], self.page[split:self.base + self.ends[i + 1]]

    def entries(self) -> List[Entry]:
        page, base, ends, prefix = self.page, self.base, self.ends, self.prefix
        return [
            (prefix + page[base + start:base + start + klen], page[base + start + klen:base + end])
            for start, klen, end in zip(ends, self.klens, ends[1:])
        ]

    def encode(self) -> bytes:
        return self.page

    def keeps_prefix(self, i: int, j: int, key: Optional[bytes]) -> bool:
        """Whether replacing entries ``[i, j)`` by one under *key* (none if
        ``None``) leaves ``cpl(first, last)`` — the stored prefix — as is:
        an insert within the prefix of a non-empty leaf, or a delete that
        keeps the first and last entry."""
        if key is None:
            return 0 < i and j < len(self.klens)
        return len(self.klens) > 0 and key.startswith(self.prefix)

    def spliced(self, i: int, j: int, entry: Optional[Entry]) -> bytes:
        """The page with entries ``[i, j)`` replaced by *entry* (none if
        ``None``), for an edit that :meth:`keeps_prefix`: unchanged runs
        are copied as whole slices."""
        page, base, n, plen = self.page, self.base, len(self.klens), len(self.prefix)
        start, stop = self.ends[i], self.ends[j]
        ends_at = _LEAF_HEADER + plen
        klens_at = ends_at + 2 + 2 * n
        record = new_end = new_klen = b""
        if entry is not None:
            record = entry[0][plen:] + entry[1]
            new_end = (start + len(record)).to_bytes(2, "big")
            new_klen = (len(entry[0]) - plen).to_bytes(2, "big")
        nkeys = n - (j - i) + (entry is not None)
        return b"".join((
            page[:1], nkeys.to_bytes(2, "big"), page[3:ends_at + 2 + 2 * i], new_end,
            _shift_u16s(page[ends_at + 2 + 2 * j:klens_at], len(record) - (stop - start)),
            page[klens_at:klens_at + 2 * i], new_klen, page[klens_at + 2 * j:base],
            page[base:base + start], record, page[base + stop:base + self.ends[n]],
        ))

    def directory_problems(self) -> List[str]:
        """What is wrong with the directory beyond the O(1) load checks."""
        ends = self.ends
        problems = [] if ends[0] == 0 else ["first record offset is not 0"]
        for i, klen in enumerate(self.klens):
            if ends[i + 1] < ends[i]:
                problems.append(f"record offsets decrease at slot {i}")
            elif klen > ends[i + 1] - ends[i]:
                problems.append(f"key length overruns its record at slot {i}")
        return problems


class _InternalNode:
    __slots__ = ("keys", "children")

    def __init__(self, keys: List[bytes], children: List[int]):
        self.keys = keys
        self.children = children

    def encoded_size(self) -> int:
        return _INTERNAL_HEADER + 4 * len(self.children) + sum(len(k) + 2 for k in self.keys)

    def encode(self) -> bytes:
        return b"".join((
            struct.pack(f">BH{len(self.children)}I", _INTERNAL, len(self.keys), *self.children),
            *(len(key).to_bytes(2, "big") + key for key in self.keys),
        ))


def _decode(data: bytes):
    kind = data[0]
    if kind == _LEAF:
        return _LeafNode(data)
    if kind == _INTERNAL:
        nkeys = int.from_bytes(data[1:3], "big")
        children: List[int] = []
        pos = _INTERNAL_HEADER
        for _ in range(nkeys + 1):
            children.append(int.from_bytes(data[pos:pos + 4], "big"))
            pos += 4
        keys = []
        for _ in range(nkeys):
            klen = int.from_bytes(data[pos:pos + 2], "big")
            pos += 2
            keys.append(data[pos:pos + klen])
            pos += klen
        return _InternalNode(keys, children)
    raise TreeCorruptError(f"unknown B+tree node type {kind}")


class BPlusTree:
    """A B+tree living in a buffer pool.

    The root page id persists in the pager's header metadata under
    ``name``; several trees can share one pager/pool under different names
    (XKSearch keeps the IL index and the scan index in one file).
    """

    def __init__(self, pool: BufferPool, name: str = "bptree"):
        if pool.pager.page_size > 1 << 16:
            raise PageError("B+tree leaves address records with u16 offsets: 64 KiB pages at most")
        self.pool = pool
        self.name = name
        self._meta_key = f"bptree.{name}.root"
        self._decoded_cache: dict = {}
        # Node touches (every _read_node call, cached or not) — the tree-level
        # work counter /statz and /metrics report.  A plain int under the GIL:
        # a lost increment under thread races is tolerable for a stats counter
        # and keeps the descent hot path lock-free.
        self.node_reads = 0
        root = self.pool.pager.get_meta(self._meta_key)
        if root is None:
            pid = self.pool.pager.allocate()
            self._write_node(pid, _LeafNode.pack([], 0))
            self.pool.pager.set_meta(self._meta_key, pid)
            root = pid
        self._root_pid = int(root)

    # -- node I/O -------------------------------------------------------------

    def _read_node(self, pid: int):
        self.node_reads += 1
        data = self.pool.get_page(pid)
        cached = self._decoded_cache.get(pid)
        if cached is not None and cached[0] is data:
            return cached[1]
        node = _decode(data)
        self._decoded_cache[pid] = (data, node)
        return node

    def _write_node(self, pid: int, node) -> None:
        data = node.encode()
        self.pool.put_page(pid, data)
        # The pool keeps *data* itself: the next read finds this node as is.
        self._decoded_cache[pid] = (data, node)

    def _set_root(self, pid: int) -> None:
        self._root_pid = pid
        self.pool.pager.set_meta(self._meta_key, pid)

    @property
    def page_capacity(self) -> int:
        return self.pool.pager.page_size

    def _check_entry_fits(self, key: bytes, value: bytes) -> None:
        needed = _EMPTY_LEAF + len(key) + len(value) + 4
        if needed > self.page_capacity:
            raise TreeCorruptError(
                f"entry of {len(key)}+{len(value)} bytes cannot fit in a "
                f"{self.page_capacity}-byte page"
            )

    # -- queries ---------------------------------------------------------------

    def search(self, key: bytes) -> Optional[bytes]:
        """Value stored under *key*, or ``None``."""
        leaf = self._read_node(self._descend(key))
        i = leaf.bisect(key)
        if i < len(leaf):
            found, value = leaf.entry(i)
            if found == key:
                return value
        return None

    def _descend(self, key: bytes) -> int:
        """Page id of the leaf that owns *key*."""
        pid = self._root_pid
        node = self._read_node(pid)
        while isinstance(node, _InternalNode):
            pid = node.children[bisect_right(node.keys, key)]
            node = self._read_node(pid)
        return pid

    def ceiling_entry(self, key: bytes) -> Optional[Entry]:
        """Smallest entry with key >= *key* — the disk right match (rm)."""
        leaf = self._read_node(self._descend(key))
        return self._ceiling_from(leaf, leaf.bisect(key))

    def floor_entry(self, key: bytes) -> Optional[Entry]:
        """Largest entry with key <= *key* — the disk left match (lm).

        The leaf chain is forward-only, so the descent remembers the deepest
        point where it took a non-leftmost child; if the target leaf holds
        nothing <= *key*, the floor is the rightmost entry of the subtree
        immediately left of that point (one extra partial descent; internal
        pages are pinned in practice, so this costs no physical I/O).
        """
        leaf, branch_points = self._descend_noting_left(key)
        return self._floor_from(leaf, leaf.bisect(key, right=True), branch_points)

    def neighbors(self, key: bytes) -> Tuple[Optional[Entry], Optional[Entry]]:
        """``(floor_entry(key), ceiling_entry(key))`` from **one** descent.

        The paper's IL probes each list with ``lm`` then ``rm`` at the
        same value, which as two independent calls costs two root-to-leaf
        descents; both answers live in (or next to) the same leaf, so one
        descent recording the floor branch points serves both.  When the
        key itself is present, both entries are that key.
        """
        leaf, branch_points = self._descend_noting_left(key)
        i = leaf.bisect(key)  # keys are unique: one bisect serves both
        ceiling = self._ceiling_from(leaf, i)
        if ceiling is not None and ceiling[0] == key:
            return ceiling, ceiling
        return self._floor_from(leaf, i, branch_points), ceiling

    def _descend_noting_left(self, key: bytes) -> Tuple[_LeafNode, List[List[int]]]:
        """The leaf that owns *key*, and every place the descent had
        subtrees to its left (the children left of the one taken)."""
        node = self._read_node(self._root_pid)
        branch_points: List[List[int]] = []
        while isinstance(node, _InternalNode):
            slot = bisect_right(node.keys, key)
            if slot > 0:
                branch_points.append(node.children[:slot])
            node = self._read_node(node.children[slot])
        return node, branch_points

    def _ceiling_from(self, leaf: _LeafNode, i: int) -> Optional[Entry]:
        """Entry *i* of *leaf*, or the first one after it along the forward
        leaf chain, past leaves emptied by deletions."""
        while i >= len(leaf):
            if not leaf.next_leaf:
                return None
            leaf = self._read_node(leaf.next_leaf)
            i = 0
        return leaf.entry(i)

    def _floor_from(self, leaf: _LeafNode, i: int, branch_points: list) -> Optional[Entry]:
        """Entry ``i - 1`` of *leaf*; for ``i == 0`` (possible after
        deletions empty leaves), the rightmost entry among the left
        subtrees of the descent, searched deepest-first, right to left."""
        if i > 0:
            return leaf.entry(i - 1)
        for left_children in reversed(branch_points):
            for child in reversed(left_children):
                entry = self._rightmost_entry(child)
                if entry is not None:
                    return entry
        return None

    def _rightmost_entry(self, pid: int) -> Optional[Entry]:
        """Largest entry in the subtree at *pid*, skipping leaves emptied by
        deletions (children are tried right to left)."""
        node = self._read_node(pid)
        if isinstance(node, _InternalNode):
            for child in reversed(node.children):
                entry = self._rightmost_entry(child)
                if entry is not None:
                    return entry
            return None
        return node.entry(len(node) - 1) if len(node) else None

    def scan(self, start: Optional[bytes] = None, end: Optional[bytes] = None) -> Iterator[Entry]:
        """Entries with start <= key < end, in key order, via the leaf chain."""
        pid = self._descend(start) if start is not None else self._first_leaf()
        leaf = self._read_node(pid)
        i = leaf.bisect(start) if start is not None else 0
        while True:
            page, base, ends, prefix = leaf.page, leaf.base, leaf.ends, leaf.prefix
            for at, klen, stop in zip(ends[i:], leaf.klens[i:], ends[i + 1:]):
                at += base
                key = prefix + page[at:at + klen]
                if end is not None and key >= end:
                    return
                yield key, page[at + klen:base + stop]
            if not leaf.next_leaf:
                return
            leaf = self._read_node(leaf.next_leaf)
            i = 0

    def _first_leaf(self) -> int:
        pid = self._root_pid
        node = self._read_node(pid)
        while isinstance(node, _InternalNode):
            pid = node.children[0]
            node = self._read_node(pid)
        return pid

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())

    @property
    def height(self) -> int:
        """Number of levels (1 = the root is a leaf)."""
        levels = 1
        node = self._read_node(self._root_pid)
        while isinstance(node, _InternalNode):
            levels += 1
            node = self._read_node(node.children[0])
        return levels

    def check_invariants(self) -> List[str]:
        """Verify the structural invariants; returns violation messages.

        Checks, over the whole tree: every leaf's directory (offsets
        non-decreasing, each key suffix within its record); keys sorted
        within every node; every key in child ``i`` of an internal node —
        for a leaf, its prefix plus each suffix — lies in
        ``[separator[i-1], separator[i])``; the leaf chain visits exactly
        the leaves in left-to-right order.  Used by ``xksearch verify``.
        """
        problems: List[str] = []
        leaves_in_order: List[int] = []

        def walk(pid: int, lo: Optional[bytes], hi: Optional[bytes]) -> None:
            node = self._read_node(pid)
            if isinstance(node, _LeafNode):
                problems.extend(f"page {pid}: {p}" for p in node.directory_problems())
                keys = [key for key, _ in node.entries()]
            else:
                keys = node.keys
            for i in range(len(keys) - 1):
                if keys[i] >= keys[i + 1]:
                    problems.append(f"page {pid}: keys out of order at slot {i}")
            for key in keys:
                if lo is not None and key < lo:
                    problems.append(f"page {pid}: key below subtree bound")
                if hi is not None and key >= hi:
                    problems.append(f"page {pid}: key above subtree bound")
            if isinstance(node, _InternalNode):
                if len(node.children) != len(keys) + 1:
                    problems.append(f"page {pid}: child/key count mismatch")
                    return
                for i, child in enumerate(node.children):
                    child_lo = keys[i - 1] if i > 0 else lo
                    child_hi = keys[i] if i < len(keys) else hi
                    walk(child, child_lo, child_hi)
            else:
                leaves_in_order.append(pid)

        walk(self._root_pid, None, None)
        chained = self.leaf_page_ids()
        if chained != leaves_in_order:
            problems.append(
                f"leaf chain {chained} disagrees with tree order {leaves_in_order}"
            )
        return problems

    def internal_page_ids(self) -> List[int]:
        """Page ids of every non-leaf node (for pinning), level by level.

        Reads the inner nodes and one leaf page, never the leaf level: the
        tree is balanced (splits grow it at the root, deletion removes no
        node), so once a level's first child is a leaf — told by the
        page's kind byte, without decoding it — all its children are.
        """
        pids: List[int] = []
        level = [self._root_pid]
        while True:
            kind = self.pool.get_page(level[0])[0]
            if kind == _LEAF:
                return pids
            if kind != _INTERNAL:
                raise TreeCorruptError(f"unknown B+tree node type {kind}")
            pids.extend(level)
            level = [
                child for pid in level for child in self._read_node(pid).children
            ]

    def leaf_page_ids(self) -> List[int]:
        """Page ids of every leaf, in key order."""
        pids: List[int] = []
        pid = self._first_leaf()
        while pid:
            pids.append(pid)
            pid = self._read_node(pid).next_leaf
        return pids

    # -- insertion ---------------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert or replace the entry for *key*; True if the key is new."""
        self._check_entry_fits(key, value)
        is_new, split = self._insert_into(self._root_pid, key, value)
        if split is not None:
            sep, right_pid = split
            new_root = self.pool.pager.allocate()
            self._write_node(new_root, _InternalNode([sep], [self._root_pid, right_pid]))
            self._set_root(new_root)
        return is_new

    def _insert_into(self, pid: int, key: bytes, value: bytes):
        """Insert under *pid*; return ``(key is new, split)``, where split
        is ``(separator, new_right_pid)`` if the node at *pid* split, else
        ``None``."""
        node = self._read_node(pid)
        if isinstance(node, _LeafNode):
            i = node.bisect(key)
            is_new = i == len(node) or node.entry(i)[0] != key
            j = i + (not is_new)
            if node.keeps_prefix(i, j, key):
                ends = node.ends
                grown = 4 * is_new + len(key) - len(node.prefix) + len(value) - (ends[j] - ends[i])
                if node.base + ends[-1] + grown <= self.page_capacity:
                    self._write_node(pid, _LeafNode(node.spliced(i, j, (key, value))))
                    return is_new, None
            entries = node.entries()
            entries[i:j] = [(key, value)]
            if _packed_size(entries) <= self.page_capacity:
                self._write_node(pid, _LeafNode.pack(entries, node.next_leaf))
                return is_new, None
            return is_new, self._split_leaf(pid, entries, node.next_leaf)
        slot = bisect_right(node.keys, key)
        is_new, split = self._insert_into(node.children[slot], key, value)
        if split is None:
            return is_new, None
        sep, right_pid = split
        node.keys.insert(slot, sep)
        node.children.insert(slot + 1, right_pid)
        if node.encoded_size() <= self.page_capacity:
            self._write_node(pid, node)
            return is_new, None
        return is_new, self._split_internal(pid, node)

    def _split_leaf(self, pid: int, entries: List[Entry], next_leaf: int):
        mid = self._split_point(entries)
        right_pid = self.pool.pager.allocate()
        self._write_node(right_pid, _LeafNode.pack(entries[mid:], next_leaf))
        self._write_node(pid, _LeafNode.pack(entries[:mid], right_pid))
        return entries[mid][0], right_pid

    def _split_internal(self, pid: int, node: _InternalNode):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _InternalNode(node.keys[mid + 1:], node.children[mid + 1:])
        right_pid = self.pool.pager.allocate()
        left = _InternalNode(node.keys[:mid], node.children[:mid + 1])
        self._write_node(right_pid, right)
        self._write_node(pid, left)
        return sep, right_pid

    @staticmethod
    def _split_point(entries: List[Entry]) -> int:
        """Index splitting the entries into two leaves, the larger packed
        page as small as possible.  A leaf only grows as entries join it,
        so the scan stops where the left side outgrows the right; a key
        inserted outside a leaf's prefix may lengthen every other key's
        suffix, and can end up alone on its side."""
        sizes = [len(k) + len(v) + 4 for k, v in entries]
        first, last, total, n = entries[0][0], entries[-1][0], sum(sizes), len(entries)
        best, left = (total, 1), 0
        for m in range(1, n):
            left += sizes[m - 1]
            left_page = left - (m - 1) * _cpl(first, entries[m - 1][0])
            right_page = total - left - (n - m - 1) * _cpl(entries[m][0], last)
            best = min(best, (max(left_page, right_page), m))
            if left_page >= right_page:
                break
        return best[1]

    def delete(self, key: bytes) -> bool:
        """Remove the entry for *key*; True if it existed.

        Simple leaf deletion without rebalancing: leaves may become
        underfull (or even empty, in which case scans skip them via the
        chain).  That keeps deletion crash-simple and is the right trade
        for an index whose deletions are rare maintenance events; heavy
        churn should rebuild via ``bulk_load``.
        """
        pid = self._descend(key)
        leaf = self._read_node(pid)
        i = leaf.bisect(key)
        if i >= len(leaf) or leaf.entry(i)[0] != key:
            return False
        if leaf.keeps_prefix(i, i + 1, None):
            self._write_node(pid, _LeafNode(leaf.spliced(i, i + 1, None)))
        else:  # the prefix can only grow: the page does not
            entries = leaf.entries()
            self._write_node(pid, _LeafNode.pack(entries[:i] + entries[i + 1:], leaf.next_leaf))
        return True

    # -- bulk loading --------------------------------------------------------------

    def bulk_load(self, entries: Iterable[Entry], fill_factor: float = 0.9) -> int:
        """Build the tree from entries already sorted by key.

        Leaves are allocated consecutively so that a full scan reads pages
        sequentially, then internal levels are built bottom-up.  Each page
        is written once: a leaf is held back until its successor's page id,
        its ``next_leaf``, is known.  The tree must be empty.  Returns the
        number of entries loaded.
        """
        if not 0.1 <= fill_factor <= 1.0:
            raise ValueError("fill_factor must be in [0.1, 1.0]")
        root = self._read_node(self._root_pid)
        if isinstance(root, _InternalNode) or len(root):
            raise TreeCorruptError("bulk_load requires an empty tree")
        leaf_pids: List[int] = []
        first_keys: List[bytes] = []
        count = 0
        held: List[Entry] = []
        for chunk in self._leaf_runs(entries, int(self.page_capacity * fill_factor)):
            pid = self.pool.pager.allocate()
            if held:
                self._write_node(leaf_pids[-1], _LeafNode.pack(held, pid))
            leaf_pids.append(pid)
            first_keys.append(chunk[0][0])
            count += len(chunk)
            held = chunk
        if not leaf_pids:
            return 0
        self._write_node(leaf_pids[-1], _LeafNode.pack(held, 0))

        level_pids, level_keys = leaf_pids, first_keys
        while len(level_pids) > 1:
            level_pids, level_keys = self._build_internal_level(level_pids, level_keys)
        self._set_root(level_pids[0])
        return count

    def _leaf_runs(self, entries: Iterable[Entry], budget: int) -> Iterator[List[Entry]]:
        """Strictly sorted *entries* cut into runs whose packed leaf fills
        *budget* bytes.  A run's prefix (first key vs its latest) only
        shrinks, and it stays put while keys start with it."""
        run: List[Entry] = []
        full = _EMPTY_LEAF  # the run's page size with no prefix stored
        prefix = prev_key = b""
        room = self.page_capacity - _EMPTY_LEAF
        for key, value in entries:
            if run and key <= prev_key:
                raise TreeCorruptError(f"bulk_load input not strictly sorted at key {key!r}")
            prev_key = key
            entry_size = len(key) + len(value) + 4
            if entry_size > room:
                self._check_entry_fits(key, value)  # raises
            if run:
                common = prefix if key.startswith(prefix) else prefix[:_cpl(prefix, key)]
                if full + entry_size - len(run) * len(common) <= budget:
                    run.append((key, value))
                    full += entry_size
                    prefix = common
                    continue
                yield run
            run, full, prefix = [(key, value)], _EMPTY_LEAF + entry_size, key
        if run:
            yield run

    def _build_internal_level(
        self, child_pids: List[int], child_first_keys: List[bytes]
    ) -> Tuple[List[int], List[bytes]]:
        """Group children into internal nodes; return the new level."""
        budget = self.page_capacity
        new_pids: List[int] = []
        new_first_keys: List[bytes] = []
        i = 0
        n = len(child_pids)
        while i < n:
            children = [child_pids[i]]
            keys: List[bytes] = []
            first_key = child_first_keys[i]
            size = _INTERNAL_HEADER + 4
            i += 1
            while i < n:
                extra = 4 + 2 + len(child_first_keys[i])
                if size + extra > budget and len(children) >= 2:
                    break
                keys.append(child_first_keys[i])
                children.append(child_pids[i])
                size += extra
                i += 1
            pid = self.pool.pager.allocate()
            self._write_node(pid, _InternalNode(keys, children))
            new_pids.append(pid)
            new_first_keys.append(first_key)
        return new_pids, new_first_keys
