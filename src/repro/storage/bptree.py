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

Page layout (both node kinds start with ``type:u8, nkeys:u16``):

* leaf: ``next_leaf:u32`` then per entry ``klen:u16, vlen:u16, key, value``
* internal: ``(nkeys+1) * child:u32`` then per key ``klen:u16, key``
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import TreeCorruptError
from repro.storage.buffer_pool import BufferPool

_LEAF = 1
_INTERNAL = 0
_LEAF_HEADER = 1 + 2 + 4
_INTERNAL_HEADER = 1 + 2

Entry = Tuple[bytes, bytes]


class _LeafNode:
    __slots__ = ("keys", "values", "next_leaf")

    def __init__(self, keys: List[bytes], values: List[bytes], next_leaf: int):
        self.keys = keys
        self.values = values
        self.next_leaf = next_leaf

    def encoded_size(self) -> int:
        payload = sum(len(k) + len(v) + 4 for k, v in zip(self.keys, self.values))
        return _LEAF_HEADER + payload

    def encode(self) -> bytes:
        parts = [
            bytes([_LEAF]),
            len(self.keys).to_bytes(2, "big"),
            self.next_leaf.to_bytes(4, "big"),
        ]
        for key, value in zip(self.keys, self.values):
            parts.append(len(key).to_bytes(2, "big"))
            parts.append(len(value).to_bytes(2, "big"))
            parts.append(key)
            parts.append(value)
        return b"".join(parts)


class _InternalNode:
    __slots__ = ("keys", "children")

    def __init__(self, keys: List[bytes], children: List[int]):
        self.keys = keys
        self.children = children

    def encoded_size(self) -> int:
        return (
            _INTERNAL_HEADER
            + 4 * len(self.children)
            + sum(len(k) + 2 for k in self.keys)
        )

    def encode(self) -> bytes:
        parts = [bytes([_INTERNAL]), len(self.keys).to_bytes(2, "big")]
        for child in self.children:
            parts.append(child.to_bytes(4, "big"))
        for key in self.keys:
            parts.append(len(key).to_bytes(2, "big"))
            parts.append(key)
        return b"".join(parts)


def _decode(data: bytes):
    kind = data[0]
    nkeys = int.from_bytes(data[1:3], "big")
    if kind == _LEAF:
        next_leaf = int.from_bytes(data[3:7], "big")
        keys: List[bytes] = []
        values: List[bytes] = []
        pos = _LEAF_HEADER
        for _ in range(nkeys):
            klen = int.from_bytes(data[pos:pos + 2], "big")
            vlen = int.from_bytes(data[pos + 2:pos + 4], "big")
            pos += 4
            keys.append(data[pos:pos + klen])
            pos += klen
            values.append(data[pos:pos + vlen])
            pos += vlen
        return _LeafNode(keys, values, next_leaf)
    if kind == _INTERNAL:
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
            self._write_node(pid, _LeafNode([], [], 0))
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
        self.pool.put_page(pid, node.encode())
        self._decoded_cache.pop(pid, None)

    def _set_root(self, pid: int) -> None:
        self._root_pid = pid
        self.pool.pager.set_meta(self._meta_key, pid)

    @property
    def page_capacity(self) -> int:
        return self.pool.pager.page_size

    def _check_entry_fits(self, key: bytes, value: bytes) -> None:
        needed = _LEAF_HEADER + len(key) + len(value) + 4
        if needed > self.page_capacity:
            raise TreeCorruptError(
                f"entry of {len(key)}+{len(value)} bytes cannot fit in a "
                f"{self.page_capacity}-byte page"
            )

    # -- queries ---------------------------------------------------------------

    def search(self, key: bytes) -> Optional[bytes]:
        """Value stored under *key*, or ``None``."""
        leaf = self._read_node(self._descend(key))
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return leaf.values[i]
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
        pid = self._descend(key)
        leaf = self._read_node(pid)
        i = bisect_left(leaf.keys, key)
        while i >= len(leaf.keys):
            if not leaf.next_leaf:
                return None
            pid = leaf.next_leaf
            leaf = self._read_node(pid)
            i = 0
        return leaf.keys[i], leaf.values[i]

    def floor_entry(self, key: bytes) -> Optional[Entry]:
        """Largest entry with key <= *key* — the disk left match (lm).

        The leaf chain is forward-only, so the descent remembers the deepest
        point where it took a non-leftmost child; if the target leaf holds
        nothing <= *key*, the floor is the rightmost entry of the subtree
        immediately left of that point (one extra partial descent; internal
        pages are pinned in practice, so this costs no physical I/O).
        """
        node = self._read_node(self._root_pid)
        # Remember every place the descent had subtrees to its left; if the
        # target leaf holds nothing <= key (possible after deletions empty
        # leaves), the floor is the rightmost entry among those subtrees,
        # searched deepest-first, right to left.
        branch_points: List[List[int]] = []
        while isinstance(node, _InternalNode):
            slot = bisect_right(node.keys, key)
            if slot > 0:
                branch_points.append(node.children[:slot])
            node = self._read_node(node.children[slot])
        i = bisect_right(node.keys, key)
        if i > 0:
            return node.keys[i - 1], node.values[i - 1]
        for left_children in reversed(branch_points):
            for child in reversed(left_children):
                entry = self._rightmost_entry(child)
                if entry is not None:
                    return entry
        return None

    def neighbors(self, key: bytes) -> Tuple[Optional[Entry], Optional[Entry]]:
        """``(floor_entry(key), ceiling_entry(key))`` from **one** descent.

        The paper's IL probes each list with ``lm`` then ``rm`` at the
        same value, which as two independent calls costs two root-to-leaf
        descents; both answers live in (or next to) the same leaf, so one
        descent recording the floor branch points serves both.  When the
        key itself is present, both entries are that key.
        """
        node = self._read_node(self._root_pid)
        branch_points: List[List[int]] = []
        while isinstance(node, _InternalNode):
            slot = bisect_right(node.keys, key)
            if slot > 0:
                branch_points.append(node.children[:slot])
            node = self._read_node(node.children[slot])
        # Ceiling: first entry >= key, walking the forward leaf chain past
        # leaves emptied by deletions (same loop as ceiling_entry).
        ceiling: Optional[Entry] = None
        leaf, i = node, bisect_left(node.keys, key)
        while True:
            if i < len(leaf.keys):
                ceiling = (leaf.keys[i], leaf.values[i])
                break
            if not leaf.next_leaf:
                break
            leaf = self._read_node(leaf.next_leaf)
            i = 0
        # Floor: last entry <= key in the target leaf, else the rightmost
        # entry among the recorded left subtrees (same as floor_entry).
        j = bisect_right(node.keys, key)
        if j > 0:
            return (node.keys[j - 1], node.values[j - 1]), ceiling
        for left_children in reversed(branch_points):
            for child in reversed(left_children):
                entry = self._rightmost_entry(child)
                if entry is not None:
                    return entry, ceiling
        return None, ceiling

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
        if not node.keys:
            return None
        return node.keys[-1], node.values[-1]

    def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
    ) -> Iterator[Entry]:
        """Entries with start <= key < end, in key order, via the leaf chain."""
        pid = self._descend(start) if start is not None else self._first_leaf()
        leaf = self._read_node(pid)
        i = bisect_left(leaf.keys, start) if start is not None else 0
        while True:
            while i < len(leaf.keys):
                key = leaf.keys[i]
                if end is not None and key >= end:
                    return
                yield key, leaf.values[i]
                i += 1
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

        Checks, over the whole tree: keys sorted within every node; every
        key in child ``i`` of an internal node lies in
        ``[separator[i-1], separator[i])``; the leaf chain visits exactly
        the leaves in left-to-right order.  Used by ``xksearch verify``.
        """
        problems: List[str] = []
        leaves_in_order: List[int] = []

        def walk(pid: int, lo: Optional[bytes], hi: Optional[bytes]) -> None:
            node = self._read_node(pid)
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
            leaf = self._read_node(pid)
            pid = leaf.next_leaf
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
            i = bisect_left(node.keys, key)
            is_new = i == len(node.keys) or node.keys[i] != key
            if is_new:
                node.keys.insert(i, key)
                node.values.insert(i, value)
            else:
                node.values[i] = value
            if node.encoded_size() <= self.page_capacity:
                self._write_node(pid, node)
                return is_new, None
            return is_new, self._split_leaf(pid, node)
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

    def _split_leaf(self, pid: int, node: _LeafNode):
        mid = self._split_point(node.keys, node.values)
        right = _LeafNode(node.keys[mid:], node.values[mid:], node.next_leaf)
        right_pid = self.pool.pager.allocate()
        left = _LeafNode(node.keys[:mid], node.values[:mid], right_pid)
        self._write_node(right_pid, right)
        self._write_node(pid, left)
        return right.keys[0], right_pid

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
    def _split_point(keys: List[bytes], values: List[bytes]) -> int:
        """Index splitting the entries into two roughly equal byte halves."""
        total = sum(len(k) + len(v) + 4 for k, v in zip(keys, values))
        acc = 0
        for i, (k, v) in enumerate(zip(keys, values)):
            acc += len(k) + len(v) + 4
            if acc >= total // 2:
                return min(max(i + 1, 1), len(keys) - 1)
        return len(keys) // 2

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
        i = bisect_left(leaf.keys, key)
        if i >= len(leaf.keys) or leaf.keys[i] != key:
            return False
        del leaf.keys[i]
        del leaf.values[i]
        self._write_node(pid, leaf)
        return True

    # -- bulk loading --------------------------------------------------------------

    def bulk_load(self, entries: Iterable[Entry], fill_factor: float = 0.9) -> int:
        """Build the tree from entries already sorted by key.

        Leaves are allocated consecutively so that a full scan reads pages
        sequentially, then internal levels are built bottom-up.  The tree
        must be empty.  Returns the number of entries loaded.
        """
        if not 0.1 <= fill_factor <= 1.0:
            raise ValueError("fill_factor must be in [0.1, 1.0]")
        root = self._read_node(self._root_pid)
        if isinstance(root, _InternalNode) or root.keys:
            raise TreeCorruptError("bulk_load requires an empty tree")
        budget = int(self.page_capacity * fill_factor)
        leaf_pids: List[int] = []
        first_keys: List[bytes] = []
        count = 0

        keys: List[bytes] = []
        values: List[bytes] = []
        size = _LEAF_HEADER
        prev_key: Optional[bytes] = None

        def flush_leaf() -> None:
            nonlocal keys, values, size
            pid = self.pool.pager.allocate()
            leaf_pids.append(pid)
            first_keys.append(keys[0])
            # next_leaf patched below once the following pid is known; store
            # provisional 0 now.
            self._write_node(pid, _LeafNode(keys, values, 0))
            keys, values, size = [], [], _LEAF_HEADER

        for key, value in entries:
            if prev_key is not None and key <= prev_key:
                raise TreeCorruptError(
                    f"bulk_load input not strictly sorted at key {key!r}"
                )
            prev_key = key
            self._check_entry_fits(key, value)
            entry_size = len(key) + len(value) + 4
            if keys and size + entry_size > budget:
                flush_leaf()
            keys.append(key)
            values.append(value)
            size += entry_size
            count += 1
        if keys:
            flush_leaf()
        if not leaf_pids:
            return 0

        # Patch the leaf chain (consecutive pids by construction, but be
        # explicit rather than assume allocation order).
        for i, pid in enumerate(leaf_pids[:-1]):
            node = self._read_node(pid)
            node.next_leaf = leaf_pids[i + 1]
            self._write_node(pid, node)

        level_pids = leaf_pids
        level_keys = first_keys
        while len(level_pids) > 1:
            level_pids, level_keys = self._build_internal_level(level_pids, level_keys)
        self._set_root(level_pids[0])
        return count

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
