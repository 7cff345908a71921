"""Stateful model-based testing of the B+tree.

Hypothesis drives random interleavings of insert / overwrite / delete /
search / floor / ceiling / scan against a plain dict+sorted-list model;
any divergence (including after node splits and emptied leaves) fails with
a minimized command sequence.  Half the keys are IL-shaped, ``keyword ⊕
NUL ⊕ suffix`` over two keywords one of which prefixes the other, so leaf
runs span a keyword boundary and edits shrink and regrow the prefix each
leaf stores once.  ``internal_page_ids`` — which stops above
the leaf level on the strength of the tree being balanced — is held to a
walk that decodes every node.
"""

import bisect
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage.bptree import BPlusTree, _LeafNode
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager

keyword_keys_st = st.builds(
    lambda keyword, suffix: keyword + b"\x00" + suffix,
    st.sampled_from([b"xk", b"xkb"]),
    st.binary(max_size=3),
)
keys_st = st.one_of(st.binary(min_size=1, max_size=6), keyword_keys_st)
probes_st = st.one_of(st.binary(max_size=7), keyword_keys_st)
values_st = st.binary(max_size=5)


def inner_pages_by_full_walk(tree):
    pids, stack = [], [tree._root_pid]
    while stack:
        pid = stack.pop()
        node = tree._read_node(pid)
        if hasattr(node, "children"):
            pids.append(pid)
            stack.extend(node.children)
    return sorted(pids)


class BPlusTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        import tempfile

        self._dir = tempfile.TemporaryDirectory(prefix="bptree-state-")
        # Tiny pages force frequent splits; tiny pool forces real paging.
        self.pager = Pager(f"{self._dir.name}/t.db", page_size=128, create=True)
        self.pool = BufferPool(self.pager, capacity=8)
        self.tree = BPlusTree(self.pool, "m")
        self.model = {}

    def teardown(self):
        self.pager.close()
        self._dir.cleanup()

    @rule(key=keys_st, value=values_st)
    def insert(self, key, value):
        assert self.tree.insert(key, value) == (key not in self.model)
        self.model[key] = value

    @rule(key=keys_st)
    def delete(self, key):
        assert self.tree.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=keys_st)
    def search(self, key):
        assert self.tree.search(key) == self.model.get(key)

    @rule(probe=probes_st)
    def floor(self, probe):
        ordered = sorted(self.model)
        i = bisect.bisect_right(ordered, probe)
        expected = ordered[i - 1] if i else None
        got = self.tree.floor_entry(probe)
        assert (got[0] if got else None) == expected

    @rule(probe=probes_st)
    def ceiling(self, probe):
        ordered = sorted(self.model)
        i = bisect.bisect_left(ordered, probe)
        expected = ordered[i] if i < len(ordered) else None
        got = self.tree.ceiling_entry(probe)
        assert (got[0] if got else None) == expected

    @invariant()
    def scan_matches_model(self):
        assert [k for k, _ in self.tree.scan()] == sorted(self.model)

    @invariant()
    def values_match_model(self):
        for key, value in self.tree.scan():
            assert self.model[key] == value


    @invariant()
    def inner_pages_match_full_walk(self):
        assert sorted(self.tree.internal_page_ids()) == inner_pages_by_full_walk(self.tree)

    @invariant()
    def leaf_pages_are_canonical(self):
        # Spliced in place or packed by a split, cached or re-read from
        # disk (zero-padded), a leaf page is exactly a fresh pack of it.
        for pid in self.tree.leaf_page_ids():
            leaf = self.tree._read_node(pid)
            packed = _LeafNode.pack(leaf.entries(), leaf.next_leaf).page
            assert leaf.page == packed.ljust(len(leaf.page), b"\x00")


def test_internal_page_ids_at_every_height(tmp_path):
    """Trees of height 1 (the root is a leaf) to 3 and more, grown by
    inserts with deletions mixed in and by bulk load: the full-walk
    answer, for the inner pages and one leaf page read."""
    rng = random.Random(3)
    heights = set()
    for count, bulk in ((3, False), (40, False), (400, False), (4000, True)):
        with Pager(str(tmp_path / f"{count}.db"), page_size=128, create=True) as pager:
            pool = BufferPool(pager, capacity=4096)
            tree = BPlusTree(pool, "t")
            keys = sorted({rng.randrange(10**6).to_bytes(4, "big") for _ in range(count)})
            if bulk:
                tree.bulk_load((key, b"v") for key in keys)
            else:
                rng.shuffle(keys)
                for key in keys:
                    tree.insert(key, b"v")
                for key in keys[::3]:
                    tree.delete(key)
            inner = inner_pages_by_full_walk(tree)
            heights.add(tree.height)
            pool.clear()
            reads = pager.stats.reads
            assert sorted(tree.internal_page_ids()) == inner
            assert pager.stats.reads - reads == len(inner) + 1
    assert {1, 2, 3} <= heights and max(heights) > 3


TestBPlusTreeStateful = BPlusTreeMachine.TestCase
TestBPlusTreeStateful.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
