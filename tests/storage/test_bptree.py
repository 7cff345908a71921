"""Unit and model-based tests for the disk B+tree."""

import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PageError, TreeCorruptError
from repro.storage.bptree import BPlusTree, _LeafNode
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager


@pytest.fixture
def tree(tmp_path):
    with Pager(tmp_path / "t.db", page_size=256, create=True) as pager:
        yield BPlusTree(BufferPool(pager, capacity=64), "t")


def fill(tree, n, prefix=b"k"):
    for i in range(n):
        tree.insert(prefix + b"%06d" % i, b"v%d" % i)


class TestInsertSearch:
    def test_empty_tree_search(self, tree):
        assert tree.search(b"missing") is None

    def test_single_entry(self, tree):
        tree.insert(b"a", b"1")
        assert tree.search(b"a") == b"1"

    def test_overwrite(self, tree):
        tree.insert(b"a", b"1")
        tree.insert(b"a", b"2")
        assert tree.search(b"a") == b"2"
        assert len(tree) == 1

    def test_many_entries_with_splits(self, tree):
        fill(tree, 500)
        assert tree.height > 1
        for i in (0, 1, 249, 499):
            assert tree.search(b"k%06d" % i) == b"v%d" % i

    def test_empty_value_allowed(self, tree):
        tree.insert(b"k", b"")
        assert tree.search(b"k") == b""

    def test_oversized_entry_rejected(self, tree):
        with pytest.raises(TreeCorruptError, match="cannot fit"):
            tree.insert(b"k", b"x" * 300)

    def test_64k_pages_hold_u16_offsets_larger_ones_are_refused(self, tmp_path):
        with Pager(tmp_path / "64k.db", page_size=1 << 16, create=True) as pager:
            t = BPlusTree(BufferPool(pager, capacity=8), "t")
            for i in range(5):  # four fill the root leaf; the fifth splits it
                t.insert(b"%d" % i, bytes([i]) * 16000)
            assert t.height == 2 and t.check_invariants() == []
            assert [t.search(b"%d" % i) for i in range(5)] == [bytes([i]) * 16000 for i in range(5)]
        with Pager(tmp_path / "128k.db", page_size=1 << 17, create=True) as pager:
            with pytest.raises(PageError, match="u16 offsets"):
                BPlusTree(BufferPool(pager), "t")

    def test_random_insertion_order(self, tree):
        keys = [b"%04d" % i for i in range(300)]
        rng = random.Random(3)
        rng.shuffle(keys)
        for key in keys:
            tree.insert(key, key[::-1])
        assert [k for k, _ in tree.scan()] == sorted(keys)


class TestScan:
    def test_full_scan_sorted(self, tree):
        fill(tree, 200)
        keys = [k for k, _ in tree.scan()]
        assert keys == sorted(keys)
        assert len(keys) == 200

    def test_range_scan_bounds(self, tree):
        fill(tree, 100)
        got = [k for k, _ in tree.scan(b"k000010", b"k000020")]
        assert got == [b"k%06d" % i for i in range(10, 20)]

    def test_range_scan_start_between_keys(self, tree):
        fill(tree, 50)
        got = [k for k, _ in tree.scan(b"k000010x", b"k000013")]
        assert got == [b"k000011", b"k000012"]

    def test_scan_empty_range(self, tree):
        fill(tree, 50)
        assert list(tree.scan(b"z", b"zz")) == []

    def test_scan_empty_tree(self, tree):
        assert list(tree.scan()) == []


class TestFloorCeiling:
    def test_exact_match(self, tree):
        fill(tree, 50)
        assert tree.floor_entry(b"k000025")[0] == b"k000025"
        assert tree.ceiling_entry(b"k000025")[0] == b"k000025"

    def test_between_keys(self, tree):
        fill(tree, 50)
        assert tree.floor_entry(b"k000025x")[0] == b"k000025"
        assert tree.ceiling_entry(b"k000025x")[0] == b"k000026"

    def test_before_first(self, tree):
        fill(tree, 50)
        assert tree.floor_entry(b"a") is None
        assert tree.ceiling_entry(b"a")[0] == b"k000000"

    def test_after_last(self, tree):
        fill(tree, 50)
        assert tree.floor_entry(b"z")[0] == b"k000049"
        assert tree.ceiling_entry(b"z") is None

    def test_empty_tree(self, tree):
        assert tree.floor_entry(b"x") is None
        assert tree.ceiling_entry(b"x") is None

    def test_floor_crossing_leaf_boundary(self, tree):
        # Force multiple leaves, then probe just below each leaf's first key.
        fill(tree, 300)
        for pid in tree.leaf_page_ids()[1:]:
            first = tree._read_node(pid).entry(0)[0]
            probe = first[:-1] + bytes([first[-1] - 1]) + b"\xff"
            result = tree.floor_entry(probe)
            assert result is not None
            assert result[0] <= probe

    @given(
        keys=st.sets(st.binary(min_size=1, max_size=6), min_size=1, max_size=120),
        probes=st.lists(st.binary(min_size=0, max_size=7), max_size=30),
    )
    @settings(
        max_examples=60,
        deadline=None,
        # Each example creates its own uniquely named pager file, so reusing
        # the function-scoped tmp_path across examples is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_floor_ceiling_match_sorted_list_model(self, tmp_path, keys, probes):
        import bisect
        import uuid

        path = tmp_path / f"m{uuid.uuid4().hex}.db"
        with Pager(path, page_size=256, create=True) as pager:
            model = sorted(keys)
            t = BPlusTree(BufferPool(pager, capacity=64), "m")
            for key in model:
                t.insert(key, b"")
            for probe in probes:
                i = bisect.bisect_right(model, probe)
                want_floor = model[i - 1] if i else None
                j = bisect.bisect_left(model, probe)
                want_ceiling = model[j] if j < len(model) else None
                got_floor = t.floor_entry(probe)
                got_ceiling = t.ceiling_entry(probe)
                assert (got_floor[0] if got_floor else None) == want_floor
                assert (got_ceiling[0] if got_ceiling else None) == want_ceiling


class TestNeighbors:
    """``neighbors(key)`` = (floor_entry, ceiling_entry) in one descent."""

    def test_matches_two_calls(self, tree):
        fill(tree, 300)
        rng = random.Random(17)
        probes = [b"k%06d" % rng.randint(-5, 305) for _ in range(60)]
        probes += [p + b"x" for p in probes[:20]] + [b"a", b"z", b""]
        for probe in probes:
            floor, ceiling = tree.neighbors(probe)
            assert floor == tree.floor_entry(probe), probe
            assert ceiling == tree.ceiling_entry(probe), probe

    def test_empty_tree(self, tree):
        assert tree.neighbors(b"x") == (None, None)

    @given(
        keys=st.sets(st.binary(min_size=1, max_size=6), min_size=1, max_size=120),
        probes=st.lists(st.binary(min_size=0, max_size=7), max_size=30),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_sorted_list_model(self, tmp_path, keys, probes):
        import bisect
        import uuid

        path = tmp_path / f"n{uuid.uuid4().hex}.db"
        with Pager(path, page_size=256, create=True) as pager:
            model = sorted(keys)
            t = BPlusTree(BufferPool(pager, capacity=64), "n")
            for key in model:
                t.insert(key, b"")
            for probe in probes:
                i = bisect.bisect_right(model, probe)
                j = bisect.bisect_left(model, probe)
                floor, ceiling = t.neighbors(probe)
                assert (floor[0] if floor else None) == (model[i - 1] if i else None)
                assert (ceiling[0] if ceiling else None) == (
                    model[j] if j < len(model) else None
                )

    def test_single_descent_reads_fewer_nodes(self, tree):
        # The memoized neighbors path must cost at most what the two
        # separate descents cost (it halves descents on the common
        # lm(x)+rm(x) probe pattern that IL issues).
        fill(tree, 2000)
        probe = b"k000999x"
        before = tree.node_reads
        tree.neighbors(probe)
        combined = tree.node_reads - before
        before = tree.node_reads
        tree.floor_entry(probe)
        tree.ceiling_entry(probe)
        separate = tree.node_reads - before
        assert combined <= separate


class TestBulkLoad:
    def test_bulk_load_roundtrip(self, tree):
        entries = [(b"%05d" % i, b"v") for i in range(1000)]
        assert tree.bulk_load(iter(entries)) == 1000
        assert [k for k, _ in tree.scan()] == [k for k, _ in entries]
        assert tree.search(b"00500") == b"v"

    def test_bulk_load_empty(self, tree):
        assert tree.bulk_load(iter([])) == 0
        assert list(tree.scan()) == []

    def test_bulk_load_single(self, tree):
        tree.bulk_load(iter([(b"only", b"1")]))
        assert tree.search(b"only") == b"1"
        assert tree.height == 1

    def test_bulk_load_requires_empty_tree(self, tree):
        tree.insert(b"a", b"1")
        with pytest.raises(TreeCorruptError, match="empty"):
            tree.bulk_load(iter([(b"b", b"2")]))

    def test_bulk_load_rejects_unsorted(self, tree):
        with pytest.raises(TreeCorruptError, match="sorted"):
            tree.bulk_load(iter([(b"b", b""), (b"a", b"")]))

    def test_bulk_load_rejects_duplicates(self, tree):
        with pytest.raises(TreeCorruptError, match="sorted"):
            tree.bulk_load(iter([(b"a", b""), (b"a", b"")]))

    def test_bulk_load_fill_factor_validation(self, tree):
        with pytest.raises(ValueError):
            tree.bulk_load(iter([]), fill_factor=0.01)

    def test_bulk_loaded_leaves_are_consecutive(self, tree):
        tree.bulk_load((b"%05d" % i, b"v" * 8) for i in range(2000))
        pids = tree.leaf_page_ids()
        assert pids == list(range(pids[0], pids[0] + len(pids)))

    def test_bulk_load_writes_each_page_once(self, tree):
        writes = tree.pool.pager.stats.writes
        tree.bulk_load((b"%05d" % i, b"v" * 8) for i in range(2000))
        pages = len(tree.leaf_page_ids()) + len(tree.internal_page_ids())
        # ... plus one header write for the new root pointer.
        assert tree.pool.pager.stats.writes - writes == pages + 1

    def test_insert_after_bulk_load(self, tree):
        tree.bulk_load((b"%05d" % i, b"v") for i in range(100))
        tree.insert(b"00050x", b"new")
        keys = [k for k, _ in tree.scan(b"00050", b"00052")]
        assert keys == [b"00050", b"00050x", b"00051"]


class TestPrefixLeaf:
    """A leaf stores ``cpl(first key, last key)`` once and bisects the
    suffixes: every probe must land where bisecting the full keys would."""

    @pytest.mark.parametrize("keys, prefix", [
        ([b"kw\x00\x01", b"kw\x00\x02\x05", b"kw\x00\x07"], b"kw\x00"),
        ([b"kw\x00", b"kw\x00\x01", b"kw\x00\x02"], b"kw\x00"),  # empty first suffix
        ([b"a", b"kw\x00\x01", b"z"], b""),
        ([b"kw\x00\x03"], b"kw\x00\x03"),  # one key: all of it is the prefix
    ])
    def test_bisect_matches_full_keys(self, keys, prefix):
        leaf = _LeafNode.pack([(key, b"v") for key in keys], 0)
        assert leaf.prefix == prefix
        assert leaf.entries() == [(key, b"v") for key in keys]
        probes = {
            b"", b"\x00", b"\xff", b"kv\xff", b"kx",  # below / above the prefix range
            prefix, prefix + b"\x00", prefix + b"\xff",  # equal to it, just past it
            b"k", b"kw",  # proper prefixes of the prefix
            *keys, *(key[:-1] for key in keys), *(key + b"\x00" for key in keys),
        }
        for probe in sorted(probes):
            assert leaf.bisect(probe) == bisect_left(keys, probe), probe
            assert leaf.bisect(probe, right=True) == bisect_right(keys, probe), probe

    def test_bulk_loaded_keyword_runs_store_the_keyword_once(self, tree):
        keys = [b"keyword\x00%05d" % i for i in range(200)]
        tree.bulk_load((key, b"") for key in keys)
        leaves = [tree._read_node(pid) for pid in tree.leaf_page_ids()]
        assert all(leaf.prefix.startswith(b"keyword\x00") for leaf in leaves)
        assert [key for key, _ in tree.scan()] == keys

    def test_edits_that_move_the_prefix_repack_the_leaf(self, tree):
        def prefix():
            return tree._read_node(tree._root_pid).prefix

        tree.insert(b"kw\x00\x05\x01", b"")
        assert prefix() == b"kw\x00\x05\x01"
        tree.insert(b"kw\x00\x05\x03", b"")
        assert prefix() == b"kw\x00\x05"
        tree.insert(b"kw\x00\x09", b"")
        tree.insert(b"kv", b"")
        assert prefix() == b"k"
        assert tree.delete(b"kv")  # the first entry: the prefix grows back
        assert prefix() == b"kw\x00"
        assert tree.delete(b"kw\x00\x09")  # the last one
        assert prefix() == b"kw\x00\x05"
        assert [key for key, _ in tree.scan()] == [b"kw\x00\x05\x01", b"kw\x00\x05\x03"]

    def test_split_after_an_insert_outside_a_long_prefix(self, tree):
        # A full leaf of one long shared prefix, then keys outside it: the
        # suffixes all grow, and the split must still give two pages that fit.
        keys = [b"x" * 40 + b"%03d" % i for i in range(40)]
        tree.bulk_load((key, b"") for key in keys)
        for key in (b"a", b"z"):
            tree.insert(key, b"")
        assert tree.check_invariants() == []
        assert [key for key, _ in tree.scan()] == [b"a", *keys, b"z"]


class TestPersistenceAndSharing:
    def test_reopen(self, tmp_path):
        path = tmp_path / "p.db"
        with Pager(path, page_size=256, create=True) as pager:
            t = BPlusTree(BufferPool(pager, capacity=16), "p")
            fill(t, 300)
        with Pager(path) as pager:
            t = BPlusTree(BufferPool(pager, capacity=16), "p")
            assert t.search(b"k000123") == b"v123"
            assert len(t) == 300

    def test_two_trees_one_pager(self, tmp_path):
        with Pager(tmp_path / "two.db", page_size=256, create=True) as pager:
            pool = BufferPool(pager, capacity=64)
            a = BPlusTree(pool, "a")
            b = BPlusTree(pool, "b")
            a.insert(b"k", b"from-a")
            b.insert(b"k", b"from-b")
            assert a.search(b"k") == b"from-a"
            assert b.search(b"k") == b"from-b"

    def test_internal_and_leaf_page_ids_partition(self, tree):
        fill(tree, 500)
        internal = set(tree.internal_page_ids())
        leaves = set(tree.leaf_page_ids())
        assert internal.isdisjoint(leaves)
        assert tree._root_pid in internal or tree.height == 1

    def test_height_grows(self, tree):
        assert tree.height == 1
        fill(tree, 2000)
        assert tree.height >= 3


class TestInvariantChecker:
    def test_clean_tree_has_no_violations(self, tree):
        fill(tree, 400)
        assert tree.check_invariants() == []

    def test_bulk_loaded_tree_clean(self, tree):
        tree.bulk_load((b"%05d" % i, b"v") for i in range(1500))
        assert tree.check_invariants() == []

    def test_clean_after_mixed_insert_delete(self, tree):
        import random

        rng = random.Random(5)
        present = set()
        for _ in range(1500):
            key = b"%03d" % rng.randrange(400)
            if rng.random() < 0.6:
                tree.insert(key, b"v")
                present.add(key)
            else:
                tree.delete(key)
                present.discard(key)
        assert tree.check_invariants() == []
        assert [k for k, _ in tree.scan()] == sorted(present)

    def test_detects_injected_disorder(self, tree):
        fill(tree, 300)
        # Corrupt one leaf's page image: swap its first two records, which
        # are the same length, so the directory still describes the page.
        pid = tree.leaf_page_ids()[1]
        leaf = tree._read_node(pid)
        start, middle, stop = (leaf.base + end for end in leaf.ends[:3])
        assert middle - start == stop - middle
        page = bytearray(leaf.page)
        page[start:stop] = page[middle:stop] + page[start:middle]
        tree.pool.put_page(pid, bytes(page))
        problems = tree.check_invariants()
        assert problems
        assert any("out of order" in p or "bound" in p for p in problems)
