"""Unit tests for the pager."""

import pytest

from repro.errors import PageError, StorageError
from repro.storage.pager import CostModel, IOStats, Pager


@pytest.fixture
def pager(tmp_path):
    with Pager(tmp_path / "test.db", page_size=256, create=True) as p:
        yield p


class TestLifecycle:
    def test_create_reserves_header_page(self, pager):
        assert pager.num_pages == 1

    def test_allocate_monotonic(self, pager):
        assert pager.allocate() == 1
        assert pager.allocate() == 2
        assert pager.num_pages == 3

    def test_write_read_roundtrip(self, pager):
        pid = pager.allocate()
        pager.write_page(pid, b"hello")
        assert pager.read_page(pid) == b"hello".ljust(256, b"\x00")

    def test_reopen_preserves_pages_and_meta(self, tmp_path):
        path = tmp_path / "persist.db"
        with Pager(path, page_size=256, create=True) as p:
            pid = p.allocate()
            p.write_page(pid, b"data")
            p.set_meta("root", pid)
        with Pager(path) as p:
            assert p.page_size == 256
            assert p.get_meta("root") == pid
            assert p.read_page(pid).startswith(b"data")

    def test_open_missing_path_creates(self, tmp_path):
        with Pager(tmp_path / "new.db", page_size=128) as p:
            assert p.num_pages == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"not a pager file" + b"\x00" * 500)
        with pytest.raises(PageError, match="magic"):
            Pager(path)

    def test_context_manager_closes(self, tmp_path):
        p = Pager(tmp_path / "cm.db", create=True)
        with p:
            pass
        with pytest.raises(ValueError):
            p._file.read()


class TestReload:
    def test_reload_drops_pages_buffered_before_another_handle_wrote_them(self, tmp_path):
        """Reading a page buffers its neighbours in the file object; after
        ``reload_header`` they must come from the file again."""
        path = tmp_path / "shared.db"
        with Pager(path, page_size=256, create=True) as writer:
            first, second = writer.allocate(), writer.allocate()
            writer.write_page(first, b"one")
            writer.write_page(second, b"two")
            writer.flush()
            with Pager(path) as reader:
                assert reader.read_page(first).startswith(b"one")
                writer.write_page(second, b"fresh")
                writer.flush()
                reader.reload_header()
                assert reader.read_page(second).startswith(b"fresh")


class TestBoundsChecks:
    def test_read_out_of_range(self, pager):
        with pytest.raises(PageError, match="out of range"):
            pager.read_page(5)

    def test_header_page_protected(self, pager):
        with pytest.raises(PageError):
            pager.read_page(0)
        with pytest.raises(PageError):
            pager.write_page(0, b"x")

    def test_oversized_write_rejected(self, pager):
        pid = pager.allocate()
        with pytest.raises(PageError, match="exceeds"):
            pager.write_page(pid, b"x" * 257)


class TestMeta:
    def test_meta_default(self, pager):
        assert pager.get_meta("absent") is None
        assert pager.get_meta("absent", 7) == 7

    def test_meta_overflow_detected(self, pager):
        with pytest.raises(StorageError, match="fit"):
            pager.set_meta("big", "x" * 400)


class TestStats:
    def test_read_counters(self, pager):
        a, b = pager.allocate(), pager.allocate()
        pager.write_page(a, b"a")
        pager.write_page(b, b"b")
        pager.stats.reset()
        pager.read_page(a)
        pager.read_page(b)   # sequential: b == a + 1
        pager.read_page(a)   # random: backwards
        assert pager.stats.reads == 3
        assert pager.stats.sequential_reads == 1
        assert pager.stats.random_reads == 2

    def test_reset_read_sequence(self, pager):
        a, b = pager.allocate(), pager.allocate()
        pager.write_page(a, b"a")
        pager.write_page(b, b"b")
        pager.stats.reset()
        pager.read_page(a)
        pager.reset_read_sequence()
        pager.read_page(b)   # would be sequential, but sequence was reset
        assert pager.stats.random_reads == 2

    def test_snapshot_and_delta(self, pager):
        pid = pager.allocate()
        pager.write_page(pid, b"x")
        before = pager.stats.snapshot()
        pager.read_page(pid)
        delta = pager.stats.delta(before)
        assert delta.reads == 1
        assert before.reads == pager.stats.reads - 1

    def test_write_counter(self, pager):
        pid = pager.allocate()
        start = pager.stats.writes
        pager.write_page(pid, b"x")
        assert pager.stats.writes == start + 1


class TestReadonlyMmap:
    """The zero-copy read mode pool workers use (Pager(readonly=True))."""

    @pytest.fixture
    def written(self, tmp_path):
        path = tmp_path / "ro.db"
        with Pager(path, page_size=256, create=True) as p:
            pids = [p.allocate() for _ in range(4)]
            for i, pid in enumerate(pids):
                p.write_page(pid, bytes([65 + i]) * 100)
            p.set_meta("root", pids[0])
        return path, pids

    def test_pages_identical_to_regular_pager(self, written):
        path, pids = written
        with Pager(path) as regular, Pager(path, readonly=True) as ro:
            assert ro.page_size == regular.page_size
            assert ro.num_pages == regular.num_pages
            for pid in pids:
                assert ro.read_page(pid) == regular.read_page(pid)
            assert ro.get_meta("root") == regular.get_meta("root")

    def test_pages_are_bytes(self, written):
        # B+tree bisect comparisons require bytes, not memoryview.
        path, pids = written
        with Pager(path, readonly=True) as ro:
            assert type(ro.read_page(pids[0])) is bytes

    def test_writes_rejected(self, written):
        path, pids = written
        with Pager(path, readonly=True) as ro:
            with pytest.raises(StorageError, match="readonly"):
                ro.write_page(pids[0], b"x")
            with pytest.raises(StorageError, match="readonly"):
                ro.allocate()
            with pytest.raises(StorageError, match="readonly"):
                ro.set_meta("k", 1)
            with pytest.raises(StorageError, match="readonly"):
                ro.sync()

    def test_sees_growth_after_reload(self, written):
        # An updater appends pages in another handle; the readonly mapping
        # must pick them up after reload_header (or a read past the map).
        path, pids = written
        with Pager(path, readonly=True) as ro:
            before = ro.num_pages
            with Pager(path) as writer:
                new_pid = writer.allocate()
                writer.write_page(new_pid, b"fresh")
                writer.sync()
            ro.reload_header()
            assert ro.num_pages == before + 1
            assert ro.read_page(new_pid).startswith(b"fresh")

    def test_read_counters_still_count(self, written):
        path, pids = written
        with Pager(path, readonly=True) as ro:
            ro.stats.reset()
            ro.read_page(pids[0])
            ro.read_page(pids[1])
            assert ro.stats.reads == 2

    def test_readonly_missing_file_fails(self, tmp_path):
        with pytest.raises(StorageError):
            Pager(tmp_path / "absent.db", readonly=True)


class TestCostModel:
    def test_charges_by_kind(self):
        model = CostModel(random_ms=5.0, sequential_ms=1.0)
        stats = IOStats(reads=5, sequential_reads=3, random_reads=2)
        assert model.charge(stats) == pytest.approx(2 * 5.0 + 3 * 1.0)

    def test_zero_reads_zero_cost(self):
        assert CostModel().charge(IOStats()) == 0.0
