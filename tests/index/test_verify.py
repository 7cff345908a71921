"""Unit tests for index verification."""

import json

import pytest

from repro.errors import TreeCorruptError
from repro.index.builder import build_index
from repro.index.updates import IndexUpdater
from repro.index.verify import fsck_index, verify_index
from repro.storage.bptree import _LEAF_HEADER, BPlusTree, _LeafNode
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager


@pytest.fixture
def built(tmp_path, planted_dblp):
    target = tmp_path / "idx"
    build_index(planted_dblp, target, page_size=1024)
    return target


class TestCleanIndex:
    def test_fresh_index_verifies(self, built):
        report = verify_index(built)
        assert report.ok, report.summary()
        assert report.postings > 0
        assert report.keywords > 0

    def test_summary_mentions_ok(self, built):
        assert "OK" in verify_index(built).summary()

    def test_updated_index_verifies(self, built):
        with IndexUpdater(built) as updater:
            updater.add_postings({"brandnew": [((0, 0, 1, 1, 0, 0), "title")]})
            updater.remove_postings({"xkmid": [(0, 9, 9)]})
        report = verify_index(built)
        assert report.ok, report.summary()

    def test_verify_after_heavy_update_cycle(self, built, planted_dblp):
        lists = planted_dblp.keyword_lists()
        victims = lists["xkbig"][:30]
        with IndexUpdater(built) as updater:
            updater.remove_postings({"xkbig": victims})
        with IndexUpdater(built) as updater:
            updater.add_postings({"xkbig": [(d, "title") for d in victims]})
        report = verify_index(built)
        assert report.ok, report.summary()


class TestDetection:
    def test_missing_index(self, tmp_path):
        report = verify_index(tmp_path / "ghost")
        assert not report.ok

    def test_frequency_drift_detected(self, built):
        path = built / "frequency.json"
        table = json.loads(path.read_text())
        table["xkmid"] = table["xkmid"] + 5
        path.write_text(json.dumps(table))
        report = verify_index(built)
        assert not report.ok
        assert any("frequency table" in e for e in report.errors)

    def test_phantom_keyword_detected(self, built):
        path = built / "frequency.json"
        table = json.loads(path.read_text())
        table["phantom"] = 3
        path.write_text(json.dumps(table))
        report = verify_index(built)
        assert any("phantom" in e for e in report.errors)

    def test_scan_il_divergence_detected(self, built):
        # Surgically delete one IL posting without rewriting scan blocks.
        with Pager(built / "index.db") as pager:
            pool = BufferPool(pager, capacity=256)
            il = BPlusTree(pool, "il")
            key = next(iter(il.scan()))[0]
            il.delete(key)
        report = verify_index(built)
        assert not report.ok
        assert any("divergence" in e or "frequency" in e for e in report.errors)

    def test_corrupt_page_reported_not_raised(self, built):
        import os

        path = built / "index.db"
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            for offset in range(1024, size, 1024):
                fh.seek(offset)
                fh.write(b"\x77")
        report = verify_index(built)
        assert not report.ok

    @pytest.mark.parametrize("slot", ["first", "last"])
    def test_leaf_offset_past_page_end_reported_not_raised(self, built, slot):
        # One IL leaf's directory points a record end past the page: the
        # last one is caught when the leaf loads, an inner one by the
        # directory check.  Written through the pager, so checksums agree.
        with Pager(built / "index.db") as pager:
            pool = BufferPool(pager, capacity=256)
            il = BPlusTree(pool, "il")
            pid = il.leaf_page_ids()[0]
            leaf = il._read_node(pid)
            at = _LEAF_HEADER + len(leaf.prefix) + 2 * (1 if slot == "first" else len(leaf))
            page = bytearray(leaf.page)
            page[at:at + 2] = b"\xff\xff"
            pool.put_page(pid, bytes(page))
        report = fsck_index(built)
        assert not report.ok
        expected = "overrun their page" if slot == "last" else f"page {pid}: record offsets"
        assert any(expected in error for error in report.errors), report.summary()

    @pytest.mark.parametrize("damage", ["length", "bytes"])
    def test_leaf_prefix_damage_reported_not_raised(self, built, damage):
        # An inner IL leaf's key prefix: a length past the page end fails
        # the leaf's load; a changed first byte moves every full key on
        # the page out of the leaf's subtree bounds.
        with Pager(built / "index.db") as pager:
            pool = BufferPool(pager, capacity=256)
            il = BPlusTree(pool, "il")
            pid = next(p for p in il.leaf_page_ids()[1:-1] if il._read_node(p).prefix)
            page = bytearray(il._read_node(pid).page)
            if damage == "length":
                page[_LEAF_HEADER - 2:_LEAF_HEADER] = b"\xff\xff"
                with pytest.raises(TreeCorruptError, match="overrun their page"):
                    _LeafNode(bytes(page))
            else:
                page[_LEAF_HEADER] = 0xFF
            pool.put_page(pid, bytes(page))
        report = fsck_index(built)
        assert not report.ok
        expected = (
            "il tree unreadable: leaf prefix" if damage == "length"
            else f"il tree: page {pid}: key above subtree bound"
        )
        assert any(expected in error for error in report.errors), report.summary()

    def test_error_cap(self, built):
        path = built / "frequency.json"
        table = json.loads(path.read_text())
        for i in range(200):
            table[f"phantom{i}"] = 1
        path.write_text(json.dumps(table))
        report = verify_index(built)
        assert len(report.errors) <= 50


class TestCLI:
    def test_verify_command_ok(self, built, capsys):
        from repro.xksearch.cli import main

        assert main(["verify", str(built)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_command_failure(self, built, capsys):
        from repro.xksearch.cli import main

        path = built / "frequency.json"
        table = json.loads(path.read_text())
        table["phantom"] = 1
        path.write_text(json.dumps(table))
        assert main(["verify", str(built)]) == 1
        assert "FAILED" in capsys.readouterr().out
