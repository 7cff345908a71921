"""Checksummed storage: detection, quarantine, and transparent re-answer."""

import json
import os

import pytest

from repro.errors import CorruptionError
from repro.index.builder import INDEX_FILE_NAME, build_index
from repro.index.segments import open_index_segments, segments_path
from repro.index.verify import fsck_index, verify_index
from repro.obs.metrics import get_registry
from repro.robustness import faultinject
from repro.robustness.checksum import ALGORITHM, checksum
from repro.storage.pager import Pager, crc_sidecar_path
from repro.xksearch.system import XKSearch
from repro.xmltree.generate import dblp_like_tree, plant_keywords

QUERY = "xkrare xkbig"


def build(tmp_path):
    tree = dblp_like_tree(5, venues=3, years_per_venue=3, papers_per_year=8)
    plant_keywords(tree, {"xkrare": 4, "xkmid": 18, "xkbig": 40}, seed=11)
    target = tmp_path / "idx"
    build_index(tree, target, page_size=1024)
    return target


def corrupt_segment_block(index_dir, keyword):
    """Flip one bit inside *keyword*'s first chunk of keys on disk."""
    path = segments_path(index_dir)
    with open_index_segments(index_dir) as reader:
        start = reader.byte_offset(keyword)
    with open(path, "r+b") as fh:
        fh.seek(start)
        byte = fh.read(1)[0]
        fh.seek(start)
        fh.write(bytes([byte ^ 0x40]))


def corruption_count(tier):
    metric = get_registry().get_metric("xks_corruption_detected_total")
    if metric is None:
        return 0
    return metric.labels(tier=tier).value


class TestChecksumHelpers:
    def test_checksum_deterministic(self):
        assert checksum(b"hello", ALGORITHM) == checksum(b"hello", ALGORITHM)
        assert checksum(b"hello", ALGORITHM) != checksum(b"hellp", ALGORITHM)

    def test_checksum_is_32_bit(self):
        assert 0 <= checksum(b"x" * 10_000, ALGORITHM) < 2**32


class TestSegmentChecksums:
    def test_clean_read_verifies(self, tmp_path):
        index_dir = build(tmp_path)
        with open_index_segments(index_dir, verify_checksums=True) as reader:
            assert reader.version == 3
            for keyword in ("xkrare", "xkmid", "xkbig"):
                assert len(list(reader.scan(keyword))) > 0
            assert not reader.quarantined

    def test_corrupt_block_detected_and_quarantined(self, tmp_path):
        index_dir = build(tmp_path)
        corrupt_segment_block(index_dir, "xkmid")
        before = corruption_count("segment")
        with open_index_segments(index_dir, verify_checksums=True) as reader:
            list(reader.scan("xkbig"))  # other lists are checked on their own
            with pytest.raises(CorruptionError) as excinfo:
                list(reader.scan("xkmid"))
            assert excinfo.value.tier == "segment"
            assert reader.quarantined
        assert corruption_count("segment") == before + 1

    def test_unverified_reader_trusts_bytes(self, tmp_path):
        # Without --verify-checksums nothing looks at the CRCs: the flip
        # goes unnoticed — which is exactly why the flag and the fsck
        # sweep exist.
        index_dir = build(tmp_path)
        corrupt_segment_block(index_dir, "xkmid")
        with open_index_segments(index_dir) as reader:
            assert len(list(reader.scan("xkmid"))) == 18
            assert not reader.quarantined

    def test_lists_are_verified_once_per_reader(self, tmp_path, monkeypatch):
        index_dir = build(tmp_path)
        with open_index_segments(index_dir, verify_checksums=True) as reader:
            reader.keys("xkbig")
            monkeypatch.setattr(
                reader, "corrupt_chunks", lambda *a, **k: pytest.fail("re-verified")
            )
            reader.keys("xkbig")

    def test_corrupt_block_fault_quarantines_and_reanswers(self, tmp_path):
        index_dir = build(tmp_path)
        with XKSearch.open(index_dir, load_document=False) as system:
            want = list(system.search_ids(QUERY))
            before = corruption_count("segment")
            faultinject.arm("corrupt-block:times=1")
            try:
                assert system.index.segments_active()
                assert list(system.search_ids(QUERY)) == want
                assert not system.index.segments_active()
            finally:
                faultinject.reset_plan()
            assert corruption_count("segment") == before + 1
            assert list(system.search_ids(QUERY)) == want


class TestTransparentReanswer:
    def test_corrupt_segment_falls_back_to_bptree_byte_identical(self, tmp_path):
        index_dir = build(tmp_path)
        with XKSearch.open(index_dir, load_document=False) as reference:
            want = {
                q: list(reference.search_ids(q))
                for q in (QUERY, "xkmid xkbig", "xkrare xkmid")
            }
        corrupt_segment_block(index_dir, "xkrare")
        before = corruption_count("segment")
        with XKSearch.open(
            index_dir, load_document=False, verify_checksums=True
        ) as system:
            assert system.index.segments_active()
            for q, expected in want.items():
                assert list(system.search_ids(q)) == expected, q
            # The corrupt block was hit, quarantined, and every answer
            # came back byte-identical from the B+tree tier.
            assert not system.index.segments_active()
        assert corruption_count("segment") == before + 1

    def test_quarantine_persists_for_later_queries(self, tmp_path):
        index_dir = build(tmp_path)
        corrupt_segment_block(index_dir, "xkrare")
        with XKSearch.open(
            index_dir, load_document=False, verify_checksums=True
        ) as system:
            first = list(system.search_ids(QUERY))
            assert not system.index.segments_active()
            # Subsequent queries go straight to the B+trees — no second
            # corruption event, same answers.
            before = corruption_count("segment")
            assert list(system.search_ids(QUERY)) == first
            assert corruption_count("segment") == before


class TestPagerChecksums:
    def test_sidecar_written_at_build(self, tmp_path):
        index_dir = build(tmp_path)
        assert os.path.exists(
            crc_sidecar_path(os.path.join(index_dir, INDEX_FILE_NAME))
        )

    def test_corrupt_page_detected(self, tmp_path):
        index_dir = build(tmp_path)
        index_file = os.path.join(index_dir, INDEX_FILE_NAME)
        with open(index_file, "r+b") as fh:
            fh.seek(1024 + 17)  # inside data page 1 (page size 1024)
            byte = fh.read(1)[0]
            fh.seek(1024 + 17)
            fh.write(bytes([byte ^ 0x01]))
        before = corruption_count("bptree")
        with Pager(index_file, readonly=True, verify_checksums=True) as pager:
            with pytest.raises(CorruptionError) as excinfo:
                pager.read_page(1)
            assert excinfo.value.tier == "bptree"
        assert corruption_count("bptree") == before + 1

    def test_verification_off_by_default(self, tmp_path):
        index_dir = build(tmp_path)
        index_file = os.path.join(index_dir, INDEX_FILE_NAME)
        with open(index_file, "r+b") as fh:
            fh.seek(1024 + 17)
            byte = fh.read(1)[0]
            fh.seek(1024 + 17)
            fh.write(bytes([byte ^ 0x01]))
        with Pager(index_file, readonly=True) as pager:
            pager.read_page(1)  # trusted read: no checksum, no raise

    def test_rebuild_refreshes_sidecar(self, tmp_path):
        # Rebuilding into the same directory must not leave stale
        # checksums behind — a fresh build passes verification.
        index_dir = build(tmp_path)
        tree = dblp_like_tree(6, venues=2, years_per_venue=2, papers_per_year=5)
        plant_keywords(tree, {"xkrare": 3, "xkmid": 8, "xkbig": 12}, seed=2)
        build_index(tree, index_dir, page_size=1024)
        with XKSearch.open(
            index_dir, load_document=False, verify_checksums=True
        ) as system:
            assert list(system.search_ids("xkrare xkbig")) == list(
                system.search_ids("xkrare xkbig")
            )


class TestFsck:
    def test_clean_index_passes(self, tmp_path):
        index_dir = build(tmp_path)
        report = fsck_index(index_dir)
        assert report.ok, report.summary()
        # fsck runs strictly more checks than verify.
        assert report.checks > verify_index(index_dir).checks

    def test_fsck_catches_segment_corruption(self, tmp_path):
        index_dir = build(tmp_path)
        corrupt_segment_block(index_dir, "xkbig")
        report = fsck_index(index_dir)
        assert not report.ok
        assert any("segment block" in error for error in report.errors)

    def test_fsck_reports_manifest_file_version_mismatch(self, tmp_path):
        index_dir = build(tmp_path)
        manifest_path = os.path.join(index_dir, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["segments"]["version"] = 1
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        report = fsck_index(index_dir)
        assert not report.ok
        assert any(
            "manifest records segments version 1" in error for error in report.errors
        )

    def test_fsck_catches_page_corruption(self, tmp_path):
        index_dir = build(tmp_path)
        index_file = os.path.join(index_dir, INDEX_FILE_NAME)
        with open(index_file, "r+b") as fh:
            fh.seek(1024 + 900)  # padding-ish region structural checks miss
            byte = fh.read(1)[0]
            fh.seek(1024 + 900)
            fh.write(bytes([byte ^ 0x01]))
        report = fsck_index(index_dir)
        assert not report.ok
        assert any("page" in error for error in report.errors)
