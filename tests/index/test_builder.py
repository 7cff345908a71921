"""Unit tests for the index builder."""

import json
import os

import pytest

from repro.errors import IndexFormatError, IndexNotFoundError
from repro.index.builder import (
    FORMAT_VERSION,
    IndexBuildReport,
    build_index,
    load_manifest,
    make_codec,
)
from repro.index.inverted import DiskKeywordIndex
from repro.index.updates import IndexUpdater
from repro.storage.records import keyword_range
from repro.workloads.datasets import PlantedCorpus
from repro.xmltree.codec import PackedDeweyCodec, VarintDeweyCodec
from repro.xmltree.level_table import LevelTable


class TestBuildFromTree:
    def test_files_created(self, tmp_path, school):
        build_index(school, tmp_path / "idx")
        for name in ("manifest.json", "level_table.json", "frequency.json", "index.db"):
            assert (tmp_path / "idx" / name).exists(), name

    def test_document_stored_by_default(self, tmp_path, school):
        build_index(school, tmp_path / "idx")
        assert (tmp_path / "idx" / "document.xml").exists()

    def test_document_omitted_on_request(self, tmp_path, school):
        build_index(school, tmp_path / "idx", keep_document=False)
        assert not (tmp_path / "idx" / "document.xml").exists()

    def test_report_counts(self, tmp_path, school):
        report = build_index(school, tmp_path / "idx")
        lists = school.keyword_lists()
        assert report.keywords == len(lists)
        assert report.postings == sum(len(lst) for lst in lists.values())
        assert report.bytes_on_disk == report.pages * report.page_size

    def test_roundtrip_all_keyword_lists(self, tmp_path, planted_dblp):
        build_index(planted_dblp, tmp_path / "idx", page_size=1024)
        lists = planted_dblp.keyword_lists()
        with DiskKeywordIndex(tmp_path / "idx") as index:
            for keyword, want in lists.items():
                assert index.keyword_list(keyword) == want, keyword


class TestBuildFromLists:
    def test_lists_without_level_table(self, tmp_path):
        lists = {"a": [(0, 1), (0, 5, 3)], "b": [(0, 2)]}
        build_index(lists, tmp_path / "idx")
        with DiskKeywordIndex(tmp_path / "idx") as index:
            assert index.keyword_list("a") == lists["a"]
            assert index.frequency("b") == 1

    def test_explicit_level_table(self, tmp_path):
        lists = {"a": [(0, 1)]}
        table = LevelTable([100, 100])
        build_index(lists, tmp_path / "idx", level_table=table)
        with DiskKeywordIndex(tmp_path / "idx") as index:
            assert index.level_table == table

    def test_unsorted_list_rejected(self, tmp_path):
        with pytest.raises(IndexFormatError, match="sorted"):
            build_index({"a": [(0, 2), (0, 1)]}, tmp_path / "idx")

    def test_no_document_for_list_source(self, tmp_path):
        build_index({"a": [(0, 1)]}, tmp_path / "idx", keep_document=True)
        assert not (tmp_path / "idx" / "document.xml").exists()


class TestCodecs:
    def test_varint_codec_roundtrips(self, tmp_path, school):
        build_index(school, tmp_path / "idx", codec="varint")
        lists = school.keyword_lists()
        with DiskKeywordIndex(tmp_path / "idx") as index:
            assert index.manifest["codec"] == "varint"
            assert index.keyword_list("john") == lists["john"]

    def test_unknown_codec_rejected(self, tmp_path, school):
        with pytest.raises(IndexFormatError, match="codec"):
            build_index(school, tmp_path / "idx", codec="gzip")

    def test_make_codec(self):
        table = LevelTable([4])
        assert isinstance(make_codec("packed", table), PackedDeweyCodec)
        assert isinstance(make_codec("varint", table), VarintDeweyCodec)


class TestManifest:
    def test_load_manifest(self, tmp_path, school):
        build_index(school, tmp_path / "idx")
        manifest = load_manifest(tmp_path / "idx")
        assert manifest["version"] == FORMAT_VERSION == 3
        assert manifest["codec"] == "packed"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IndexNotFoundError):
            load_manifest(tmp_path / "nowhere")

    def test_wrong_version_rejected(self, tmp_path, school):
        build_index(school, tmp_path / "idx")
        path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(IndexFormatError, match="version"):
            load_manifest(tmp_path / "idx")

    def test_old_page_format_refused_with_rebuild_advice(self, tmp_path, school, capsys):
        from repro.xksearch.cli import main

        target = tmp_path / "idx"
        build_index(school, target)
        path = target / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 1  # B+tree leaves before the slotted format
        path.write_text(json.dumps(manifest))
        advice = r"predates the current page format \(version 3\); rebuild .*`xksearch build`"
        with pytest.raises(IndexFormatError, match=advice):
            load_manifest(target)
        # Readers and the updater stop at the same check, before any page.
        with pytest.raises(IndexFormatError, match=advice):
            DiskKeywordIndex(target)
        with pytest.raises(IndexFormatError, match=advice):
            IndexUpdater(target)
        assert main(["serve", str(target), "--port", "0"]) == 1
        assert "predates the current page format" in capsys.readouterr().err

    def test_unprefixed_leaf_format_refused_with_rebuild_advice(self, tmp_path, school):
        # Version 2 leaves repeat each key in full: readers and the updater
        # both refuse them before reading a page, and say how to recover.
        target = tmp_path / "idx"
        build_index(school, target)
        path = target / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 2
        path.write_text(json.dumps(manifest))
        advice = (
            r"\(format version 2\) predates the current page format \(version 3\); "
            r"rebuild it from its document with `xksearch build`"
        )
        for open_index in (DiskKeywordIndex, IndexUpdater):
            with pytest.raises(IndexFormatError, match=advice):
                open_index(target)


class TestSpace:
    def test_il_tree_stores_each_leaf_prefix_once(self, tmp_path):
        # A seeded planted corpus (58 880 postings, 4 KiB pages).  With
        # every IL key in full its tree takes 20.7 B per posting; storing
        # each leaf's shared prefix once brings it to 10.4.  Scan blocks
        # hold no composite keys, so their 7.03 B must not grow.
        corpus = PlantedCorpus.for_frequencies(
            [(10, 8), (100, 8), (1000, 8), (3000, 10), (10000, 2)], seed=2005
        )
        report = build_index(corpus.lists, tmp_path / "idx")

        def bytes_per_posting(tree):
            pages = len(tree.leaf_page_ids()) + len(tree.internal_page_ids())
            return pages * report.page_size / report.postings

        with DiskKeywordIndex(tmp_path / "idx") as index:
            assert bytes_per_posting(index.il_tree) <= 11.0
            assert bytes_per_posting(index.scan_tree) <= 7.03

    def test_scan_blocks_read_fewer_leaves_than_the_il_chain(self, tmp_path):
        # docs/ABLATIONS.md keeps the scan B+tree because a cold scan of a
        # list reads its blocks in about two thirds of the leaves an IL
        # range scan needs (17 vs 25 and 17 vs 26 for the two 10 000-
        # posting lists here).  Internal pages are pinned, so every cold
        # read is a leaf.
        corpus = PlantedCorpus.for_frequencies(
            [(10, 8), (100, 8), (1000, 8), (3000, 10), (10000, 2)], seed=2005
        )
        build_index(corpus.lists, tmp_path / "idx")
        leaves = {"scan": 0, "il": 0}
        with DiskKeywordIndex(tmp_path / "idx") as index:
            for keyword in ("xk10000_0", "xk10000_1"):
                assert len(corpus.lists[keyword]) == 10000
                for name, tree in (("scan", index.scan_tree), ("il", index.il_tree)):
                    index.make_cold()
                    before = index.io_snapshot()
                    for _ in tree.scan(*keyword_range(keyword)):
                        pass
                    leaves[name] += index.pager.stats.delta(before).reads
        assert leaves["scan"] <= 0.7 * leaves["il"], leaves


class TestScanBlocks:
    def test_small_block_budget_many_blocks(self, tmp_path):
        lists = {"a": [(0, i) for i in range(100)]}
        build_index(lists, tmp_path / "idx", scan_block_budget=16)
        with DiskKeywordIndex(tmp_path / "idx") as index:
            assert index.keyword_list("a") == lists["a"]

    def test_page_size_sweep(self, tmp_path, planted_dblp):
        lists = planted_dblp.keyword_lists()
        for page_size in (512, 2048, 8192):
            target = tmp_path / f"idx{page_size}"
            build_index(planted_dblp, target, page_size=page_size)
            with DiskKeywordIndex(target) as index:
                assert index.keyword_list("xkmid") == lists["xkmid"]
