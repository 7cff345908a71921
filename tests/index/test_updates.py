"""Unit tests for incremental index maintenance."""

import pytest

from repro.core import eager_slca, slca
from repro.errors import DeweyError
from repro.index.builder import build_index
from repro.index.inverted import DiskKeywordIndex
from repro.index.updates import IndexUpdater
from repro.xmltree.generate import dblp_like_tree, plant_keywords
from repro.xmltree.parser import parse
from repro.xmltree.tree import renumber_subtree


@pytest.fixture
def indexed(tmp_path):
    tree = dblp_like_tree(8, venues=2, years_per_venue=2, papers_per_year=6)
    plant_keywords(tree, {"xka": 6, "xkb": 12}, seed=4)
    target = tmp_path / "idx"
    build_index(tree, target, page_size=1024)
    return target, tree


class TestAddPostings:
    def test_new_keyword(self, indexed):
        target, _ = indexed
        with IndexUpdater(target) as updater:
            added = updater.add_postings(
                {"zzz": [((0, 0, 1, 1, 0, 0), "title"), ((0, 1, 2, 3, 0, 0), "title")]}
            )
        assert added == 2
        with DiskKeywordIndex(target) as index:
            assert index.frequency("zzz") == 2
            assert index.keyword_list("zzz") == [
                (0, 0, 1, 1, 0, 0),
                (0, 1, 2, 3, 0, 0),
            ]

    def test_extend_existing_keyword(self, indexed):
        target, tree = indexed
        before = len(tree.keyword_lists()["xka"])
        with IndexUpdater(target) as updater:
            assert updater.add_postings({"xka": [((0, 0, 1, 2, 0, 0), "title")]}) == 1
        with DiskKeywordIndex(target) as index:
            assert index.frequency("xka") == before + 1

    def test_duplicate_add_updates_tag_only(self, indexed):
        target, _ = indexed
        with IndexUpdater(target) as updater:
            updater.add_postings({"zzz": [((0, 0, 1, 1, 0, 0), "title")]})
            assert updater.add_postings({"zzz": [((0, 0, 1, 1, 0, 0), "author")]}) == 0
        with DiskKeywordIndex(target) as index:
            assert index.frequency("zzz") == 1
            assert dict(index.scan_tagged("zzz"))[(0, 0, 1, 1, 0, 0)] == "author"

    def test_oversized_dewey_rejected(self, indexed):
        target, _ = indexed
        with IndexUpdater(target) as updater:
            with pytest.raises(DeweyError):
                updater.add_postings({"zzz": [((0, 99), "")]})

    def test_lookup_paths_consistent_after_add(self, indexed):
        target, _ = indexed
        with IndexUpdater(target) as updater:
            updater.add_postings({"zzz": [((0, 0, 1, 1, 0, 0), ""), ((0, 1, 1, 1, 0, 0), "")]})
        with DiskKeywordIndex(target) as index:
            il = list(eager_slca(index.sources_for(("zzz", "xkb"), "indexed")))
            scan = list(eager_slca(index.sources_for(("zzz", "xkb"), "scan")))
            assert il == scan


class TestRemovePostings:
    def test_remove_and_requery(self, indexed):
        target, tree = indexed
        victims = tree.keyword_lists()["xka"][:2]
        with IndexUpdater(target) as updater:
            assert updater.remove_postings({"xka": victims}) == 2
        with DiskKeywordIndex(target) as index:
            remaining = index.keyword_list("xka")
            assert len(remaining) == 4
            assert not set(victims) & set(remaining)
            # The engine agrees with a fresh in-memory computation.
            want = slca([remaining, index.keyword_list("xkb")])
            got = list(eager_slca(index.sources_for(("xka", "xkb"), "indexed")))
            assert got == want

    def test_remove_nonexistent_is_zero(self, indexed):
        target, _ = indexed
        with IndexUpdater(target) as updater:
            assert updater.remove_postings({"xka": [(0, 1, 1, 1, 1, 0)]}) in (0, 1)
            assert updater.remove_postings({"ghost": [(0, 0, 1, 1, 0, 0)]}) == 0

    def test_remove_all_drops_keyword(self, indexed):
        target, tree = indexed
        with IndexUpdater(target) as updater:
            updater.remove_postings({"xka": tree.keyword_lists()["xka"]})
        with DiskKeywordIndex(target) as index:
            assert index.frequency("xka") == 0
            assert index.keyword_list("xka") == []
            assert "xka" not in index


class TestSubtrees:
    def test_add_subtree(self, indexed):
        target, _ = indexed
        fragment = parse("<paper><title>fresh unseen words</title></paper>")
        renumber_subtree(fragment.root, (0, 1, 2, 4))
        with IndexUpdater(target) as updater:
            added = updater.add_subtree(fragment.root)
        assert added > 0
        with DiskKeywordIndex(target) as index:
            assert index.keyword_list("unseen") == [(0, 1, 2, 4, 0, 0)]
            # element tags are indexed too
            assert (0, 1, 2, 4) in index.keyword_list("paper")

    def test_remove_subtree_inverts_add(self, indexed):
        target, _ = indexed
        fragment = parse("<paper><title>fresh unseen words</title></paper>")
        renumber_subtree(fragment.root, (0, 1, 2, 4))
        with IndexUpdater(target) as updater:
            updater.add_subtree(fragment.root)
        with IndexUpdater(target) as updater:
            updater.remove_subtree(fragment.root)
        with DiskKeywordIndex(target) as index:
            assert index.keyword_list("unseen") == []


class TestMetadata:
    def test_manifest_postings_updated(self, indexed):
        target, _ = indexed
        from repro.index.builder import load_manifest

        before = load_manifest(target)["postings"]
        with IndexUpdater(target) as updater:
            updater.add_postings({"zzz": [((0, 0, 1, 1, 0, 0), "")]})
        after = load_manifest(target)
        assert after["postings"] == before + 1

    def test_stored_document_invalidated(self, indexed):
        target, _ = indexed
        assert (target / "document.xml").exists()
        with IndexUpdater(target) as updater:
            updater.add_postings({"zzz": [((0, 0, 1, 1, 0, 0), "")]})
        assert not (target / "document.xml").exists()
        from repro.index.builder import load_manifest

        assert load_manifest(target)["has_document"] is False

    def test_net_zero_batch_invalidates_stored_document(self, indexed):
        """As many postings out as in: the total is unchanged, the contents
        are not, and the stored document no longer matches them."""
        target, tree = indexed
        from repro.index.builder import load_manifest

        before = load_manifest(target)["postings"]
        victim = tree.keyword_lists()["xka"][0]
        with IndexUpdater(target) as updater:
            assert updater.remove_postings({"xka": [victim]}) == 1
            assert updater.add_postings({"zzz": [((0, 0, 1, 1, 0, 0), "")]}) == 1
        manifest = load_manifest(target)
        assert manifest["postings"] == before
        assert manifest["has_document"] is False
        assert not (target / "document.xml").exists()

    def test_noop_update_keeps_document(self, indexed):
        target, _ = indexed
        with IndexUpdater(target):
            pass
        assert (target / "document.xml").exists()

    def test_new_tags_persisted(self, indexed):
        target, _ = indexed
        with IndexUpdater(target) as updater:
            updater.add_postings({"zzz": [((0, 0, 1, 1, 0, 0), "brandnewtag")]})
        with DiskKeywordIndex(target) as index:
            assert "brandnewtag" in index.tags
            assert index.keyword_list("zzz", tag="brandnewtag") == [(0, 0, 1, 1, 0, 0)]

    def test_close_idempotent(self, indexed):
        target, _ = indexed
        updater = IndexUpdater(target)
        updater.close()
        updater.close()


class TestScanBlockRewrite:
    def test_many_small_blocks_survive_update(self, tmp_path):
        lists = {"a": [(0, i) for i in range(0, 400, 2)]}
        build_index(lists, tmp_path / "i", scan_block_budget=32)
        with IndexUpdater(tmp_path / "i") as updater:
            updater.add_postings({"a": [((0, j), "") for j in range(1, 400, 2)]})
        with DiskKeywordIndex(tmp_path / "i") as index:
            assert index.keyword_list("a") == [(0, i) for i in range(400)]

    def test_shrinking_blocks_removes_stale_tail(self, tmp_path):
        lists = {"a": [(0, i) for i in range(300)]}
        build_index(lists, tmp_path / "i", scan_block_budget=32)
        with IndexUpdater(tmp_path / "i") as updater:
            updater.remove_postings({"a": [(0, i) for i in range(10, 300)]})
        with DiskKeywordIndex(tmp_path / "i") as index:
            assert index.keyword_list("a") == [(0, i) for i in range(10)]
