"""End-to-end tests for the XKSearch facade."""

import os

import pytest

from repro.xksearch.engine import ExecutionStats
from repro.xksearch.system import XKSearch
from repro.xmltree.generate import school_xml


@pytest.fixture
def school_file(tmp_path):
    path = tmp_path / "school.xml"
    path.write_text(school_xml(), encoding="utf-8")
    return path


class TestBuildAndOpen:
    def test_build_from_file(self, school_file, tmp_path):
        with XKSearch.build(school_file, tmp_path / "idx") as system:
            assert len(system.search("john ben")) == 3

    def test_build_from_tree(self, school, tmp_path):
        with XKSearch.build(school, tmp_path / "idx") as system:
            assert len(system.search("john ben")) == 3

    def test_reopen_matches_fresh_build(self, school_file, tmp_path):
        XKSearch.build(school_file, tmp_path / "idx").close()
        with XKSearch.open(tmp_path / "idx") as system:
            results = system.search("john ben")
            assert [r.dewey for r in results] == [(0, 0), (0, 1), (0, 2, 0)]
            assert results[0].snippet is not None

    def test_open_without_document(self, school_file, tmp_path):
        XKSearch.build(school_file, tmp_path / "idx", keep_document=False).close()
        with XKSearch.open(tmp_path / "idx") as system:
            results = system.search("john ben")
            assert results[0].snippet is None
            assert [r.dewey for r in results] == [(0, 0), (0, 1), (0, 2, 0)]

    def test_open_load_document_false(self, school_file, tmp_path):
        XKSearch.build(school_file, tmp_path / "idx").close()
        with XKSearch.open(tmp_path / "idx", load_document=False) as system:
            assert system.tree is None
            assert len(system.search("john ben")) == 3

    def test_from_tree_no_disk(self, school):
        system = XKSearch.from_tree(school)
        assert len(system.search("john ben")) == 3
        system.close()  # no-op for memory index


class TestSearchSurface:
    def test_limit(self, school):
        system = XKSearch.from_tree(school)
        assert len(system.search("john ben", limit=2)) == 2
        for search in (system.search, system.search_ranked):
            assert search("john ben", limit=0) == []
            for bad in (-1, -3):
                with pytest.raises(ValueError):
                    search("john ben", limit=bad)

    def test_search_ids_streams(self, school):
        system = XKSearch.from_tree(school)
        stream = system.search_ids("john ben")
        assert next(stream) == (0, 0)

    def test_search_with_stats(self, school):
        system = XKSearch.from_tree(school)
        stats = ExecutionStats()
        list(system.search_ids("john ben", algorithm="il", stats=stats))
        assert stats.counters.results == 3

    def test_all_lcas(self, school):
        system = XKSearch.from_tree(school)
        results = system.search_all_lcas("john ben")
        assert [r.dewey for r in results] == [(0,), (0, 0), (0, 1), (0, 2, 0)]
        assert results[0].path == "School"

    def test_explain(self, school):
        system = XKSearch.from_tree(school)
        plan = system.explain("title john")
        assert plan.keywords[0] == "john"  # 3 < 4

    def test_algorithms_agree(self, school):
        system = XKSearch.from_tree(school)
        want = [r.dewey for r in system.search("john ben", algorithm="il")]
        for algorithm in ("scan", "stack"):
            got = [r.dewey for r in system.search("john ben", algorithm=algorithm)]
            assert got == want

    def test_query_with_absent_word(self, school):
        system = XKSearch.from_tree(school)
        assert system.search("john xyzzy") == []

    def test_witnesses_on_results(self, school):
        system = XKSearch.from_tree(school)
        result = system.search("john ben")[0]
        assert result.witnesses["john"] == [(0, 0, 1, 0)]
