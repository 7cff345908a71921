"""Unit tests for the command-line interface (in-process)."""

import pytest

from repro.xksearch.cli import main
from repro.xmltree.generate import school_xml


@pytest.fixture
def school_file(tmp_path):
    path = tmp_path / "school.xml"
    path.write_text(school_xml(), encoding="utf-8")
    return str(path)


@pytest.fixture
def index_dir(school_file, tmp_path):
    target = str(tmp_path / "idx")
    assert main(["build", school_file, target]) == 0
    return target


class TestBuild:
    def test_build_reports_counts(self, school_file, tmp_path, capsys):
        assert main(["build", school_file, str(tmp_path / "i")]) == 0
        out = capsys.readouterr().out
        assert "postings" in out and "keywords" in out

    def test_build_custom_page_size(self, school_file, tmp_path, capsys):
        assert main(["build", school_file, str(tmp_path / "i"), "--page-size", "512"]) == 0
        assert "512" in capsys.readouterr().out

    def test_build_varint_codec(self, school_file, tmp_path, capsys):
        assert main(["build", school_file, str(tmp_path / "i"), "--codec", "varint"]) == 0
        assert "varint" in capsys.readouterr().out

    def test_build_missing_file_fails(self, tmp_path, capsys):
        rc = main(["build", str(tmp_path / "ghost.xml"), str(tmp_path / "i")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_build_bad_xml_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b></a>", encoding="utf-8")
        rc = main(["build", str(bad), str(tmp_path / "i")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSearch:
    def test_search_prints_answers(self, index_dir, capsys):
        assert main(["search", index_dir, "John Ben"]) == 0
        out = capsys.readouterr().out
        assert "3 SLCA answer(s)" in out
        assert "0.2.0" in out

    def test_search_ids_only(self, index_dir, capsys):
        assert main(["search", index_dir, "John Ben", "--ids-only"]) == 0
        out = capsys.readouterr().out
        assert "<Class>" not in out

    def test_search_limit(self, index_dir, capsys):
        assert main(["search", index_dir, "John Ben", "--limit", "1"]) == 0
        assert "1 SLCA answer(s)" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["search", index_dir, "John Ben", "--limit", "-1"])
        assert excinfo.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err

    def test_search_algorithm_flag(self, index_dir, capsys):
        assert main(["search", index_dir, "John Ben", "--algorithm", "stack"]) == 0
        assert "algorithm=stack" in capsys.readouterr().out

    def test_search_lca_mode(self, index_dir, capsys):
        assert main(["search", index_dir, "John Ben", "--lca"]) == 0
        assert "4 LCA answer(s)" in capsys.readouterr().out

    def test_search_no_hits(self, index_dir, capsys):
        assert main(["search", index_dir, "zebra quux"]) == 0
        assert "0 SLCA answer(s)" in capsys.readouterr().out

    def test_search_missing_index_errors(self, tmp_path, capsys):
        rc = main(["search", str(tmp_path / "ghost"), "x"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_stats_output(self, index_dir, capsys):
        assert main(["stats", index_dir]) == 0
        out = capsys.readouterr().out
        assert "codec: packed" in out
        assert "postings" in out

    def test_stats_top_keywords(self, index_dir, capsys):
        assert main(["stats", index_dir, "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "top 2 keywords" in out
