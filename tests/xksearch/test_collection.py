"""Unit tests for multi-document collections."""

import pytest

from repro.errors import QueryError
from repro.xksearch.collection import XMLCollection
from repro.xmltree.generate import dblp_like_tree, plant_keywords, school_tree, school_xml
from repro.xmltree.parser import parse
from repro.xmltree.tree import renumber_subtree


@pytest.fixture
def collection():
    school = school_tree()
    dblp = dblp_like_tree(3, venues=2, years_per_venue=2, papers_per_year=4)
    plant_keywords(dblp, {"john": 2}, seed=1)
    return XMLCollection({"school.xml": school, "dblp.xml": dblp})


class TestRenumber:
    def test_renumber_rewrites_whole_subtree(self):
        tree = parse("<a><b><c/></b><d/></a>")
        renumber_subtree(tree.root, (0, 5))
        assert tree.root.dewey == (0, 5)
        assert tree.root.children[0].children[0].dewey == (0, 5, 0, 0)
        assert tree.root.children[1].dewey == (0, 5, 1)

    def test_renumber_keeps_document_order(self):
        tree = parse("<a><b>x</b><c><d/></c></a>")
        renumber_subtree(tree.root, (0, 2))
        deweys = [n.dewey for n in tree.root.iter_subtree()]
        assert deweys == sorted(deweys)

    def test_deep_tree_no_recursion_error(self):
        text = "<r>" + "<x>" * 3000 + "</x>" * 3000 + "</r>"
        import sys

        old = sys.getrecursionlimit()
        sys.setrecursionlimit(5000)
        try:
            tree = parse(text)
        finally:
            sys.setrecursionlimit(old)
        renumber_subtree(tree.root, (0, 1))
        assert tree.root.dewey == (0, 1)


class TestCollection:
    def test_documents_listed(self, collection):
        assert collection.documents == ["school.xml", "dblp.xml"]
        assert len(collection) == 2

    def test_answers_attributed_to_documents(self, collection):
        results = collection.search("john ben")
        assert all(r.document == "school.xml" for r in results)
        assert [r.dewey for r in results] == [(0, 0), (0, 1), (0, 2, 0)]

    def test_local_deweys_are_document_space(self, collection):
        result = collection.search("john ben")[0]
        # (0, 0) is the first Class *within School.xml*, not the global id.
        assert result.dewey == (0, 0)
        assert result.result.witnesses["john"] == [(0, 0, 1, 0)]

    def test_single_keyword_spans_documents(self, collection):
        docs = {r.document for r in collection.search("john")}
        assert docs == {"school.xml", "dblp.xml"}

    def test_cross_document_pseudo_answer_filtered(self):
        # "alpha" only in doc1, "beta" only in doc2: the only common
        # subtree is the collection root, which must be filtered out.
        doc1 = parse("<a>alpha</a>")
        doc2 = parse("<b>beta</b>")
        collection = XMLCollection({"one": doc1, "two": doc2})
        assert collection.search("alpha beta") == []

    def test_path_strips_collection_root(self, collection):
        result = collection.search("john ben")[0]
        assert result.result.path == "School/Class"

    def test_documents_matching(self, collection):
        assert collection.documents_matching("john ben") == ["school.xml"]

    def test_explain_uses_combined_frequencies(self, collection):
        plan = collection.explain("john")
        assert plan.frequencies == [5]  # 3 in school + 2 planted in dblp

    def test_limit(self, collection):
        assert len(collection.search("john ben", limit=2)) == 2
        assert collection.search("john ben", limit=0) == []
        with pytest.raises(ValueError):
            collection.search("john ben", limit=-1)

    def test_str_of_result(self, collection):
        result = collection.search("john ben")[0]
        assert str(result).startswith("school.xml: 0.0")

    def test_empty_collection_rejected(self):
        with pytest.raises(QueryError):
            XMLCollection({})

    def test_from_files(self, tmp_path):
        for name in ("a.xml", "b.xml"):
            (tmp_path / name).write_text(school_xml(), encoding="utf-8")
        collection = XMLCollection.from_files(
            [tmp_path / "a.xml", tmp_path / "b.xml"]
        )
        results = collection.search("john ben")
        # Both copies contain the same three answers.
        assert len(results) == 6
        assert {r.document for r in results} == {"a.xml", "b.xml"}

    def test_algorithms_agree_on_collection(self, collection):
        baseline = [(r.document, r.dewey) for r in collection.search("john", "il")]
        for algorithm in ("scan", "stack"):
            got = [(r.document, r.dewey) for r in collection.search("john", algorithm)]
            assert got == baseline
