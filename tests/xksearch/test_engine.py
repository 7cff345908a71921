"""Unit tests for the query engine."""

import pytest

from repro.errors import QueryError
from repro.index.memory import MemoryKeywordIndex
from repro.xksearch.engine import (
    DEFAULT_SKEW_THRESHOLD,
    ExecutionStats,
    QueryEngine,
    normalize_query,
)


@pytest.fixture
def engine(school):
    return QueryEngine(MemoryKeywordIndex.from_tree(school))


class TestNormalizeQuery:
    def test_string_tokenized(self):
        assert normalize_query("John, Ben!") == ["john", "ben"]

    def test_sequence_tokenized(self):
        assert normalize_query(["John", "Ben Smith"]) == ["john", "ben", "smith"]

    def test_duplicates_collapse(self):
        assert normalize_query("john JOHN ben") == ["john", "ben"]

    def test_empty_raises(self):
        with pytest.raises(QueryError):
            normalize_query("  ,,, ")

    def test_empty_list_raises(self):
        with pytest.raises(QueryError):
            normalize_query([])


class TestPlanning:
    def test_rarest_keyword_leads(self, engine):
        plan = engine.plan("class john")  # class:2, john:3
        assert plan.keywords == ["class", "john"]
        assert plan.frequencies == [2, 3]

    def test_missing_keyword_marks_empty(self, engine):
        plan = engine.plan("john zebra")
        assert plan.empty
        assert plan.frequencies[0] == 0

    def test_auto_picks_scan_for_similar_frequencies(self, engine):
        plan = engine.plan("john ben")  # 3 vs 3
        assert plan.algorithm == "scan"

    def test_auto_picks_il_for_skewed_frequencies(self):
        lists = {
            "rare": [(0, 1)],
            "common": [(0, i, 0) for i in range(50)],
        }
        engine = QueryEngine(MemoryKeywordIndex(lists))
        plan = engine.plan("rare common")
        assert plan.skew == 50.0 >= DEFAULT_SKEW_THRESHOLD
        assert plan.algorithm == "il"

    def test_explicit_algorithm_respected(self, engine):
        assert engine.plan("john ben", algorithm="stack").algorithm == "stack"

    def test_unknown_algorithm_rejected(self, engine):
        with pytest.raises(QueryError, match="unknown algorithm"):
            engine.plan("john", algorithm="magic")

    def test_skew_with_empty_list_is_inf(self, engine):
        assert engine.plan("john zebra").skew == float("inf")

    def test_custom_threshold(self):
        lists = {"a": [(0, 1)], "b": [(0, 1), (0, 2)]}
        engine = QueryEngine(MemoryKeywordIndex(lists), skew_threshold=2.0)
        assert engine.plan("a b").algorithm == "il"


class TestExecution:
    def test_paper_example_all_algorithms(self, engine):
        want = [(0, 0), (0, 1), (0, 2, 0)]
        for algorithm in ("auto", "il", "scan", "stack"):
            assert list(engine.execute("john ben", algorithm)) == want, algorithm

    def test_missing_keyword_gives_empty(self, engine):
        assert list(engine.execute("john zebra")) == []

    def test_single_keyword(self, engine):
        got = list(engine.execute("john"))
        assert len(got) == 3  # three disjoint John nodes

    def test_stats_populated(self, engine):
        stats = ExecutionStats()
        list(engine.execute("john ben", "il", stats))
        assert stats.counters.candidates == 3
        assert stats.counters.match_ops > 0

    def test_execute_plan_directly(self, engine):
        plan = engine.plan("john ben", algorithm="stack")
        assert list(engine.execute_plan(plan)) == [(0, 0), (0, 1), (0, 2, 0)]

    def test_execute_all_lca(self, engine):
        got = sorted(engine.execute_all_lca("john ben"))
        assert got == [(0,), (0, 0), (0, 1), (0, 2, 0)]

    def test_execute_all_lca_missing_keyword(self, engine):
        assert list(engine.execute_all_lca("john zebra")) == []

    def test_results_streamed(self, engine):
        stream = engine.execute("john ben", "il")
        assert next(stream) == (0, 0)


class TestTypeHints:
    def test_queryplan_annotations_resolve(self):
        # Regression: QueryPlan's annotations reference Dict; the module
        # must import every name its annotations use, or postponed
        # evaluation (PEP 563) blows up on resolution.
        from typing import get_type_hints

        import repro.xksearch.engine as engine_module
        from repro.xksearch.engine import QueryPlan

        hints = get_type_hints(QueryPlan, vars(engine_module))
        assert "filtered" in hints and "keywords" in hints


class TestExecuteMany:
    def test_batch_matches_singles(self, engine):
        queries = ["john ben", "class smith", "john", "ben john"]
        batch = engine.execute_many(queries)
        assert batch == [list(engine.execute(q)) for q in queries]

    def test_batch_rejects_unknown_algorithm(self, engine):
        with pytest.raises(QueryError):
            engine.execute_many(["john"], algorithm="warp")

    def test_batch_accumulates_stats(self, engine):
        stats = ExecutionStats()
        engine.execute_many(["john ben", "ben john"], stats=stats)
        assert stats.counters.lca_ops > 0

    def test_results_are_defensive_copies(self, engine):
        # Two queries deduplicating to the same answer must get
        # independent lists: mutating one cannot corrupt the other.
        batch = engine.execute_many(["john ben", "ben john", "john ben"])
        assert batch[0] == batch[1] == batch[2]
        assert batch[0] is not batch[1] and batch[0] is not batch[2]
        pristine = list(batch[1])
        batch[0].append(("poison",))
        batch[0][0] = ("clobbered",)
        assert batch[1] == pristine
        assert batch[2] == pristine

    def test_mutation_does_not_corrupt_cache(self, school):
        from repro.xksearch.cache import QueryCache

        cached = QueryEngine(MemoryKeywordIndex.from_tree(school), cache=QueryCache())
        first = cached.execute_many(["john ben"])[0]
        pristine = list(first)
        first.append(("poison",))
        # A later batch served from the cache is unaffected.
        again = cached.execute_many(["ben john"])[0]
        assert again == pristine
        assert list(cached.execute("john ben")) == pristine


class TestRecordingRule:
    """An execution that raises is not recorded; one the consumer closes
    early is.  The rule is the same with and without a result cache."""

    @pytest.fixture(scope="class")
    def dblp_index(self, tmp_path_factory):
        from repro.index.inverted import DiskKeywordIndex
        from repro.xksearch.system import XKSearch
        from repro.xmltree.generate import dblp_like_tree

        index_dir = tmp_path_factory.mktemp("recording") / "idx"
        XKSearch.build(dblp_like_tree(seed=1), index_dir).close()
        index = DiskKeywordIndex(index_dir)
        yield index
        index.close()

    @staticmethod
    def _recorded(cache_state: str) -> tuple:
        from repro.obs.metrics import get_registry

        registry = get_registry()
        queries = registry.get_metric("xks_queries_total")
        exec_ms = registry.get_metric("xks_query_exec_ms")
        return (
            sum(c.value for labels, c in (queries.items() if queries else ())
                if labels["cache"] == cache_state),
            sum(h.count for _, h in (exec_ms.items() if exec_ms else ())),
        )

    @pytest.mark.parametrize("cached", [False, True], ids=["cache_off", "cache_miss"])
    def test_deadline_abort_is_not_recorded(self, dblp_index, cached, monkeypatch):
        from repro.errors import DeadlineExceeded
        from repro.robustness import deadline as deadline_mod
        from repro.xksearch.cache import QueryCache

        monkeypatch.setattr(deadline_mod, "CHECK_STRIDE", 1)
        engine = QueryEngine(dblp_index, cache=QueryCache() if cached else None)
        state = "miss" if cached else "off"
        before = self._recorded(state)
        with deadline_mod.bind_deadline(deadline_mod.Deadline.after_ms(0)):
            with pytest.raises(DeadlineExceeded):
                list(engine.execute("author title"))
        assert self._recorded(state) == before

    @pytest.mark.parametrize("cached", [False, True], ids=["cache_off", "cache_miss"])
    def test_early_close_is_recorded(self, dblp_index, cached):
        from repro.xksearch.cache import QueryCache
        from repro.xksearch.system import XKSearch

        system = XKSearch(dblp_index, cache=QueryCache() if cached else None)
        state = "miss" if cached else "off"
        queries, observations = self._recorded(state)
        # search(limit=...) stops consuming the stream after two answers.
        assert len(system.search("author title", limit=2)) == 2
        assert self._recorded(state) == (queries + 1, observations + 1)
