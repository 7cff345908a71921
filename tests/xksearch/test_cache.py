"""Serving-layer cache: correctness, invalidation, and concurrency."""

import json
import os
import threading

import pytest

from repro.index.inverted import DiskKeywordIndex
from repro.index.memory import MemoryKeywordIndex
from repro.index.generation import bump_generation, current_generation, seed_generation
from repro.index.updates import IndexUpdater
from repro.xksearch.cache import LRUCache, QueryCache, normalize_key
from repro.xksearch.engine import ExecutionStats, QueryEngine
from repro.xksearch.system import XKSearch

ALGORITHMS = ("il", "scan", "stack", "auto")


@pytest.fixture
def memory_index(school):
    return MemoryKeywordIndex.from_tree(school)


class TestLRUCache:
    def test_capacity_bound_and_evictions(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("a") == (False, None)
        assert cache.get("c") == (True, 3)

    def test_get_moves_to_front(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # "b" is now LRU
        assert cache.get("a") == (True, 1)
        assert cache.get("b") == (False, None)

    def test_hit_miss_stats(self):
        cache = LRUCache(capacity=4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("absent")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_stamped_entries_invalidate_on_generation_change(self):
        cache = LRUCache(capacity=4)
        cache.put_stamped("k", 1, "old")
        assert cache.get_stamped("k", 1) == (True, "old")
        hit, value = cache.get_stamped("k", 2)  # generation moved on
        assert not hit
        assert cache.stats.invalidations == 1
        assert len(cache) == 0  # the stale entry is gone

    def test_none_values_are_cacheable(self):
        cache = LRUCache(capacity=2)
        cache.put("k", None)
        assert cache.get("k") == (True, None)


class TestGenerationRegistry:
    def test_bump_and_current(self, tmp_path):
        directory = tmp_path / "idx"
        base = current_generation(directory)
        assert bump_generation(directory) == base + 1
        assert current_generation(directory) == base + 1

    def test_seed_is_max_merge(self, tmp_path):
        directory = tmp_path / "idx"
        bump_generation(directory)
        bumped = current_generation(directory)
        assert seed_generation(directory, bumped - 1) == bumped  # no rollback
        assert seed_generation(directory, bumped + 5) == bumped + 5


class TestNormalizeKey:
    def test_order_insensitive(self):
        assert normalize_key(["john", "ben"], "auto") == normalize_key(
            ["ben", "john"], "auto"
        )

    def test_algorithm_and_semantics_distinguish(self):
        base = normalize_key(["john"], "auto")
        assert base != normalize_key(["john"], "il")
        assert base != normalize_key(["john"], "auto", semantics="elca")


class TestCachedResultsMatchUncached:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_identical_results_cache_on_off(self, memory_index, algorithm):
        plain = QueryEngine(memory_index)
        cached = QueryEngine(memory_index, cache=QueryCache())
        for query in ("John Ben", "ben john", "class smith", "john zebra"):
            expected = list(plain.execute(query, algorithm))
            assert list(cached.execute(query, algorithm)) == expected  # cold
            assert list(cached.execute(query, algorithm)) == expected  # hot

    def test_hit_serves_from_cache(self, memory_index):
        engine = QueryEngine(memory_index, cache=QueryCache())
        first = ExecutionStats()
        list(engine.execute("John Ben", stats=first))
        assert first.cache_misses == 1 and not first.cache_hit
        second = ExecutionStats()
        list(engine.execute("ben john", stats=second))  # different order, same key
        assert second.cache_hits == 1 and second.cache_hit
        assert second.cache_hit
        # The hit is stamped with the original execution's counters, so a
        # cached answer is distinguishable from a genuinely free query.
        assert second.counters.as_dict() == first.counters.as_dict()
        assert second.counters.lca_ops > 0

    def test_all_lca_and_elca_cached_separately(self, memory_index):
        plain = QueryEngine(memory_index)
        engine = QueryEngine(memory_index, cache=QueryCache())
        slca = list(engine.execute("John Ben"))
        lca = list(engine.execute_all_lca("John Ben"))
        elca = list(engine.execute_elca("John Ben"))
        assert lca == list(plain.execute_all_lca("John Ben"))
        assert elca == list(plain.execute_elca("John Ben"))
        # Repeats hit, and the three semantics never collide.
        stats = ExecutionStats()
        assert list(engine.execute_all_lca("John Ben", stats=stats)) == lca
        assert stats.cache_hit
        assert list(engine.execute("John Ben")) == slca

    def test_plan_cache_hits(self, memory_index):
        cache = QueryCache()
        engine = QueryEngine(memory_index, cache=cache)
        first = engine.plan("class john")
        again = engine.plan("john class")
        assert again is first  # memoized object, order-insensitive key
        assert cache.plans.stats.hits == 1


class TestExecuteMany:
    def test_results_align_with_inputs(self, memory_index):
        engine = QueryEngine(memory_index)
        queries = ["John Ben", "class", "ben john", "John Ben"]
        batch = engine.execute_many(queries)
        assert len(batch) == len(queries)
        for query, result in zip(queries, batch):
            assert result == list(QueryEngine(memory_index).execute(query))

    def test_batch_deduplicates_shared_atom_sets(self, memory_index):
        engine = QueryEngine(memory_index, cache=QueryCache())
        stats = ExecutionStats()
        batch = engine.execute_many(
            ["John Ben", "ben john", "JOHN BEN", "class"], stats=stats
        )
        # Three spellings of one atom set -> one miss; "class" -> another.
        assert stats.cache_misses == 2 and stats.cache_hits == 0
        assert batch[0] == batch[1] == batch[2]

    def test_batch_serves_earlier_results_from_cache(self, memory_index):
        engine = QueryEngine(memory_index, cache=QueryCache())
        engine.execute_many(["John Ben"])
        stats = ExecutionStats()
        engine.execute_many(["ben john", "class"], stats=stats)
        assert stats.cache_hits == 1 and stats.cache_misses == 1

    def test_batch_without_cache_still_dedupes(self, memory_index):
        engine = QueryEngine(memory_index)
        stats = ExecutionStats()
        batch = engine.execute_many(["John Ben", "ben john"], stats=stats)
        assert batch[0] == batch[1]
        # One execution's worth of work, not two.
        solo = ExecutionStats()
        list(QueryEngine(memory_index).execute("John Ben", stats=solo))
        assert stats.counters.lca_ops == solo.counters.lca_ops


class TestInvalidationAfterUpdates:
    def test_update_stales_cached_results(self, school, tmp_path):
        index_dir = tmp_path / "idx"
        system = XKSearch.build(school, index_dir)
        system.close()

        cache = QueryCache()
        with XKSearch.open(index_dir, cache=cache) as system:
            engine = system.engine
            # "zebra" does not occur: the (empty) answer gets cached.
            assert list(engine.execute("john zebra")) == []
            assert list(engine.execute("john zebra")) == []
            assert cache.results.stats.hits == 1

            john_node = system.index.keyword_list("john")[0]
            with IndexUpdater(index_dir) as updater:
                updater.add_postings({"zebra": [(john_node, "name")]})

            # The mutation bumped the generation: the cached empty answer
            # is stale, the live handle reloads, and the query now matches.
            assert list(engine.execute("john zebra")) == [john_node]
            assert cache.results.stats.invalidations >= 1

    def test_generation_persisted_in_manifest(self, school, tmp_path):
        index_dir = tmp_path / "idx"
        XKSearch.build(school, index_dir).close()
        before = current_generation(index_dir)
        with IndexUpdater(index_dir) as updater:
            node = (0, 0, 0, 0)
            updater.add_postings({"freshword": [(node, "class")]})
        assert current_generation(index_dir) == before + 1
        with open(index_dir / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["generation"] == before + 1

    def test_cross_process_update_detected(self, school, tmp_path):
        """An updater in a *different* process only persists its generation
        bump to the manifest; a live handle must still notice (it stats the
        manifest), stale its cache and serve the new contents."""
        import subprocess
        import sys

        index_dir = tmp_path / "idx"
        XKSearch.build(school, index_dir).close()
        cache = QueryCache()
        with XKSearch.open(index_dir, cache=cache, load_document=False) as system:
            engine = system.engine
            assert list(engine.execute("john zebra")) == []  # cached below
            john_node = system.index.keyword_list("john")[0]

            script = (
                "import sys\n"
                "from repro.index.updates import IndexUpdater\n"
                f"with IndexUpdater({str(index_dir)!r}) as updater:\n"
                f"    updater.add_postings({{'zebra': [({john_node!r}, 'name')]}})\n"
            )
            import repro

            src_dir = os.path.dirname(os.path.dirname(repro.__file__))
            subprocess.run(
                [sys.executable, "-c", script],
                check=True,
                env={**os.environ, "PYTHONPATH": src_dir},
            )

            assert list(engine.execute("john zebra")) == [john_node]

    def test_tag_only_change_invalidates_cached_answers(self, school, tmp_path):
        """Re-adding a posting under another context tag adds nothing, but
        tag-qualified answers change: the generation must move."""
        index_dir = tmp_path / "idx"
        XKSearch.build(school, index_dir).close()
        cache = QueryCache()
        with XKSearch.open(index_dir, cache=cache) as system:
            engine = system.engine
            assert list(engine.execute("ta:john ben")) == []
            assert list(engine.execute("ta:john ben")) == []  # from the cache
            assert cache.results.stats.hits == 1
            john_node = system.index.keyword_list("john")[0]
            before = current_generation(index_dir)
            with IndexUpdater(index_dir) as updater:
                assert updater.add_postings({"john": [(john_node, "ta")]}) == 0
            assert current_generation(index_dir) == before + 1
            assert list(engine.execute("ta:john ben")) == [(0, 0)]
            with IndexUpdater(index_dir) as updater:  # the same tag again: no change
                assert updater.add_postings({"john": [(john_node, "ta")]}) == 0
            assert current_generation(index_dir) == before + 1

    def test_tag_only_change_reaches_a_reader_in_another_process(self, school, tmp_path):
        import subprocess
        import sys

        import repro

        index_dir = tmp_path / "idx"
        XKSearch.build(school, index_dir).close()
        with DiskKeywordIndex(index_dir) as index:
            john_node = index.keyword_list("john")[0]
            assert index.keyword_list("john", tag="ta") == []
            script = (
                "from repro.index.updates import IndexUpdater\n"
                f"with IndexUpdater({str(index_dir)!r}) as updater:\n"
                f"    assert updater.add_postings({{'john': [({john_node!r}, 'ta')]}}) == 0\n"
            )
            src_dir = os.path.dirname(os.path.dirname(repro.__file__))
            subprocess.run(
                [sys.executable, "-c", script],
                check=True,
                timeout=60,
                env={**os.environ, "PYTHONPATH": src_dir},
            )
            with open(index_dir / "manifest.json", encoding="utf-8") as fh:
                assert json.load(fh)["generation"] == 1
            assert index.generation() == 1  # stats the manifest, reloads
            assert index.keyword_list("john", tag="ta") == [john_node]

    def test_noop_update_does_not_invalidate(self, school, tmp_path):
        index_dir = tmp_path / "idx"
        XKSearch.build(school, index_dir).close()
        before = current_generation(index_dir)
        with IndexUpdater(index_dir) as updater:
            updater.remove_postings({"zebra": [(0, 0, 0, 0)]})  # nothing there
        assert current_generation(index_dir) == before


class TestConcurrentReads:
    """N threads x M queries against one DiskKeywordIndex match the
    single-threaded baseline byte for byte."""

    QUERIES = [
        "xkrare xkbig",
        "xkmid xkbig",
        "xkrare xkmid",
        "xkrare xkmid xkbig",
        "xkbig",
    ]
    ALGORITHMS = ("il", "scan", "stack")

    @pytest.mark.parametrize("with_cache", (False, True), ids=("plain", "cached"))
    def test_threaded_results_match_baseline(self, planted_dblp, tmp_path, with_cache):
        index_dir = tmp_path / "idx"
        XKSearch.build(planted_dblp, index_dir, keep_document=False).close()
        with DiskKeywordIndex(index_dir) as index:
            cache = QueryCache() if with_cache else None
            engine = QueryEngine(index, cache=cache)
            workload = [
                (query, algorithm)
                for query in self.QUERIES
                for algorithm in self.ALGORITHMS
            ] * 3

            baseline = json.dumps(
                [list(engine.execute(q, a)) for q, a in workload]
            ).encode("utf-8")

            outputs = {}
            errors = []

            def worker(thread_id: int):
                try:
                    mine = [list(engine.execute(q, a)) for q, a in workload]
                    outputs[thread_id] = json.dumps(mine).encode("utf-8")
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(outputs) == 8
            for thread_id, payload in outputs.items():
                assert payload == baseline, f"thread {thread_id} diverged"
