"""Process-pool execution: byte-identical answers, invalidation, fallback."""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.errors import PoolError
from repro.index.builder import build_index
from repro.index.updates import IndexUpdater
from repro.obs.metrics import get_registry
from repro.xksearch.cache import QueryCache
from repro.xksearch.engine import ExecutionStats
from repro.xksearch.parallel import WorkerPool
from repro.xksearch.system import XKSearch
from repro.xmltree.generate import dblp_like_tree, plant_keywords

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process pool requires the fork start method",
)

QUERIES = ["xkrare xkbig", "xkmid xkbig", "xkrare xkmid xkbig", "xkmid"]


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    tree = dblp_like_tree(7, venues=3, years_per_venue=3, papers_per_year=8)
    plant_keywords(tree, {"xkrare": 4, "xkmid": 18, "xkbig": 50}, seed=11)
    target = tmp_path_factory.mktemp("parallel") / "idx"
    build_index(tree, target, page_size=1024)
    return target


@pytest.fixture
def pooled(index_dir):
    """(pooled system with a local cache, reference in-thread system, pool)."""
    pool = WorkerPool(index_dir, workers=2)
    system = XKSearch.open(index_dir, load_document=False, cache=QueryCache())
    system.engine.attach_pool(pool)
    reference = XKSearch.open(index_dir, load_document=False)
    yield system, reference, pool
    pool.close()
    system.close()
    reference.close()


class TestByteIdentical:
    def test_slca_all_algorithms(self, pooled):
        system, reference, pool = pooled
        for query in QUERIES:
            for algorithm in ("auto", "il", "scan", "stack"):
                got = list(system.search_ids(query, algorithm=algorithm))
                want = list(reference.search_ids(query, algorithm=algorithm))
                assert got == want, (query, algorithm)
        # The queries actually went through the pool, across both workers.
        stats = pool.stats_dict()
        assert sum(w["tasks"] for w in stats["workers"]) > 0

    def test_lca_and_elca(self, pooled):
        system, reference, _ = pooled
        for query in QUERIES:
            got = list(system.engine.execute_all_lca(query))
            want = list(reference.engine.execute_all_lca(query))
            assert got == want, ("lca", query)
            got = list(system.engine.execute_elca(query))
            want = list(reference.engine.execute_elca(query))
            assert got == want, ("elca", query)

    def test_execute_many_matches_sequential(self, pooled):
        system, reference, _ = pooled
        batch = QUERIES + ["xkbig xkrare", "xkmid"]  # repeats + reorderings
        got = system.engine.execute_many(batch)
        want = reference.engine.execute_many(batch)
        assert got == want

    def test_pool_without_caches(self, index_dir):
        # A pool attached to a cache-less engine still answers correctly.
        pool = WorkerPool(index_dir, workers=1)
        try:
            system = XKSearch.open(index_dir, load_document=False)
            system.engine.attach_pool(pool)
            reference = XKSearch.open(index_dir, load_document=False)
            for query in QUERIES:
                got = list(system.search_ids(query))
                want = list(reference.search_ids(query))
                assert got == want
            system.close()
            reference.close()
        finally:
            pool.close()

    def test_reordered_repeat_is_a_local_hit(self, pooled):
        """The parent's cache stores every pooled answer, so a repeat (in
        any keyword order) never reaches the pool."""
        system, _, pool = pooled

        def tasks():
            return sum(worker["tasks"] for worker in pool.stats_dict()["workers"])

        def hits():
            metric = get_registry().get_metric("xks_queries_total")
            if metric is None:
                return 0
            return metric.labels(semantics="slca", algorithm="auto", cache="hit").value

        first = list(system.engine.execute("xkrare xkbig"))
        assert tasks() == 1
        hits_before = hits()
        stats = ExecutionStats()
        second = list(system.engine.execute("xkbig xkrare", stats=stats))
        assert second == first
        assert stats.cache_hit
        assert hits() == hits_before + 1
        assert tasks() == 1


class TestMidRunUpdate:
    def test_update_invalidates_every_worker(self, tmp_path):
        tree = dblp_like_tree(6, venues=2, years_per_venue=2, papers_per_year=6)
        plant_keywords(tree, {"xka": 5, "xkb": 14}, seed=3)
        target = tmp_path / "idx"
        build_index(tree, target, page_size=1024)
        pool = WorkerPool(target, workers=2)
        system = XKSearch.open(target, load_document=False, cache=QueryCache())
        system.engine.attach_pool(pool)
        try:
            # Warm both workers (sequential dispatch round-robins the
            # idle queue) and the caches on the pre-update answer.
            for _ in range(2):
                before = list(system.search_ids("xka xkb", algorithm="scan"))
                system.engine.cache.clear()  # force re-dispatch to the pool
            # Mutate the index: new postings under a fresh subtree.
            with IndexUpdater(target) as updater:
                updater.add_postings(
                    {
                        "xka": [((0, 0, 1, 1, 0, 0), "title")],
                        "xkb": [((0, 0, 1, 1, 1, 0), "title")],
                    }
                )
            reference = XKSearch.open(target, load_document=False)
            want = list(reference.search_ids("xka xkb", algorithm="scan"))
            assert want != before  # the update must change the answer
            # Every worker must now see the new generation: clear the
            # local cache between calls so each one reaches the pool.
            for _ in range(pool.size):
                got = list(system.search_ids("xka xkb", algorithm="scan"))
                assert got == want
                system.engine.cache.clear()
            reference.close()
        finally:
            pool.close()
            system.close()


class TestDegradation:
    def test_dead_pool_falls_back_in_thread(self, index_dir):
        pool = WorkerPool(index_dir, workers=2, max_respawns=0)
        system = XKSearch.open(index_dir, load_document=False, cache=QueryCache())
        system.engine.attach_pool(pool)
        reference = XKSearch.open(index_dir, load_document=False)
        try:
            for handle in list(pool._workers):
                handle.process.kill()
                handle.process.join(timeout=5.0)
            # Requests still succeed, answered in-thread.
            for query in QUERIES:
                got = list(system.search_ids(query))
                want = list(reference.search_ids(query))
                assert got == want
            assert pool.dispatch_errors > 0
        finally:
            pool.close()
            system.close()
            reference.close()

    def test_closed_pool_raises_pool_error(self, index_dir):
        pool = WorkerPool(index_dir, workers=1)
        pool.close()
        with pytest.raises(PoolError):
            pool.execute("slca", ["xkmid"], "auto", 0)

    def test_worker_respawns_after_crash(self, index_dir):
        pool = WorkerPool(index_dir, workers=1)
        try:
            victim = pool._workers[0]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            with pytest.raises(PoolError):
                pool.execute("slca", ["xkmid"], "auto", 0)
            assert pool.respawns == 1
            assert pool.alive == 1
            # The respawned worker serves the next request.
            task = pool.execute("slca", ["xkmid"], "auto", 0)
            assert isinstance(task.ids, tuple)
        finally:
            pool.close()

    def test_telemetry_return_path(self, pooled):
        """Workers ship metric events + spans stamped with the parent's
        trace context; replaying them makes the parent registry exact."""
        from repro.obs.metrics import MetricsRegistry

        _, _, pool = pooled
        task = pool.execute(
            "slca",
            ["xkmid", "xkbig"],
            "auto",
            0,
            trace_id="cafecafecafecafecafecafecafecafe",
            want_spans=True,
        )
        assert task.events, "worker shipped no metric events"
        names = {event[1] for event in task.events}
        assert "xks_queries_total" in names
        assert "xks_query_exec_ms" in names
        # The worker-side exec histogram observation carries the parent's
        # trace id — that's what restores exemplars for pooled queries.
        exec_events = [
            event for event in task.events
            if event[0] == "h" and event[1] == "xks_query_exec_ms"
        ]
        assert exec_events
        assert all(
            event[7] == "cafecafecafecafecafecafecafecafe"
            for event in exec_events
        )
        # Spans: a worker-attributed root wrapping the execution.
        assert task.spans is not None
        assert task.spans["name"] == "worker"
        assert task.spans["attrs"]["worker"] == task.worker
        child_names = {child["name"] for child in task.spans["children"]}
        assert "worker.execute" in child_names
        # Replaying the events into a fresh registry reproduces the
        # worker's counters, exemplar included.
        registry = MetricsRegistry()
        applied = registry.replay_events(task.events)
        assert applied == len(task.events)
        rendered = registry.render()
        assert "xks_queries_total" in rendered
        assert "cafecafecafecafecafecafecafecafe" in rendered

    def test_spans_off_by_default(self, pooled):
        _, _, pool = pooled
        task = pool.execute("slca", ["xkmid"], "auto", 0)
        assert task.spans is None
        assert task.events  # telemetry events always ship

    def test_worker_error_degrades_not_fails(self, pooled):
        system, reference, _ = pooled
        # An unknown semantics string makes the worker reply with an
        # error; pool.execute surfaces it as PoolError.
        with pytest.raises(PoolError, match="error"):
            system.engine.pool.execute("bogus", ["xkmid"], "auto", 0)
        # The pool stays healthy afterwards.
        got = list(system.search_ids("xkmid"))
        assert got == list(reference.search_ids("xkmid"))


class TestServeSubprocess:
    """``xksearch serve`` with a pool, run the way the end-to-end
    benchmark runs it: a subprocess on an ephemeral port."""

    @pytest.fixture
    def serve_uncached(self, index_dir, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        out_path = tmp_path / "server.out"
        with open(out_path, "w") as out:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.xksearch.cli", "serve", str(index_dir),
                 "--port", "0", "--cache-size", "0", "--workers-proc", "2"],
                env=env, stdout=out, stderr=subprocess.DEVNULL,
            )
        try:
            deadline = time.monotonic() + 60.0
            match = None
            while match is None and time.monotonic() < deadline:
                assert process.poll() is None, "server exited during startup"
                match = re.search(r"http://([\d.]+):(\d+)/", out_path.read_text())
                time.sleep(0.02)
            assert match is not None, "server never printed its address"
            yield f"http://{match.group(1)}:{match.group(2)}"
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(20.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    def test_cache_size_zero_dispatches_every_repeat(self, serve_uncached):
        def pool_tasks():
            with urllib.request.urlopen(f"{serve_uncached}/metrics", timeout=10) as r:
                text = r.read().decode()
            return sum(
                float(value)
                for value in re.findall(r"^xks_pool_tasks_total\{[^}]*\} (\S+)$", text, re.M)
            )

        before = pool_tasks()
        for _ in range(3):
            url = f"{serve_uncached}/api/search?q=xkrare+xkbig"
            with urllib.request.urlopen(url, timeout=30) as response:
                assert response.status == 200
        # With caching off, nothing answers a repeat but a worker.
        assert pool_tasks() == before + 3
