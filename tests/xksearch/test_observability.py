"""Cross-layer observability: EXPLAIN/profile mode, /metrics, tracing.

The acceptance contract: ``GET /metrics`` is valid Prometheus text covering
server, cache, buffer-pool, pager and algorithm-counter metrics, and the
``explain=1`` answer is byte-identical to the plain one.
"""

import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.index.memory import MemoryKeywordIndex
from repro.obs.tracing import Tracer, valid_trace_id
from repro.xksearch.cache import QueryCache
from repro.xksearch.engine import ExecutionStats, QueryEngine
from repro.xksearch.server import ServerMetrics, make_server
from repro.xksearch.system import XKSearch
from repro.xmltree.generate import school_tree
from tests.obs.test_metrics import assert_prometheus_parseable


@pytest.fixture
def memory_index(school):
    return MemoryKeywordIndex.from_tree(school)


@pytest.fixture(scope="module")
def disk_system(tmp_path_factory):
    """A disk-backed system with a cache — the production serving shape."""
    index_dir = tmp_path_factory.mktemp("obs") / "idx"
    XKSearch.build(school_tree(), index_dir).close()
    system = XKSearch.open(index_dir, cache=QueryCache())
    yield system
    system.close()


@pytest.fixture(scope="module")
def obs_server(disk_system):
    """A server over the disk system, with an always-slow-logging tracer."""
    tracer = Tracer(sample_rate=0.0, slow_threshold_ms=0.0)
    server = make_server(disk_system, port=0, metrics=ServerMetrics(), tracer=tracer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def fetch(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, dict(response.headers), response.read().decode("utf-8")


class TestEngineProfile:
    def test_profiled_answer_is_byte_identical(self, memory_index):
        plain = QueryEngine(memory_index)
        for query in ("John Ben", "class smith", "john zebra"):
            expected = list(plain.execute(query))
            stats = ExecutionStats()
            assert list(plain.execute(query, stats=stats, profile=True)) == expected
            assert stats.plan is not None

    def test_profile_phases_and_counters(self, memory_index):
        engine = QueryEngine(memory_index)
        stats = ExecutionStats()
        ids = list(engine.execute("John Ben", stats=stats, profile=True))
        prof = stats
        assert [phase.name for phase in prof.phases] == ["parse", "plan", "execute"]
        assert prof.algorithm in ("il", "scan")
        assert prof.result_count == len(ids)
        assert prof.counters.lca_ops > 0
        assert prof.plan["keywords"] and prof.plan["frequencies"]
        assert prof.total_ms >= sum(phase.ms for phase in prof.phases) * 0.5
        # In-memory index: no I/O attribution.
        assert prof.io is None
        # The whole breakdown serializes to JSON.
        json.dumps(prof.as_dict())

    def test_profile_cache_hit_path(self, memory_index):
        engine = QueryEngine(memory_index, cache=QueryCache())
        first = list(engine.execute("John Ben"))
        stats = ExecutionStats()
        again = list(engine.execute("ben john", stats=stats, profile=True))
        assert again == first
        prof = stats
        assert prof.cache_hit and stats.cache_hit
        assert "cache_lookup" in [phase.name for phase in prof.phases]
        assert prof.algorithm in ("il", "scan")  # plan re-derived for EXPLAIN
        # Stamped with the original execution's counters, not zeroes.
        assert stats.counters.lca_ops > 0

    def test_profile_io_attribution_on_disk(self, disk_system):
        disk_system.index.make_cold()
        stats = ExecutionStats()
        list(disk_system.search_ids("john xyznotthere", stats=stats, profile=True))
        # Even an empty-result query planned against disk has an io block.
        assert stats.io is not None
        stats = ExecutionStats()
        ids = list(disk_system.search_ids("John Ben", stats=stats, profile=True))
        io = stats.io
        if not stats.cache_hit and disk_system.index.posting_tier() != "segment":
            # Buffer-pool touches only happen on the B+tree tier; the
            # segment fast path reads an mmap outside the pool.
            assert io["pool_hits"] + io["pool_misses"] > 0
        assert set(io) == {
            "page_reads", "sequential_reads", "random_reads", "pool_hits", "pool_misses",
        }
        assert ids == list(disk_system.search_ids("John Ben"))


class TestEngineTotals:
    def test_counter_totals_accumulate_per_algorithm(self, memory_index):
        engine = QueryEngine(memory_index, cache=QueryCache())
        list(engine.execute("John Ben", algorithm="scan"))
        list(engine.execute("John Ben", algorithm="stack"))
        totals = engine.counter_totals()
        assert totals["scan"]["lca_ops"] > 0
        assert totals["stack"]["nodes_merged"] > 0
        assert totals["_total"]["results"] >= totals["scan"]["results"]

    def test_cache_hits_do_not_double_count_totals(self, memory_index):
        engine = QueryEngine(memory_index, cache=QueryCache())
        list(engine.execute("John Ben"))
        once = engine.counter_totals()["_total"]["lca_ops"]
        list(engine.execute("John Ben"))  # hit: no new execution
        assert engine.counter_totals()["_total"]["lca_ops"] == once


class TestMetricsEndpoint:
    CORE_METRICS = (
        "xks_http_requests_total",       # server
        "xks_http_request_ms_bucket",    # server latency histogram
        "xks_queries_total",             # engine
        "xks_algo_ops_total",            # algorithm counters
        "xks_query_cache_hits_total",    # cache
        "xks_buffer_pool_hits_total",    # buffer pool
        "xks_pager_reads_total",         # pager
        "xks_bptree_node_reads_total",   # B+tree node touches
        "xks_index_generation",
    )

    def test_metrics_parseable_and_covering(self, obs_server):
        fetch(f"{obs_server}/api/search?q=John+Ben")
        fetch(f"{obs_server}/api/search?q=John+Ben")  # second → cache hit
        status, headers, body = fetch(f"{obs_server}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert_prometheus_parseable(body)
        for name in self.CORE_METRICS:
            assert name in body, f"missing core metric {name}"

    def test_statz_enriched(self, obs_server):
        fetch(f"{obs_server}/api/search?q=John+Ben")
        _, _, body = fetch(f"{obs_server}/statz")
        statz = json.loads(body)
        storage = statz["storage"]
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(storage["buffer_pool"])
        assert {"reads", "sequential_reads", "random_reads"} <= set(storage["pager"])
        assert storage["bptree"]["il_node_reads"] >= 0
        assert statz["counters"]["_total"]["lm_ops"] >= 0
        assert statz["cache"]["results"]["hits"] >= 1
        assert statz["tracing"]["slow_threshold_ms"] == 0.0


class TestExplainApi:
    def test_explain_breakdown_and_identical_ids(self, obs_server):
        _, _, plain = fetch(f"{obs_server}/api/search?q=John+Ben")
        _, _, explained = fetch(f"{obs_server}/api/search?q=John+Ben&explain=1")
        plain, explained = json.loads(plain), json.loads(explained)
        assert explained["ids"] == plain["ids"]
        assert "explain" not in plain
        breakdown = explained["explain"]
        assert breakdown["phases"] and all("ms" in phase for phase in breakdown["phases"])
        assert breakdown["algorithm"] in ("il", "scan", "stack")
        assert "counters" in breakdown
        assert explained["cache_hit"] in (True, False)
        assert explained["counters"]["lca_ops"] >= 0

    def test_metrics_and_explain_come_from_one_record(self, obs_server):
        from repro.obs.metrics import get_registry

        def recorded(algorithm):
            registry = get_registry()
            ops = {
                labels["op"]: child.value
                for labels, child in registry.get_metric("xks_algo_ops_total").items()
                if labels["algorithm"] == algorithm
            }
            exec_sum = sum(
                child.sum for _, child in registry.get_metric("xks_query_exec_ms").items()
            )
            return ops, exec_sum

        fetch(f"{obs_server}/api/search?q=John+Ben")  # registers the families
        algorithm = "scan"
        ops_before, sum_before = recorded(algorithm)
        _, _, body = fetch(
            f"{obs_server}/api/search?q=ben+class&algorithm={algorithm}&explain=1"
        )
        ops_after, sum_after = recorded(algorithm)
        payload = json.loads(body)
        explain = payload["explain"]
        assert explain["cache_hit"] is False and explain["algorithm"] == algorithm
        assert payload["counters"] == explain["counters"]
        moved = {op: ops_after[op] - ops_before.get(op, 0) for op in ops_after}
        assert {op: v for op, v in moved.items() if v} == {
            op: v for op, v in explain["counters"].items() if v
        }
        (execute,) = [p for p in explain["phases"] if p["name"] == "execute"]
        assert execute["ms"] == round(sum_after - sum_before, 3)

    def test_cache_hit_stamped_in_api(self, obs_server):
        fetch(f"{obs_server}/api/search?q=John+Ben")  # ensure cached
        _, _, body = fetch(f"{obs_server}/api/search?q=ben+john")
        payload = json.loads(body)
        assert payload["cache_hit"] is True and payload["cached"] is True
        assert sum(payload["counters"].values()) > 0  # original cost, not zeroes


class TestTraceIds:
    def test_trace_id_generated_and_echoed(self, obs_server):
        _, headers, _ = fetch(f"{obs_server}/api/search?q=John+Ben")
        assert len(headers["X-Trace-Id"]) == 16

    def test_client_trace_id_propagated(self, obs_server):
        _, headers, body = fetch(
            f"{obs_server}/api/search?q=John+Ben",
            headers={"X-Trace-Id": "feedfacefeedface"},
        )
        assert headers["X-Trace-Id"] == "feedfacefeedface"
        assert json.loads(body)["trace_id"] == "feedfacefeedface"


class TestSlowLog:
    def test_slow_log_captures_requests(self, obs_server):
        fetch(f"{obs_server}/api/search?q=John+Ben&explain=1")
        _, _, body = fetch(f"{obs_server}/debug/slow")
        slow = json.loads(body)
        assert slow["threshold_ms"] == 0.0
        assert slow["count"] >= 1
        entry = slow["entries"][0]
        assert entry["path"] in ("/search", "/api/search")
        assert entry["elapsed_ms"] >= 0
        # Forced (explain) requests carry a span tree in the slow log.
        traced = [e for e in slow["entries"] if "trace" in e]
        assert traced, "explain request should have attached a trace"
        engine_span = traced[0]["trace"]["children"][0]
        assert engine_span["name"] == "engine"
        assert {child["name"] for child in engine_span["children"]} >= {"plan"}

    @pytest.mark.parametrize("path", ["/search", "/api/search"])
    def test_slow_log_carries_resolved_algorithm(self, obs_server, path):
        import time

        expected = None
        for _ in range(2):  # a miss, then a cache hit
            fetch(f"{obs_server}/debug/slow?clear=1")
            fetch(f"{obs_server}{path}?q=smith+class&algorithm=auto")
            # The handler logs the request after its response is written.
            deadline = time.monotonic() + 10.0
            entries = []
            while not entries and time.monotonic() < deadline:
                _, _, body = fetch(f"{obs_server}/debug/slow")
                entries = [e for e in json.loads(body)["entries"] if e["path"] == path]
            (entry,) = entries
            assert entry["algorithm"] in ("il", "scan")
            assert entry["algorithm"] == (expected or entry["algorithm"])
            expected = entry["algorithm"]


class TestTraceIdValidation:
    def test_valid_trace_id_predicate(self):
        assert valid_trace_id("0123456789abcdef")
        assert not valid_trace_id(None)
        assert not valid_trace_id("")
        assert not valid_trace_id("0123456789ABCDEF")  # lowercase only
        assert not valid_trace_id("0123456789abcde")   # too short
        assert not valid_trace_id("0123456789abcdef0")  # too long
        assert not valid_trace_id("g123456789abcdef")  # not hex

    @pytest.mark.parametrize(
        "bad", ["not-a-trace-id!", "ABCDEF0123456789", "0123", "0" * 17]
    )
    def test_invalid_client_trace_id_is_regenerated(self, obs_server, bad):
        _, headers, body = fetch(
            f"{obs_server}/api/search?q=John+Ben", headers={"X-Trace-Id": bad}
        )
        echoed = headers["X-Trace-Id"]
        assert echoed != bad
        assert re.fullmatch(r"[0-9a-f]{16}", echoed)
        assert json.loads(body)["trace_id"] == echoed


class TestFrequencyBands:
    def test_band_boundaries(self):
        from repro.xksearch.engine import FREQUENCY_BANDS, frequency_band

        assert [frequency_band(f) for f in (0, 1, 9, 10, 99, 100, 999, 1000, 5000)] == [
            "0", "1-9", "1-9", "10-99", "10-99", "100-999", "100-999", "1000+", "1000+"
        ]
        assert set(FREQUENCY_BANDS) == {"0", "1-9", "10-99", "100-999", "1000+"}

    def test_plan_carries_band(self, memory_index):
        engine = QueryEngine(memory_index)
        stats = ExecutionStats()
        list(engine.execute("John Ben", stats=stats, profile=True))
        plan = stats.plan
        assert plan["band"] in ("0", "1-9", "10-99", "100-999", "1000+")

    def test_exec_histogram_labeled_by_band_and_algorithm(self, obs_server):
        from repro.xksearch.engine import FREQUENCY_BANDS

        fetch(f"{obs_server}/api/search?q=John+Smith")
        _, _, body = fetch(f"{obs_server}/metrics")
        exec_lines = [
            line for line in body.splitlines()
            if line.startswith("xks_query_exec_ms_bucket")
        ]
        assert exec_lines
        for line in exec_lines:
            band = re.search(r'band="([^"]*)"', line)
            assert band and band.group(1) in FREQUENCY_BANDS, line
            assert re.search(r'algorithm="[^"]+"', line), line


class TestSlowLogControls:
    def test_limit_truncates_entries_not_count(self, obs_server):
        for query in ("John+Ben", "class+smith", "John+Smith"):
            fetch(f"{obs_server}/api/search?q={query}")
        _, _, body = fetch(f"{obs_server}/debug/slow?limit=1")
        slow = json.loads(body)
        assert len(slow["entries"]) == 1
        assert slow["count"] >= 3
        _, _, body = fetch(f"{obs_server}/debug/slow?limit=0")
        assert json.loads(body)["entries"] == []

    def test_bad_limit_is_a_400(self, obs_server):
        for bad in ("nope", "-1", "1.5"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(f"{obs_server}/debug/slow?limit={bad}")
            assert excinfo.value.code == 400
            assert "bad limit" in json.loads(excinfo.value.read())["error"]

    def test_clear_returns_the_removed_window(self, obs_server):
        for query in ("John+Ben", "class+smith", "John+Smith"):
            fetch(f"{obs_server}/api/search?q={query}")
        _, _, body = fetch(f"{obs_server}/debug/slow?clear=1")
        cleared = json.loads(body)
        assert cleared["cleared"] is True
        assert cleared["count"] >= 3  # scrape-and-reset loses no entries
        _, _, body = fetch(f"{obs_server}/debug/slow")
        # Only the clear request itself (and nothing older) can remain.
        assert json.loads(body)["count"] <= 2


class TestExemplarResolution:
    def test_metrics_exemplar_resolves_via_debug_slow(self, obs_server):
        trace_id = "0123456789abcdef"
        # A fresh (uncached) query executes the engine under this trace id.
        fetch(
            f"{obs_server}/api/search?q=smith+exemplarprobe",
            headers={"X-Trace-Id": trace_id},
        )
        _, _, metrics_body = fetch(f"{obs_server}/metrics")
        exemplar_lines = [
            line for line in metrics_body.splitlines()
            if line.startswith("xks_query_exec_ms_bucket")
            and f'trace_id="{trace_id}"' in line
        ]
        assert exemplar_lines, "traced execution left no exemplar"
        _, _, slow_body = fetch(f"{obs_server}/debug/slow")
        exemplars = json.loads(slow_body)["exemplars"]
        hits = [e for e in exemplars if e["trace_id"] == trace_id]
        assert hits, exemplars
        assert {"labels", "le", "trace_id", "value", "ts"} <= set(hits[0])
