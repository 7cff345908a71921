"""Integration tests for the demo web server (real HTTP over localhost)."""

import json
import threading
import urllib.request
import urllib.error

import pytest

from repro.xksearch.cache import QueryCache
from repro.xksearch.server import ServerMetrics, make_server
from repro.xksearch.system import XKSearch
from repro.xmltree.generate import school_tree


@pytest.fixture(scope="module")
def server_url():
    system = XKSearch.from_tree(school_tree())
    server = make_server(system, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def cached_server_url():
    """A second server whose engine has a result cache attached."""
    system = XKSearch.from_tree(school_tree())
    system.engine.cache = QueryCache()
    server = make_server(system, port=0, metrics=ServerMetrics())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def fetch_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, dict(response.headers), json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, server_url):
        status, body = fetch(f"{server_url}/healthz")
        assert status == 200
        assert body == "ok"

    def test_landing_page(self, server_url):
        status, body = fetch(f"{server_url}/")
        assert status == 200
        assert "<form" in body

    def test_search_returns_answers(self, server_url):
        status, body = fetch(f"{server_url}/search?q=John+Ben")
        assert status == 200
        assert body.count('<div class="result">') == 3
        assert "<mark>John</mark>" in body
        assert "0.2.0" in body

    def test_search_algorithm_param(self, server_url):
        status, body = fetch(f"{server_url}/search?q=John+Ben&algorithm=stack")
        assert status == 200
        assert "algorithm <b>stack</b>" in body

    def test_search_no_hits(self, server_url):
        status, body = fetch(f"{server_url}/search?q=zebra+quux")
        assert status == 200
        assert "No subtree contains all the keywords." in body

    def test_empty_query_shows_form(self, server_url):
        status, body = fetch(f"{server_url}/search?q=")
        assert status == 200
        assert "<form" in body

    def test_bad_algorithm_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server_url}/search?q=john&algorithm=warp")
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server_url}/nope")
        assert excinfo.value.code == 404

    def test_xss_attempt_escaped(self, server_url):
        status, body = fetch(
            f"{server_url}/search?q=%3Cscript%3Ealert(1)%3C/script%3E"
        )
        assert status == 200
        assert "<script>" not in body


class TestJsonApi:
    def test_api_search_payload(self, server_url):
        status, headers, payload = fetch_json(f"{server_url}/api/search?q=John+Ben")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        assert payload["count"] == 3 and len(payload["ids"]) == 3
        assert "0.2.0" in payload["ids"]
        assert payload["algorithm"] == "auto"
        assert payload["elapsed_ms"] >= 0
        assert payload["cached"] is False  # this server has no cache

    def test_api_search_limit(self, server_url):
        _, _, payload = fetch_json(f"{server_url}/api/search?q=John+Ben&limit=1")
        assert payload["count"] == 1 and len(payload["ids"]) == 1

    def test_api_search_timing_header(self, server_url):
        _, headers, _ = fetch_json(f"{server_url}/api/search?q=John+Ben")
        assert float(headers["X-Response-Time-Ms"]) >= 0

    def test_api_search_missing_query_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server_url}/api/search")
        assert excinfo.value.code == 400

    def test_api_search_bad_limit_is_400(self, server_url):
        for limit in ("lots", "-1", "-3"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(f"{server_url}/api/search?q=john&limit={limit}")
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert body == {"error": f"bad limit {limit!r}"}

    def test_api_search_bad_algorithm_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server_url}/api/search?q=john&algorithm=warp")
        assert excinfo.value.code == 400


class TestCachedServing:
    def test_repeat_query_served_from_cache(self, cached_server_url):
        _, _, first = fetch_json(f"{cached_server_url}/api/search?q=John+Ben")
        _, _, second = fetch_json(f"{cached_server_url}/api/search?q=ben+john")
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["ids"] == second["ids"]

    def test_statz_reports_metrics_and_cache(self, cached_server_url):
        fetch_json(f"{cached_server_url}/api/search?q=John+Ben")
        _, _, statz = fetch_json(f"{cached_server_url}/statz")
        assert statz["server"]["requests"] >= 1
        assert statz["server"]["latency_ms"]["p50"] >= 0
        assert statz["generation"] == 0  # in-memory index never mutates
        assert statz["cache"]["results"]["hits"] >= 1


class TestStatzWithoutCache:
    def test_statz_cache_is_null(self, server_url):
        _, _, statz = fetch_json(f"{server_url}/statz")
        assert statz["cache"] is None


class TestBuildInfo:
    def test_metrics_exposes_build_info_and_uptime(self, server_url):
        status, body = fetch(f"{server_url}/metrics")
        assert status == 200
        build_lines = [
            line for line in body.splitlines()
            if line.startswith("xks_build_info{")
        ]
        assert len(build_lines) == 1  # repeated make_server calls dedup
        assert 'version="' in build_lines[0]
        assert 'python="' in build_lines[0]
        assert 'pid="' in build_lines[0]
        assert build_lines[0].endswith(" 1")
        assert "xks_uptime_seconds " in body

    def test_statz_build_section(self, server_url):
        import os

        status, _, payload = fetch_json(f"{server_url}/statz")
        assert status == 200
        build = payload["build"]
        assert build["pid"] == os.getpid()
        assert build["uptime_s"] >= 0
        assert build["version"] and build["python"]


class TestAlertz:
    def test_alertz_disabled_without_engine(self, server_url):
        # SLOs are Prometheus rules (docs/slo_rules.yml), not an endpoint:
        # the server has no SLO engine, so /alertz is not served at all.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{server_url}/alertz")
        assert excinfo.value.code == 404


class TestProfilingEndpoints:
    @pytest.fixture(scope="class")
    def profiled_url(self):
        from repro.obs.profiling import SamplingProfiler
        from repro.xksearch.system import XKSearch

        system = XKSearch.from_tree(school_tree())
        profiler = SamplingProfiler(hz=200.0).start()
        server = make_server(system, port=0, profiler=profiler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_pprof_cumulative_json(self, profiled_url):
        status, _, payload = fetch_json(f"{profiled_url}/debug/pprof")
        assert status == 200
        assert payload["enabled"] is True
        assert payload["totals"]["hz"] == 200.0
        # stacks keys are folded frames: file:func;file:func;...
        for stack in payload["stacks"]:
            assert ":" in stack

    def test_pprof_window_and_folded(self, profiled_url):
        status, body = fetch(
            f"{profiled_url}/debug/pprof?seconds=0.1&format=folded"
        )
        assert status == 200
        for line in body.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert ";" in stack or ":" in stack

    def test_pprof_bad_seconds(self, profiled_url):
        for bad in ("abc", "-1", "61"):
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch(f"{profiled_url}/debug/pprof?seconds={bad}")
            assert err.value.code == 400

    def test_heap_toggle_and_snapshot(self, profiled_url):
        # No client can switch tracemalloc on for the process: the
        # endpoint is gone, /debug/heap?start=1 included.
        for path in ("/debug/heap", "/debug/heap?start=1"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(f"{profiled_url}{path}")
            assert excinfo.value.code == 404

    def test_statz_has_profiler_section(self, profiled_url):
        status, _, payload = fetch_json(f"{profiled_url}/statz")
        assert status == 200
        assert payload["profiler"]["hz"] == 200.0

    def test_pprof_disabled_without_profiler(self, server_url):
        status, _, payload = fetch_json(f"{server_url}/debug/pprof")
        assert status == 200
        assert payload["enabled"] is False


class TestCrossProcessTelemetry:
    """Pooled serving: worker spans under the request trace and exact
    /metrics totals (no telemetry loss past the fork)."""

    @pytest.fixture(scope="class")
    def pooled_server(self, tmp_path_factory):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("process pool requires the fork start method")
        from repro.index.builder import build_index
        from repro.obs.export import TraceFile
        from repro.obs.metrics import get_registry
        from repro.obs.tracing import Tracer
        from repro.xksearch.parallel import WorkerPool
        from repro.xmltree.generate import dblp_like_tree, plant_keywords

        tree = dblp_like_tree(7, venues=3, years_per_venue=3, papers_per_year=8)
        plant_keywords(tree, {"xkmid": 15, "xkbig": 40}, seed=5)
        index_dir = tmp_path_factory.mktemp("pooled_server") / "idx"
        build_index(tree, index_dir, page_size=1024)
        pool = WorkerPool(index_dir, workers=2)
        system = XKSearch.open(index_dir, load_document=False)
        system.engine.attach_pool(pool)
        trace_path = index_dir.parent / "traces.jsonl"
        exporter = TraceFile(str(trace_path))
        server = make_server(
            system,
            port=0,
            tracer=Tracer(sample_rate=1.0),
            exporter=exporter,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        yield f"http://{host}:{port}", trace_path, get_registry()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        pool.close()
        system.close()

    def test_worker_spans_land_under_request_trace(self, pooled_server):
        url, trace_path, _ = pooled_server
        trace_id = "feedbeef" * 2  # 16-hex trace id
        request = urllib.request.Request(
            f"{url}/api/search?q=xkmid+xkbig",
            headers={"X-Trace-Id": trace_id},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
            assert response.headers["X-Trace-Id"] == trace_id
        assert payload["count"] > 0
        # The handler writes the finished trace after the response is
        # written, so wait for its line rather than racing one read.
        import time

        deadline = time.monotonic() + 10.0
        records = []
        while not records and time.monotonic() < deadline:
            if trace_path.exists():
                records = [
                    json.loads(line)
                    for line in trace_path.read_text().splitlines(keepends=True)
                    if line.endswith("\n") and trace_id in line
                ]
            if not records:
                time.sleep(0.02)
        assert len(records) == 1
        (record,) = records
        assert record["attrs"].get("pooled") is True
        worker_spans = [
            child for child in record["children"] if child["name"] == "worker"
        ]
        assert len(worker_spans) == 1
        (worker_span,) = worker_spans
        assert worker_span["attrs"]["pid"] > 0
        assert worker_span["attrs"]["semantics"] == "slca"
        child_names = {c["name"] for c in worker_span["children"]}
        assert child_names == {"worker.generation", "worker.execute"}

    def test_metrics_totals_are_fleet_exact(self, pooled_server):
        url, _, registry = pooled_server

        def queries_total():
            return sum(
                sample.value
                for sample in registry.collect()
                if sample.name == "xks_queries_total"
            )

        before = queries_total()
        for query in ("xkmid", "xkbig", "xkmid+xkbig"):
            status, _, _ = fetch_json(f"{url}/api/search?q={query}")
            assert status == 200
        # Zero telemetry loss: every pool-executed query was replayed
        # into the parent registry, none double-counted.
        assert queries_total() == before + 3
        # And the worker-side exec histogram events arrived too.
        exec_count = sum(
            sample.value
            for sample in registry.collect()
            if sample.name == "xks_query_exec_ms_count"
        )
        assert exec_count >= 3

    def test_pooled_trace_has_engine_span_beside_worker_span(self, pooled_server):
        url, trace_path, _ = pooled_server
        trace_id = "beefcafe" * 2
        request = urllib.request.Request(
            f"{url}/api/search?q=xkbig+xkmid", headers={"X-Trace-Id": trace_id}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            count = json.loads(response.read())["count"]
        assert count > 0
        import time

        deadline = time.monotonic() + 10.0
        records = []
        while not records and time.monotonic() < deadline:
            if trace_path.exists():
                records = [
                    json.loads(line)
                    for line in trace_path.read_text().splitlines(keepends=True)
                    if line.endswith("\n") and trace_id in line
                ]
            if not records:
                time.sleep(0.02)
        (record,) = records
        assert [child["name"] for child in record["children"]] == ["engine", "worker"]
        (engine,) = record["children"][:1]
        assert [child["name"] for child in engine["children"]] == [
            "parse", "plan", "execute",
        ]
        assert record["attrs"]["algorithm"] in ("il", "scan")
        assert record["attrs"]["result_count"] == count
        assert record["attrs"]["pooled"] is True
