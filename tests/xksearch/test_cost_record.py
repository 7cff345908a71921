"""Golden shapes of everything the per-query cost record feeds.

EXPLAIN JSON (CLI and ``/api/search?explain=1``), the ``/api/search``
payload and the ``engine`` span of a traced request are all read by
operators and scripts; these tests pin their keys and phase orders so a
change to how the engine records a query cannot silently reshape them.
"""

import contextlib
import io
import json
import threading
import time
import urllib.request

import pytest

from repro.obs.tracing import Tracer
from repro.xksearch.cache import QueryCache
from repro.xksearch.cli import main as cli_main
from repro.xksearch.server import ServerMetrics, make_server
from repro.xksearch.system import XKSearch
from repro.xmltree.generate import school_tree

EXPLAIN_KEYS = {
    "query", "semantics", "algorithm_requested", "algorithm", "cache_hit",
    "result_count", "total_ms", "phases", "plan", "counters", "io",
}
IO_KEYS = {"page_reads", "sequential_reads", "random_reads", "pool_hits", "pool_misses"}
PAYLOAD_KEYS = {
    "query", "algorithm", "count", "ids", "elapsed_ms", "cached", "cache_hit",
    "counters", "trace_id",
}
CACHE_OFF = ["parse", "plan", "execute"]
CACHE_MISS = ["parse", "cache_lookup", "plan", "execute", "cache_store"]
CACHE_HIT = ["parse", "cache_lookup", "plan"]


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cost_record") / "idx"
    XKSearch.build(school_tree(), path).close()
    return str(path)


def _serve(system):
    tracer = Tracer(sample_rate=1.0, slow_threshold_ms=0.0)
    server = make_server(system, port=0, metrics=ServerMetrics(), tracer=tracer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    return server, thread, f"http://{host}:{port}", tracer


@pytest.fixture(scope="module", params=["cache", "nocache"])
def served(request, index_dir):
    """(base url, tracer, cached?) over one disk system, with and without
    a result cache; every request is traced and slow-logged."""
    cached = request.param == "cache"
    system = XKSearch.open(index_dir, cache=QueryCache() if cached else None)
    server, thread, url, tracer = _serve(system)
    yield url, tracer, cached
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    system.close()


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _phases(explain: dict) -> list:
    return [phase["name"] for phase in explain["phases"]]


def _engine_children(tracer: Tracer, trace_id: str) -> list:
    # The handler logs the request after its response is written.
    deadline = time.monotonic() + 10.0
    while True:
        entries = [e for e in tracer.slow_queries() if e.get("trace_id") == trace_id]
        if entries or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    (entry,) = entries
    (engine,) = [c for c in entry["trace"]["children"] if c["name"] == "engine"]
    return [child["name"] for child in engine["children"]]


class TestExplainShape:
    def test_keys_and_phase_order(self, served):
        url, _, cached = served
        query = "John+Ben" if cached else "class+smith"
        first = _get(f"{url}/api/search?q={query}&explain=1")
        assert set(first) == PAYLOAD_KEYS | {"explain"}
        explain = first["explain"]
        assert set(explain) == EXPLAIN_KEYS
        assert set(explain["io"]) == IO_KEYS
        assert explain["cache_hit"] is False
        assert explain["result_count"] == first["count"]
        assert _phases(explain) == (CACHE_MISS if cached else CACHE_OFF)
        again = _get(f"{url}/api/search?q={query}&explain=1")["explain"]
        assert set(again) == EXPLAIN_KEYS
        assert again["cache_hit"] is cached
        assert _phases(again) == (CACHE_HIT if cached else CACHE_OFF)
        assert again["algorithm"] == explain["algorithm"]

    def test_cli_explain_opens_without_cache(self, index_dir):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli_main(["search", index_dir, "John Ben", "--explain"]) == 0
        explain = json.loads("\n".join(stdout.getvalue().splitlines()[1:]))
        assert set(explain) == EXPLAIN_KEYS
        assert _phases(explain) == CACHE_OFF
        assert set(explain["io"]) == IO_KEYS


class TestPayloadShape:
    def test_plain_payload_keys(self, served):
        url, _, _ = served
        payload = _get(f"{url}/api/search?q=john+smith")
        assert set(payload) == PAYLOAD_KEYS
        assert payload["cached"] is payload["cache_hit"]


class TestTracedEngineSpan:
    def test_engine_span_children(self, served):
        url, tracer, cached = served
        query = "ben+class" if cached else "john+class"
        trace_id = "0123456789abcd0" + ("1" if cached else "2")
        request = urllib.request.Request(
            f"{url}/api/search?q={query}", headers={"X-Trace-Id": trace_id}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()
        assert _engine_children(tracer, trace_id) == (CACHE_MISS if cached else CACHE_OFF)
        if cached:
            hit_id = "0123456789abcd03"
            request = urllib.request.Request(
                f"{url}/api/search?q={query}", headers={"X-Trace-Id": hit_id}
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert json.loads(response.read())["cached"] is True
            assert _engine_children(tracer, hit_id) == CACHE_HIT
