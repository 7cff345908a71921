"""A failing trace-file write never touches the request it belongs to.

The server appends each traced request's span tree to the
``--export-jsonl`` file after the response is written.  When that write
fails — the ``fail-export`` fault point, or a trace directory that is not
there — every response must still be a 200 with the same bytes as on a
healthy run, ``xks_export_dropped_total`` must equal the failed writes,
and sent + dropped must equal the traced requests.
"""

import json
import re
import threading
import time
import urllib.request

import pytest

from repro.obs.export import TraceFile
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.robustness import faultinject
from repro.xksearch.server import make_server
from repro.xksearch.system import XKSearch
from repro.xmltree.generate import school_tree

QUERIES = ("John+Ben", "class+smith", "John+Smith", "smith+zebra", "class+ben", "ben")

_ELAPSED = re.compile(rb'"elapsed_ms": [0-9.e-]+')


@pytest.fixture(autouse=True)
def no_faults():
    faultinject.reset_plan()
    yield
    faultinject.reset_plan()


@pytest.fixture(scope="module")
def system():
    return XKSearch.from_tree(school_tree())


def export_counts(registry):
    sent = dropped = 0
    for sample in registry.collect():
        if sample.name == "xks_export_sent_total":
            sent += sample.value
        elif sample.name == "xks_export_dropped_total":
            assert sample.labels["reason"] == "send_failed"
            dropped += sample.value
    return int(sent), int(dropped)


def wait_counted(registry, n):
    """The write follows the response on the handler thread: wait until
    *n* writes are counted, sent or dropped."""
    deadline = time.monotonic() + 10.0
    while sum(export_counts(registry)) < n:
        assert time.monotonic() < deadline, export_counts(registry)
        time.sleep(0.01)


def serve_traced(system, path, between=None):
    """Serve QUERIES with every request traced and exported to *path*.

    Returns ``(responses, sent, dropped)``; a response is ``(status,
    X-Trace-Id, body)`` with the wall-clock ``elapsed_ms`` field zeroed.
    *between* runs after the first half of the queries.
    """
    registry = MetricsRegistry()
    server = make_server(
        system,
        port=0,
        tracer=Tracer(sample_rate=1.0),
        registry=registry,
        exporter=TraceFile(str(path), registry=registry),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    responses = []
    try:
        for i, query in enumerate(QUERIES):
            if i == len(QUERIES) // 2 and between is not None:
                between()
            request = urllib.request.Request(
                f"http://{host}:{port}/api/search?q={query}",
                headers={"X-Trace-Id": f"{i:016x}"},
            )
            with urllib.request.urlopen(request, timeout=10) as resp:
                body = _ELAPSED.sub(b'"elapsed_ms": 0', resp.read())
                responses.append((resp.status, resp.headers["X-Trace-Id"], body))
            # Each handler thread writes its trace after its response; wait
            # for it so the next request's write cannot overtake it.
            wait_counted(registry, i + 1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return (responses, *export_counts(registry))


def exported_ids(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["trace_id"] for line in fh]


@pytest.fixture(scope="module")
def healthy(system, tmp_path_factory):
    path = tmp_path_factory.mktemp("healthy") / "traces.jsonl"
    responses, sent, dropped = serve_traced(system, path)
    assert (sent, dropped) == (len(QUERIES), 0)
    served = [trace_id for _, trace_id, _ in responses]
    assert exported_ids(path) == served == [f"{i:016x}" for i in range(len(QUERIES))]
    return responses


def test_fail_export_drops_are_counted_and_invisible(system, healthy, tmp_path):
    path = tmp_path / "traces.jsonl"
    plan = faultinject.arm("fail-export:after=1:every=2")
    responses, sent, dropped = serve_traced(system, path)
    failed = plan.spec("fail-export").fired
    assert failed == len(QUERIES) // 2
    assert responses == healthy
    assert all(status == 200 for status, _, _ in responses)
    assert dropped == failed
    assert sent + dropped == len(QUERIES)
    # Arrivals 2, 4, 6 fired: the odd-indexed requests' traces are missing.
    assert exported_ids(path) == [f"{i:016x}" for i in range(0, len(QUERIES), 2)]


def test_missing_trace_directory_drops_until_it_returns(system, healthy, tmp_path):
    trace_dir = tmp_path / "gone"
    path = trace_dir / "traces.jsonl"
    responses, sent, dropped = serve_traced(system, path, between=trace_dir.mkdir)
    assert responses == healthy
    assert all(status == 200 for status, _, _ in responses)
    half = len(QUERIES) // 2
    assert (sent, dropped) == (len(QUERIES) - half, half)
    # The writer opens the file lazily, so it recovers once the
    # directory exists again.
    assert exported_ids(path) == [f"{i:016x}" for i in range(half, len(QUERIES))]
