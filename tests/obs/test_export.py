"""Export pipeline: sinks, background exporter accounting, retry/backoff,
queue-full drops and flush-on-close.

The contract under test (see repro/obs/export.py): ``submit`` never
blocks, every submitted record is eventually either sent or counted in a
drop bucket, and after ``close()`` the accounting is exact::

    submitted == sent + dropped_total
"""

import json
import threading
import time

import pytest

from repro.obs.export import (
    DROP_QUEUE_FULL,
    DROP_SEND_FAILED,
    DROP_SHUTDOWN,
    BackgroundExporter,
    ExportError,
    ExportSink,
    HttpCollectorSink,
    JsonlFileSink,
    MemorySink,
    TraceExporter,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Trace


class FlakySink(ExportSink):
    """Fails the first ``failures`` sends, then succeeds."""

    def __init__(self, failures: int):
        self.failures = failures
        self.attempts = 0
        self.records = []
        self._lock = threading.Lock()

    def send(self, records):
        with self._lock:
            self.attempts += 1
            if self.attempts <= self.failures:
                raise ExportError("transient collector failure")
            self.records.extend(records)


class DeadSink(ExportSink):
    """Every send fails (collector permanently down)."""

    def __init__(self):
        self.attempts = 0

    def send(self, records):
        self.attempts += 1
        raise ExportError("collector down")


def fast_exporter(sink, **kwargs):
    """An exporter with test-friendly timings (no multi-second backoffs)."""
    defaults = dict(
        flush_interval=0.01,
        backoff_base=0.001,
        backoff_max=0.01,
        jitter=0.0,
        registry=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return BackgroundExporter(sink, **defaults)


class TestSinks:
    def test_memory_sink_collects(self):
        sink = MemorySink()
        sink.send([{"a": 1}, {"b": 2}])
        assert len(sink) == 2
        assert sink.records[0] == {"a": 1}

    def test_jsonl_sink_appends_one_object_per_line(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlFileSink(str(path))
        sink.send([{"a": 1}])
        sink.send([{"b": 2}])
        sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [{"a": 1}, {"b": 2}]

    def test_jsonl_sink_is_lazy(self, tmp_path):
        path = tmp_path / "sub" / "out.jsonl"
        sink = JsonlFileSink(str(path))  # constructing never touches the disk
        assert not path.exists()
        with pytest.raises(ExportError):
            sink.send([{"a": 1}])  # parent dir missing -> ExportError, not OSError

    def test_jsonl_sink_describe(self, tmp_path):
        assert JsonlFileSink(str(tmp_path / "t.jsonl")).describe().startswith("jsonl:")

    def test_http_sink_raises_export_error_when_unreachable(self):
        sink = HttpCollectorSink("http://127.0.0.1:9/never", timeout=0.2)
        with pytest.raises(ExportError):
            sink.send([{"a": 1}])


class TestAccounting:
    def test_all_sent_invariant(self):
        sink = MemorySink()
        with fast_exporter(sink) as exporter:
            for i in range(50):
                assert exporter.submit({"i": i})
            assert exporter.flush(timeout=5.0)
        stats = exporter.stats.as_dict()
        assert stats["submitted"] == 50
        assert stats["sent"] == 50
        assert stats["dropped_total"] == 0
        assert len(sink) == 50

    def test_queue_full_drops_are_counted(self):
        # A dead sink with huge backoff wedges the flusher, so the bounded
        # queue fills and further submits drop without blocking.
        sink = DeadSink()
        exporter = BackgroundExporter(
            sink,
            queue_size=4,
            batch_size=4,
            flush_interval=30.0,
            backoff_base=30.0,
            backoff_max=30.0,
            max_retries=4,
            registry=MetricsRegistry(),
        )
        try:
            results = [exporter.submit({"i": i}) for i in range(10)]
            assert results.count(False) >= 10 - 4 - 4  # queue + one in-flight batch
            stats = exporter.stats.as_dict()
            assert stats["dropped"].get(DROP_QUEUE_FULL, 0) >= 2
        finally:
            exporter.close(flush_timeout=0.1)
        stats = exporter.stats.as_dict()
        assert stats["submitted"] == stats["sent"] + stats["dropped_total"]

    def test_submit_after_close_is_a_shutdown_drop(self):
        exporter = fast_exporter(MemorySink())
        exporter.close()
        assert exporter.submit({"late": True}) is False
        assert exporter.stats.as_dict()["dropped"].get(DROP_SHUTDOWN, 0) == 1

    def test_registry_mirror(self):
        registry = MetricsRegistry()
        with fast_exporter(MemorySink(), registry=registry, name="t") as exporter:
            exporter.submit({"a": 1})
            exporter.flush(timeout=5.0)
        text = registry.render()
        assert 'xks_export_sent_total{exporter="t"} 1' in text
        assert 'xks_export_queue_depth{exporter="t"} 0' in text


class TestRetryBackoff:
    def test_transient_failure_is_retried_and_delivered(self):
        sink = FlakySink(failures=2)
        with fast_exporter(sink, max_retries=4) as exporter:
            exporter.submit({"a": 1})
            assert exporter.flush(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not sink.records:
                time.sleep(0.01)
        stats = exporter.stats.as_dict()
        assert stats["sent"] == 1
        assert stats["retries"] == 2
        assert sink.records == [{"a": 1}]

    def test_exhausted_retries_drop_the_batch(self):
        sink = DeadSink()
        with fast_exporter(sink, max_retries=2) as exporter:
            exporter.submit({"a": 1})
            deadline = time.monotonic() + 5.0
            while (
                time.monotonic() < deadline
                and not exporter.stats.as_dict()["dropped_total"]
            ):
                time.sleep(0.01)
        stats = exporter.stats.as_dict()
        assert stats["dropped"].get(DROP_SEND_FAILED, 0) >= 1
        assert sink.attempts >= 3  # 1 initial + 2 retries
        assert stats["submitted"] == stats["sent"] + stats["dropped_total"]

    def test_backoff_grows_and_is_capped(self):
        exporter = fast_exporter(
            MemorySink(), backoff_base=0.05, backoff_max=0.2, jitter=0.0
        )
        try:
            delays = [exporter._backoff(attempt) for attempt in range(6)]
            assert delays[0] == pytest.approx(0.05)
            assert delays[1] == pytest.approx(0.10)
            assert all(d <= 0.2 for d in delays[2:])
            assert sorted(delays) == delays
        finally:
            exporter.close()

    def test_jitter_spreads_the_backoff(self):
        exporter = fast_exporter(
            MemorySink(), backoff_base=0.1, backoff_max=10.0, jitter=0.5
        )
        try:
            delays = {round(exporter._backoff(0), 6) for _ in range(20)}
            assert len(delays) > 1
            assert all(0.1 <= d <= 0.15 + 1e-9 for d in delays)
        finally:
            exporter.close()


class TestClose:
    def test_close_flushes_pending_records(self):
        sink = MemorySink()
        exporter = fast_exporter(sink, flush_interval=60.0)  # flusher asleep
        for i in range(10):
            exporter.submit({"i": i})
        exporter.close(flush_timeout=5.0)
        assert len(sink) == 10
        assert exporter.stats.as_dict()["dropped_total"] == 0

    def test_close_counts_undeliverable_as_shutdown_drops(self):
        exporter = BackgroundExporter(
            DeadSink(),
            flush_interval=30.0,
            backoff_base=30.0,
            backoff_max=30.0,
            registry=MetricsRegistry(),
        )
        for i in range(5):
            exporter.submit({"i": i})
        exporter.close(flush_timeout=0.2)
        stats = exporter.stats.as_dict()
        assert stats["submitted"] == 5
        assert stats["sent"] == 0
        assert stats["submitted"] == stats["sent"] + stats["dropped_total"]

    def test_close_is_idempotent(self):
        exporter = fast_exporter(MemorySink())
        exporter.submit({"a": 1})
        exporter.close()
        exporter.close()
        assert exporter.stats.as_dict()["submitted"] == 1


class TestTraceExporter:
    def test_export_trace_serializes_the_span_tree(self):
        sink = MemorySink()
        exporter = TraceExporter(
            sink, flush_interval=0.01, registry=MetricsRegistry()
        )
        trace = Trace("request", trace_id="aaaabbbbccccdddd")
        with trace.span("engine"):
            pass
        trace.finish()
        exporter.export_trace(trace)
        exporter.close()
        assert len(sink) == 1
        record = sink.records[0]
        assert record["kind"] == "trace"
        assert record["trace_id"] == "aaaabbbbccccdddd"
        assert record["children"][0]["name"] == "engine"
        assert "exported_at" in record


class TestHttpSinkHardening:
    def test_non_positive_timeout_rejected(self):
        for bad in (None, 0, -1.0):
            with pytest.raises(ValueError):
                HttpCollectorSink("http://localhost:9", timeout=bad)

    def test_default_timeout_is_finite(self):
        sink = HttpCollectorSink("http://localhost:9")
        assert sink.timeout > 0

    def test_post_sends_explicit_content_type(self):
        import http.server

        seen = {}

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                seen["content_type"] = self.headers["Content-Type"]
                length = int(self.headers["Content-Length"])
                seen["body"] = self.rfile.read(length)
                self.send_response(204)
                self.end_headers()

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/v1/records"
            sink = HttpCollectorSink(url, timeout=5.0)
            sink.send([{"kind": "alert", "to": "firing"}])
        finally:
            server.shutdown()
            server.server_close()
        assert seen["content_type"] == "application/json"
        assert json.loads(seen["body"])["records"][0]["to"] == "firing"
