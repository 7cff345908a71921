"""Trace export: the inline JSONL writer and its accounting.

The contract under test (see repro/obs/export.py): every ``write`` either
appends one JSON line and counts ``xks_export_sent_total``, or fails,
logs and counts ``xks_export_dropped_total{reason="send_failed"}`` —
it never raises.
"""

import json

import pytest

from repro.obs.export import TraceFile
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Trace
from repro.robustness import faultinject


def make_trace(trace_id="aaaabbbbccccdddd"):
    trace = Trace("request", trace_id=trace_id)
    with trace.span("engine"):
        pass
    trace.finish()
    return trace


def counts(registry):
    values = {}
    for sample in registry.collect():
        if sample.name.startswith("xks_export_"):
            key = (sample.name, sample.labels.get("reason"))
            values[key] = values.get(key, 0) + sample.value
    sent = values.get(("xks_export_sent_total", None), 0)
    dropped = values.get(("xks_export_dropped_total", "send_failed"), 0)
    return sent, dropped


@pytest.fixture
def no_faults():
    faultinject.reset_plan()
    yield
    faultinject.reset_plan()


class TestSinks:
    def test_jsonl_sink_appends_one_object_per_line(self, tmp_path):
        path = tmp_path / "out.jsonl"
        writer = TraceFile(str(path), registry=MetricsRegistry())
        assert writer.write(make_trace("aaaaaaaaaaaaaaa1"))
        assert writer.write(make_trace("aaaaaaaaaaaaaaa2"))
        writer.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["trace_id"] for line in lines] == [
            "aaaaaaaaaaaaaaa1",
            "aaaaaaaaaaaaaaa2",
        ]

    def test_jsonl_sink_is_lazy(self, tmp_path):
        path = tmp_path / "sub" / "out.jsonl"
        registry = MetricsRegistry()
        writer = TraceFile(str(path), registry=registry)  # never touches the disk
        assert not path.exists()
        # Parent dir missing: the write fails, is counted, and never raises.
        assert writer.write(make_trace()) is False
        assert counts(registry) == (0, 1)


class TestAccounting:
    def test_all_sent_invariant(self, tmp_path):
        registry = MetricsRegistry()
        writer = TraceFile(str(tmp_path / "t.jsonl"), registry=registry)
        for i in range(50):
            assert writer.write(make_trace(f"{i:016x}"))
        writer.close()
        assert counts(registry) == (50, 0)
        assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 50

    def test_registry_mirror(self, tmp_path):
        registry = MetricsRegistry()
        writer = TraceFile(str(tmp_path / "t.jsonl"), registry=registry)
        writer.write(make_trace())
        writer.close()
        text = registry.render()
        assert 'xks_export_sent_total{exporter="trace"} 1' in text
        assert (
            'xks_export_dropped_total{exporter="trace",reason="send_failed"} 0'
            in text
        )

    def test_fail_export_fault_is_a_counted_drop(self, tmp_path, no_faults):
        registry = MetricsRegistry()
        path = tmp_path / "t.jsonl"
        writer = TraceFile(str(path), registry=registry)
        faultinject.arm("fail-export:after=1:every=2")
        results = [writer.write(make_trace(f"{i:016x}")) for i in range(6)]
        writer.close()
        assert results == [True, False] * 3
        assert counts(registry) == (3, 3)
        ids = [json.loads(line)["trace_id"] for line in path.read_text().splitlines()]
        assert ids == [f"{i:016x}" for i in (0, 2, 4)]

    def test_write_error_is_a_counted_drop(self, tmp_path):
        registry = MetricsRegistry()
        writer = TraceFile(str(tmp_path), registry=registry)  # a directory
        assert writer.write(make_trace()) is False
        assert writer.write(make_trace()) is False
        assert counts(registry) == (0, 2)


class TestClose:
    def test_close_is_idempotent(self, tmp_path):
        writer = TraceFile(str(tmp_path / "t.jsonl"), registry=MetricsRegistry())
        writer.write(make_trace())
        writer.close()
        writer.close()
        assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 1


class TestTraceExporter:
    def test_export_trace_serializes_the_span_tree(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceFile(str(path), registry=MetricsRegistry())
        writer.write(make_trace())
        writer.close()
        (record,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert record["trace_id"] == "aaaabbbbccccdddd"
        assert record["name"] == "request"
        assert record["children"][0]["name"] == "engine"
