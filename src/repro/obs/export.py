"""Trace export: finished request traces appended to one JSONL file.

Metrics stay pull-only (``/metrics``; a Prometheus server scrapes them and
evaluates ``docs/slo_rules.yml``), but traces would otherwise die in
``/debug/slow``.  ``serve --export-jsonl FILE`` attaches a
:class:`TraceFile`: the request thread, after its response is written,
appends the trace as one JSON line and flushes.  A failed write — an
``OSError`` or the ``fail-export`` fault point — is logged and counted in
``xks_export_dropped_total{reason="send_failed"}``; a successful one in
``xks_export_sent_total``.  The request is never affected either way.
"""

from __future__ import annotations

import json
import threading
from typing import Optional

from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.robustness import faultinject

_log = get_logger("export")


class TraceFile:
    """Appends one JSON object per finished trace to *path*.

    The file is opened lazily (constructing never fails a server start)
    and flushed after every line, so a crash loses at most the line being
    written.
    """

    def __init__(self, path: str, registry: Optional[MetricsRegistry] = None):
        self.path = path
        self._file = None
        self._lock = threading.Lock()
        registry = registry if registry is not None else get_registry()
        self._sent = registry.counter(
            "xks_export_sent_total",
            "Traces appended to the export file.",
            labelnames=("exporter",),
        ).labels(exporter="trace")
        self._dropped = registry.counter(
            "xks_export_dropped_total",
            "Traces dropped because the export write failed, by reason.",
            labelnames=("exporter", "reason"),
        ).labels(exporter="trace", reason="send_failed")

    def write(self, trace) -> bool:
        """Append *trace* (a :class:`~repro.obs.tracing.Trace`); True when
        the line reached the file, False when the write failed."""
        line = json.dumps(trace.to_dict(), default=str) + "\n"
        try:
            if faultinject.fire("fail-export") is not None:
                raise OSError("injected export failure")
            with self._lock:
                if self._file is None:
                    self._file = open(self.path, "a", encoding="utf-8")
                self._file.write(line)
                self._file.flush()
        except OSError as exc:
            _log.warning("trace_write_failed", path=self.path, error=str(exc))
            self._dropped.inc()
            return False
        self._sent.inc()
        return True

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
