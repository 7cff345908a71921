"""Trace export: ship finished request traces out of the process.

Metrics stay pull-only (``/metrics``; a Prometheus server scrapes them and
evaluates ``docs/slo_rules.yml``), but traces would otherwise die in
``/debug/slow``.  This module pushes them to an external collector
without ever letting the collector's health affect the serving path:

* a :class:`ExportSink` is the transport — :class:`JsonlFileSink` appends
  JSON lines to a local file, :class:`HttpCollectorSink` POSTs batches to
  an OTLP-ish HTTP endpoint, :class:`MemorySink` captures them for tests;
* a :class:`BackgroundExporter` owns a **bounded** in-memory queue drained
  by one daemon flusher thread.  ``submit`` never blocks: a full queue
  drops the record and counts it.  A failing sink is retried with
  exponential backoff plus jitter; once retries are exhausted the batch is
  dropped and counted.  ``close`` flushes what it can within a deadline
  and counts the rest as dropped — accounting is exact:
  ``submitted == sent + dropped`` after ``close()``;
* :class:`TraceExporter` ships span trees (the server enqueues one record
  per traced request).

Every exporter mirrors its accounting into the metrics registry
(``xks_export_sent_total``, ``xks_export_retries_total``,
``xks_export_dropped_total{reason=…}``, ``xks_export_queue_depth``), so
the export pipeline is itself observable from ``/metrics``.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry

_log = get_logger("export")

#: Default bound on queued-but-unsent records.
DEFAULT_QUEUE_SIZE = 2048
#: Default records per sink send.
DEFAULT_BATCH_SIZE = 64
#: Default idle flush interval (seconds).
DEFAULT_FLUSH_INTERVAL = 0.25
#: Default attempts per batch (1 initial + retries).
DEFAULT_MAX_RETRIES = 4
#: Exponential backoff: base * 2**attempt seconds, capped, plus jitter.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_MAX = 2.0
#: Jitter fraction of the computed backoff (full jitter would be 1.0).
DEFAULT_JITTER = 0.5

#: Drop reasons used in stats and the ``xks_export_dropped_total`` label.
DROP_QUEUE_FULL = "queue_full"
DROP_SEND_FAILED = "send_failed"
DROP_SHUTDOWN = "shutdown"

#: Default connect/read timeout for the HTTP sink (seconds).  A sink with
#: no timeout can hang the flusher thread forever on a stalled collector,
#: which then backs the bounded queue up into ``queue_full`` drops — so a
#: finite timeout is enforced, never optional.
DEFAULT_HTTP_TIMEOUT = 5.0


class ExportError(Exception):
    """A sink could not deliver a batch (transient; the exporter retries)."""


class ExportSink:
    """Transport interface: deliver a batch of JSON-able records or raise."""

    def send(self, records: List[dict]) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return type(self).__name__


class MemorySink(ExportSink):
    """Collects records in memory (tests, examples)."""

    def __init__(self):
        self.records: List[dict] = []
        self._lock = threading.Lock()

    def send(self, records: List[dict]) -> None:
        with self._lock:
            self.records.extend(records)

    def __len__(self) -> int:
        with self._lock:
            return len(self.records)


class JsonlFileSink(ExportSink):
    """Appends one JSON object per line to a local file.

    The file is opened lazily (so constructing the sink never fails a
    server start) and flushed after every batch — a crash loses at most
    the batch in flight.
    """

    def __init__(self, path: str):
        self.path = path
        self._file = None
        self._lock = threading.Lock()

    def send(self, records: List[dict]) -> None:
        try:
            with self._lock:
                if self._file is None:
                    self._file = open(self.path, "a", encoding="utf-8")
                for record in records:
                    self._file.write(json.dumps(record, default=str) + "\n")
                self._file.flush()
        except OSError as exc:
            raise ExportError(f"jsonl write to {self.path} failed: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def describe(self) -> str:
        return f"jsonl:{self.path}"


class HttpCollectorSink(ExportSink):
    """POSTs batches as ``{"records": [...]}`` JSON to a collector URL.

    Any non-2xx status, connection failure or timeout raises
    :class:`ExportError`; the exporter's retry/backoff policy decides what
    happens next.  The serving path never sees the exception.
    """

    def __init__(
        self,
        url: str,
        timeout: float = DEFAULT_HTTP_TIMEOUT,
        content_type: str = "application/json",
    ):
        if timeout is None or timeout <= 0:
            # timeout=None means "block forever" to urllib — one stalled
            # collector would wedge the flusher thread and turn every
            # subsequent submit into a queue_full drop.
            raise ValueError("HttpCollectorSink timeout must be a positive number")
        self.url = url
        self.timeout = float(timeout)
        self.content_type = content_type

    def send(self, records: List[dict]) -> None:
        body = json.dumps({"records": records}, default=str).encode("utf-8")
        request = urllib.request.Request(
            self.url,
            data=body,
            headers={
                # Always explicit: urllib would otherwise default POSTed
                # bytes to x-www-form-urlencoded, which strict collectors
                # reject.
                "Content-Type": self.content_type,
                "Content-Length": str(len(body)),
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                if not 200 <= response.status < 300:
                    raise ExportError(f"collector returned {response.status}")
        except ExportError:
            raise
        except Exception as exc:  # URLError, timeout, RemoteDisconnected, ...
            raise ExportError(f"POST {self.url} failed: {exc}") from exc

    def describe(self) -> str:
        return f"http:{self.url}"


class ExportStats:
    """Exact accounting for one exporter (independent of the kill switch).

    The invariant after ``close()``: ``submitted == sent + dropped_total``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.submitted = 0
        self.sent = 0
        self.retries = 0
        self.batches = 0
        self.dropped: Dict[str, int] = {}

    def _add(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def drop(self, reason: str, amount: int = 1) -> None:
        with self._lock:
            self.dropped[reason] = self.dropped.get(reason, 0) + amount

    @property
    def dropped_total(self) -> int:
        with self._lock:
            return sum(self.dropped.values())

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "submitted": self.submitted,
                "sent": self.sent,
                "retries": self.retries,
                "batches": self.batches,
                "dropped": dict(self.dropped),
                "dropped_total": sum(self.dropped.values()),
            }


class BackgroundExporter:
    """Bounded queue + daemon flusher; the serving path never blocks.

    ``submit(record)`` appends under a lock and returns immediately —
    ``False`` (plus a drop count) when the queue is full.  The flusher
    drains batches and hands them to the sink; failures are retried
    ``max_retries`` times with capped exponential backoff and jitter,
    then the batch is dropped with reason ``send_failed``.

    ``close(flush_timeout)`` stops accepting records, lets the flusher
    drain what it can inside the deadline (one final delivery attempt per
    batch, no long backoffs), counts the remainder as ``shutdown`` drops,
    and closes the sink.
    """

    #: Label value for this exporter's registry metrics.
    kind = "trace"

    def __init__(
        self,
        sink: ExportSink,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        batch_size: int = DEFAULT_BATCH_SIZE,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_max: float = DEFAULT_BACKOFF_MAX,
        jitter: float = DEFAULT_JITTER,
        registry: Optional[MetricsRegistry] = None,
        name: Optional[str] = None,
    ):
        if queue_size < 1:
            raise ValueError("queue_size must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.sink = sink
        self.name = name or self.kind
        self.queue_size = queue_size
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.jitter = jitter
        self.stats = ExportStats()
        self._registry = registry if registry is not None else get_registry()
        self._rng = random.Random()
        self._queue: "deque[dict]" = deque()
        self._in_flight = 0
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stopping = False
        self._closed = False
        self._mirror_metrics()
        self._thread = threading.Thread(
            target=self._run, name=f"xks-export-{self.name}", daemon=True
        )
        self._thread.start()

    # -- registry mirror -----------------------------------------------------

    def _mirror_metrics(self) -> None:
        registry = self._registry
        self._sent_counter = registry.counter(
            "xks_export_sent_total",
            "Records delivered to the export sink.",
            labelnames=("exporter",),
        ).labels(exporter=self.name)
        self._retry_counter = registry.counter(
            "xks_export_retries_total",
            "Batch delivery retries (sink failures).",
            labelnames=("exporter",),
        ).labels(exporter=self.name)
        self._dropped_family = registry.counter(
            "xks_export_dropped_total",
            "Records dropped instead of exported, by reason.",
            labelnames=("exporter", "reason"),
        )
        self._depth_gauge = registry.gauge(
            "xks_export_queue_depth",
            "Records currently queued for export.",
            labelnames=("exporter",),
        ).labels(exporter=self.name)

    def _count_drop(self, reason: str, amount: int) -> None:
        self.stats.drop(reason, amount)
        self._dropped_family.labels(exporter=self.name, reason=reason).inc(amount)

    # -- producer side -------------------------------------------------------

    def submit(self, record: dict) -> bool:
        """Enqueue one record; never blocks.  Returns False when dropped."""
        drop_reason = None
        with self._lock:
            if self._stopping:
                drop_reason = DROP_SHUTDOWN
            elif len(self._queue) >= self.queue_size:
                drop_reason = DROP_QUEUE_FULL
            else:
                self._queue.append(record)
            depth = len(self._queue)
        self.stats._add("submitted")
        self._depth_gauge.set(depth)
        if drop_reason is not None:
            self._count_drop(drop_reason, 1)
            return False
        self._wake.set()
        return True

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- flusher -------------------------------------------------------------

    def _take_batch(self) -> List[dict]:
        with self._lock:
            batch = []
            while self._queue and len(batch) < self.batch_size:
                batch.append(self._queue.popleft())
            depth = len(self._queue)
            # Popped records stay visible to flush() until delivery resolves
            # (_deliver clears this) — "queue empty" alone is not "flushed".
            self._in_flight = len(batch)
        self._depth_gauge.set(depth)
        return batch

    def _backoff(self, attempt: int) -> float:
        delay = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        return delay * (1.0 + self.jitter * self._rng.random())

    def _deliver(self, batch: List[dict], deadline: Optional[float] = None) -> bool:
        """Send one batch with the retry policy; True when it got through."""
        try:
            return self._deliver_inner(batch, deadline)
        finally:
            with self._lock:
                self._in_flight = 0

    def _deliver_inner(self, batch: List[dict], deadline: Optional[float]) -> bool:
        attempts = 1 + max(0, self.max_retries)
        for attempt in range(attempts):
            try:
                from repro.robustness import faultinject

                if faultinject.fire("fail-export") is not None:
                    raise RuntimeError("injected export failure")
                self.sink.send(batch)
            except Exception as exc:
                last_error = exc
                if attempt + 1 >= attempts:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    break
                self.stats._add("retries")
                self._retry_counter.inc()
                self._wake.clear()
                # clear → check → wait: close() sets _stopping before the
                # wake event, so a shutdown racing this clear() is caught by
                # one of the two checks and never waits out a long backoff.
                if self._stopping and deadline is None:
                    break
                self._wake.wait(self._backoff(attempt))
                if self._stopping and deadline is None:
                    break
            else:
                self.stats._add("sent", len(batch))
                self.stats._add("batches")
                self._sent_counter.inc(len(batch))
                return True
        _log.warning(
            "export_batch_dropped",
            exporter=self.name,
            sink=self.sink.describe(),
            records=len(batch),
            error=str(last_error),
        )
        self._count_drop(DROP_SEND_FAILED, len(batch))
        return False

    def _run(self) -> None:
        while True:
            self._wake.wait(self.flush_interval)
            self._wake.clear()
            if self._stopping and not self._queue:
                return
            while True:
                batch = self._take_batch()
                if not batch:
                    break
                self._deliver(batch)
                if self._stopping:
                    break
            if self._stopping:
                return

    # -- shutdown ------------------------------------------------------------

    def _pending(self) -> int:
        with self._lock:
            return len(self._queue) + self._in_flight

    def flush(self, timeout: float = 5.0) -> bool:
        """Best-effort wait until queued *and* in-flight records resolve
        (True on success) — a batch mid-retry still counts as unflushed."""
        deadline = time.monotonic() + timeout
        self._wake.set()
        while time.monotonic() < deadline:
            if self._pending() == 0:
                return True
            time.sleep(0.01)
        return self._pending() == 0

    def close(self, flush_timeout: float = 5.0) -> None:
        """Stop accepting, drain within the deadline, count the rest dropped."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._stopping = True
        self._wake.set()
        self._thread.join(timeout=max(0.1, flush_timeout))
        # One final inline drain: anything the flusher left behind gets one
        # delivery attempt (bounded by the deadline), then counts as dropped.
        deadline = time.monotonic() + max(0.0, flush_timeout)
        while True:
            batch = self._take_batch()
            if not batch:
                break
            if time.monotonic() >= deadline or not self._deliver(batch, deadline=deadline):
                self._count_drop(DROP_SHUTDOWN, len(batch))
                while True:
                    rest = self._take_batch()
                    if not rest:
                        break
                    self._count_drop(DROP_SHUTDOWN, len(rest))
                break
        self._depth_gauge.set(0)
        with self._lock:
            self._in_flight = 0
        self.sink.close()
        _log.info(
            "exporter_closed",
            exporter=self.name,
            sink=self.sink.describe(),
            **self.stats.as_dict(),
        )

    def __enter__(self) -> "BackgroundExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TraceExporter(BackgroundExporter):
    """Ships finished span trees (one record per traced request)."""

    kind = "trace"

    def export_trace(self, trace: Any) -> bool:
        """Enqueue a finished :class:`~repro.obs.tracing.Trace` (or dict)."""
        payload = trace if isinstance(trace, dict) else trace.to_dict()
        record = {"kind": "trace", "exported_at": time.time()}
        record.update(payload)
        return self.submit(record)
