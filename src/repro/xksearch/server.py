"""The demo web server, grown into a small serving layer.

The original XKSearch demo ran as a Java Servlet under Tomcat; this is the
equivalent zero-dependency server: ``xksearch serve <index_dir>`` starts a
**threaded** HTTP server whose ``/search?q=…`` endpoint runs the engine and
renders the results page from :mod:`repro.xksearch.html`.

Serving-layer features (beyond the paper's demo):

* **concurrency** — requests are handled on worker threads
  (``ThreadingHTTPServer``); the number of concurrently *executing*
  requests is capped by a semaphore (``max_workers``).  The underlying
  index read path is thread-safe (the buffer pool serializes page
  access), so queries genuinely overlap;
* **caching** — the system is normally opened with a
  :class:`~repro.xksearch.cache.QueryCache`, so repeated queries are
  answered from memory (``xksearch serve --cache-size``);
* **process-pool execution** — ``--workers-proc N`` moves cache-miss
  query execution past the GIL into N forked worker processes reading
  the index through shared memory maps (see
  :mod:`repro.xksearch.parallel` and docs/PERFORMANCE.md, "Scaling past
  the GIL");
* **observability** (see docs/OBSERVABILITY.md) — every request is timed
  and counted in the process-global metrics registry; ``GET /metrics``
  exposes Prometheus text format covering server, cache, buffer-pool,
  pager and algorithm-counter metrics; ``/statz`` returns the same as
  structured JSON plus latency percentiles; every search response carries
  ``X-Response-Time-Ms`` and an ``X-Trace-Id`` (client-provided or
  generated), slow requests land in ``/debug/slow``, and
  ``/api/search?explain=1`` returns the per-phase EXPLAIN breakdown;
* **a JSON API** — ``GET /api/search?q=…`` returns bare Dewey ids plus
  plan/timing metadata, the endpoint load generators and programmatic
  clients (``benchmarks/e2e/run.py``) use;
* **robustness** (see docs/ROBUSTNESS.md) — requests can carry an
  end-to-end deadline (``X-Deadline-Ms`` header, ``?timeout_ms=``, or
  ``serve --default-timeout-ms``) that is checked cooperatively through
  the algorithm loops and across the worker pool; expiry produces a
  structured 504 and counts ``xks_deadline_exceeded_total{phase}``.
  An :class:`~repro.robustness.admission.AdmissionGate` sheds work with
  429 + ``Retry-After`` at in-flight/latency watermarks (cheap |S1|
  bands are admitted preferentially), and SIGTERM drains in-flight
  requests before the trace file and the pool close.

Endpoints:

* ``GET /`` — search form;
* ``GET /search?q=<keywords>[&algorithm=auto|il|scan|stack]`` — HTML results;
* ``GET /api/search?q=<keywords>[&algorithm=…][&limit=N][&explain=1]`` —
  JSON results (+ EXPLAIN breakdown with ``explain=1``);
* ``GET /statz`` — serving metrics (JSON);
* ``GET /metrics`` — Prometheus text exposition (with OpenMetrics
  exemplars on histogram buckets that saw a traced request);
* ``GET /debug/slow[?limit=N][&clear=1]`` — bounded slow-query log plus
  current execution-histogram exemplars (JSON); ``clear`` returns the
  entries it removes;
* ``GET /debug/pprof[?seconds=N][&format=folded]`` — sampling-profiler
  flamegraph stacks of this process (``serve --profile-hz``): cumulative,
  or only the next N seconds; ``format=folded`` returns collapsed text
  for ``flamegraph.pl``;
* ``GET /healthz`` — liveness (plain text).

With ``serve --export-jsonl FILE`` every finished request trace is
appended to FILE as one JSON line, after the response is written; a
failed write is logged and counted, never seen by the request.
``--log-json`` (or ``REPRO_LOG_LEVEL``) turns on structured logs
correlated to ``X-Trace-Id`` (see :mod:`repro.obs.logging`).  SLOs
are evaluated outside the process, by Prometheus over ``/metrics``, with
the rules committed in ``docs/slo_rules.yml``.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import islice
from typing import Dict, List, Optional, Sequence
from urllib.parse import parse_qs, urlparse

from repro import __version__
from repro.errors import DeadlineExceeded, ReproError
from repro.robustness import faultinject
from repro.robustness.admission import AdmissionGate
from repro.robustness.deadline import Deadline, bind_deadline
from repro.obs.export import TraceFile
from repro.obs.logging import (
    configure_logging,
    get_logger,
    reset_current_trace_id,
    set_current_trace_id,
)
from repro.obs.metrics import (
    MetricsRegistry,
    Sample,
    exponential_buckets,
    get_registry,
)
from repro.obs.profiling import SamplingProfiler, render_folded
from repro.obs.tracing import (
    Span,
    Trace,
    Tracer,
    new_trace_id,
    span_from_dict,
    valid_trace_id,
)
from repro.xksearch.cache import QueryCache
from repro.xksearch.engine import ExecutionStats
from repro.xksearch.html import render_page
from repro.xksearch.system import XKSearch

#: Default cap on concurrently executing requests.
DEFAULT_MAX_WORKERS = 8

#: Per-request latencies kept for the /statz percentiles (ring buffer).
_LATENCY_WINDOW = 4096

#: HTTP latency histogram buckets: 0.05 ms … ~26 s, factor 2.
_HTTP_BUCKETS_MS = exponential_buckets(0.05, 2.0, 20)

#: Endpoints that get their own label value; everything else is "other"
#: so label cardinality stays bounded.
_KNOWN_ENDPOINTS = (
    "/",
    "/search",
    "/api/search",
    "/statz",
    "/metrics",
    "/debug/slow",
    "/debug/pprof",
    "/healthz",
)

_log = get_logger("server")

#: Process start (wall clock) — the xks_uptime_seconds origin.
_PROCESS_START = time.time()


def build_info_collector():
    """Scrape-time ``xks_build_info`` / ``xks_uptime_seconds`` samples.

    A module-level function (not a closure) so repeated ``make_server``
    calls registering it dedup to one — it describes the *process*, not a
    server instance, and is intentionally never unregistered.
    """
    yield Sample(
        "xks_build_info",
        1.0,
        {
            "version": __version__,
            "python": platform.python_version(),
            "pid": str(os.getpid()),
        },
        help="Build/runtime identity (value is always 1; the labels carry "
        "the information).",
    )
    yield Sample(
        "xks_uptime_seconds",
        time.time() - _PROCESS_START,
        help="Seconds since process start.",
    )


def build_info_dict() -> dict:
    """The same identity block as JSON, for /statz."""
    return {
        "version": __version__,
        "python": platform.python_version(),
        "pid": os.getpid(),
        "uptime_s": round(time.time() - _PROCESS_START, 3),
    }


class ServerMetrics:
    """Thread-safe request counters and latency percentiles."""

    def __init__(self, window: int = _LATENCY_WINDOW):
        self._lock = threading.Lock()
        self._window = window
        self._latencies_ms: List[float] = []
        self.requests = 0
        self.errors = 0

    def record(self, elapsed_ms: float, error: bool = False) -> None:
        with self._lock:
            self.requests += 1
            if error:
                self.errors += 1
            self._latencies_ms.append(elapsed_ms)
            if len(self._latencies_ms) > self._window:
                del self._latencies_ms[: -self._window]

    @staticmethod
    def _percentile(sorted_values: List[float], q: float) -> float:
        if not sorted_values:
            return 0.0
        index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
        return sorted_values[index]

    def summary(self) -> dict:
        with self._lock:
            latencies = sorted(self._latencies_ms)
            requests, errors = self.requests, self.errors
        return {
            "requests": requests,
            "errors": errors,
            "window": len(latencies),
            "latency_ms": {
                "p50": round(self._percentile(latencies, 0.50), 3),
                "p90": round(self._percentile(latencies, 0.90), 3),
                "p99": round(self._percentile(latencies, 0.99), 3),
                "mean": round(sum(latencies) / len(latencies), 3) if latencies else 0.0,
            },
        }


def system_collector(system: XKSearch):
    """A scrape-time collector mirroring one system's component stats.

    Buffer pool, pager and B+tree counters exist only for disk-backed
    indexes; cache metrics only when the engine has a
    :class:`~repro.xksearch.cache.QueryCache`.  Registered by
    :func:`make_server`, unregistered on ``server_close``.
    """

    def collect():
        storage = system.storage_stats()
        if storage is not None:
            pool = storage["buffer_pool"]
            yield Sample(
                "xks_buffer_pool_hits_total", pool["hits"], kind="counter",
                help="Buffer-pool page hits.",
            )
            yield Sample(
                "xks_buffer_pool_misses_total", pool["misses"], kind="counter",
                help="Buffer-pool page misses (physical reads).",
            )
            yield Sample(
                "xks_buffer_pool_evictions_total", pool["evictions"], kind="counter",
                help="Buffer-pool LRU evictions.",
            )
            yield Sample(
                "xks_buffer_pool_hit_rate", pool["hit_rate"],
                help="Buffer-pool hit rate over process lifetime.",
            )
            pager = storage["pager"]
            yield Sample(
                "xks_pager_reads_total", pager["sequential_reads"],
                {"kind": "sequential"}, kind="counter",
                help="Physical page reads by access pattern.",
            )
            yield Sample(
                "xks_pager_reads_total", pager["random_reads"], {"kind": "random"},
                kind="counter",
            )
            yield Sample(
                "xks_pager_writes_total", pager["writes"], kind="counter",
                help="Physical page writes.",
            )
            for tree, reads in (
                ("il", storage["bptree"]["il_node_reads"]),
                ("scan", storage["bptree"]["scan_node_reads"]),
            ):
                yield Sample(
                    "xks_bptree_node_reads_total", reads, {"tree": tree},
                    kind="counter", help="B+tree node touches per tree.",
                )
            yield Sample(
                "xks_segment_active",
                1.0 if storage.get("posting_tier") == "segment" else 0.0,
                help="Whether reads currently use the packed posting "
                "segments (1) or the B+tree fallback (0).",
            )
            segments = storage.get("segments")
            if segments is not None:
                yield Sample(
                    "xks_segment_keywords", segments["keywords"],
                    help="Keywords with a packed posting segment.",
                )
        pool = system.engine.pool
        if pool is not None:
            yield Sample(
                "xks_pool_workers", pool.alive,
                help="Live worker processes in the execution pool.",
            )
            yield Sample(
                "xks_pool_respawns_total", pool.respawns, kind="counter",
                help="Pool workers respawned after a failure.",
            )
        cache = system.engine.cache
        if cache is not None:
            for name, stats in (("results", cache.results.stats), ("plans", cache.plans.stats)):
                yield Sample(
                    "xks_query_cache_hits_total", stats.hits, {"cache": name},
                    kind="counter", help="Query-cache hits.",
                )
                yield Sample(
                    "xks_query_cache_misses_total", stats.misses, {"cache": name},
                    kind="counter", help="Query-cache misses.",
                )
                yield Sample(
                    "xks_query_cache_evictions_total", stats.evictions, {"cache": name},
                    kind="counter", help="Query-cache LRU evictions.",
                )
                yield Sample(
                    "xks_query_cache_invalidations_total", stats.invalidations,
                    {"cache": name}, kind="counter",
                    help="Query-cache generation invalidations.",
                )
            yield Sample(
                "xks_query_cache_entries", len(cache.results), {"cache": "results"},
                help="Live query-cache entries.",
            )
            yield Sample(
                "xks_query_cache_entries", len(cache.plans), {"cache": "plans"},
            )
        yield Sample(
            "xks_index_generation", system.engine.generation(),
            help="Current index mutation generation.",
        )

    return collect


def _trace_record(trace: Trace, stats: ExecutionStats) -> None:
    """Project a query's cost record onto its request trace.

    The record's phases become the children of an ``engine`` span; the
    span trees pool workers shipped back (``Span.to_dict`` form) are
    grafted beside it, so the exported trace shows the cross-process
    execution under the *serving* request's trace id.
    """
    engine = Span("engine")
    engine.duration_ms = stats.total_ms
    for phase in stats.phases:
        child = Span(phase.name, phase.detail)
        child.duration_ms = phase.ms
        engine.children.append(child)
    trace.root.children.append(engine)
    trace.annotate(
        query=stats.query,
        algorithm=stats.algorithm,
        cache_hit=stats.cache_hit,
        result_count=stats.result_count,
    )
    for data in stats.worker_spans:
        try:
            trace.root.children.append(span_from_dict(data))
        except (TypeError, ValueError):
            continue
    if stats.worker_spans:
        trace.annotate(pooled=True)


class _Handler(BaseHTTPRequestHandler):
    # Injected by make_server onto a per-server subclass:
    system: XKSearch = None
    metrics: ServerMetrics = None
    tracer: Tracer = None
    registry: MetricsRegistry = None
    exporter: Optional[TraceFile] = None
    profiler: Optional[SamplingProfiler] = None
    gate: Optional[AdmissionGate] = None
    default_timeout_ms: Optional[float] = None
    quiet: bool = True
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: N802 (stdlib naming)
        if not self.quiet:
            super().log_message(fmt, *args)

    def do_GET(self):  # noqa: N802 (stdlib naming)
        started = time.perf_counter()
        url = urlparse(self.path)
        error = False
        self._trace: Optional[Trace] = None
        self._trace_id: Optional[str] = None
        self._slow_entry: Optional[dict] = None
        context_token = None
        if url.path in ("/search", "/api/search"):
            client_trace_id = self.headers.get("X-Trace-Id")
            if client_trace_id is not None and not valid_trace_id(client_trace_id):
                # A malformed id must not reach the slow log, exemplars or
                # the export stream — regenerate instead of adopting it.
                _log.warning(
                    "invalid_trace_id", header=client_trace_id[:64], path=url.path
                )
                client_trace_id = None
            explain = self._wants_explain(url)
            if self.tracer is not None:
                self._trace = self.tracer.start(
                    "request", trace_id=client_trace_id, force=explain
                )
            self._trace_id = (
                self._trace.trace_id if self._trace is not None
                else (client_trace_id or new_trace_id())
            )
            # Everything downstream (engine histograms/exemplars, cache and
            # engine log lines) correlates through this binding.
            context_token = set_current_trace_id(self._trace_id)
        self._shed = False
        try:
            deadline = (
                self._parse_deadline(url)
                if url.path in ("/search", "/api/search")
                else None
            )
            try:
                if deadline is not None:
                    with bind_deadline(deadline):
                        # Upfront check: a request that arrives already
                        # expired (client budget spent queueing, or the
                        # expired-deadline fault) must not start work the
                        # checkpoints may be too coarse to stop.
                        deadline.check("admission")
                        error = self._dispatch(url)
                else:
                    error = self._dispatch(url)
            except DeadlineExceeded as exc:
                # The ONLY place a deadline expiry is counted — workers
                # and engine fallbacks propagate, they never count — so
                # one expired request is one increment.
                error = True
                phase = exc.phase or "unknown"
                (self.registry or get_registry()).counter(
                    "xks_deadline_exceeded_total",
                    "Requests that ran out of deadline budget, by the "
                    "phase that noticed.",
                    labelnames=("phase",),
                ).labels(phase=phase).inc()
                _log.warning("deadline_exceeded", path=url.path, phase=phase)
                self._send_json(
                    504,
                    {
                        "error": "deadline exceeded",
                        "phase": phase,
                        "trace_id": self._trace_id,
                    },
                )
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1000
            if self.metrics is not None:
                self.metrics.record(elapsed_ms, error=error)
            if (
                self.gate is not None
                and not self._shed
                and url.path in ("/search", "/api/search")
            ):
                # Shed requests are cheap by construction; feeding them
                # into the p99 window would talk the gate back open.
                self.gate.note_latency(elapsed_ms)
            self._record_request(url.path, elapsed_ms, error)
            if context_token is not None:
                reset_current_trace_id(context_token)

    def _dispatch(self, url) -> bool:
        """Route one request; returns True when it errored."""
        if url.path == "/healthz":
            self._send(200, "ok", content_type="text/plain; charset=utf-8")
        elif url.path == "/statz":
            self._send_json(200, self._statz())
        elif url.path == "/metrics":
            self._send(
                200,
                (self.registry or get_registry()).render(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif url.path == "/debug/slow":
            return self._handle_debug_slow(url)
        elif url.path == "/debug/pprof":
            return self._handle_debug_pprof(url)
        elif url.path == "/":
            self._send(200, render_page("", []))
        elif url.path == "/search":
            return self._handle_search(url)
        elif url.path == "/api/search":
            return self._handle_api_search(url)
        else:
            self._send(404, render_page("", []), status_only_body="not found")
            return True
        return False

    def _parse_deadline(self, url) -> Optional[Deadline]:
        """The request's deadline: header > query param > server default.

        A malformed budget is ignored (logged) rather than rejected —
        deadlines are advisory protection, not part of the query
        contract.  The ``expired-deadline`` fault point substitutes an
        already-expired deadline to drill the whole 504 path.
        """
        raw = self.headers.get("X-Deadline-Ms")
        if raw is None:
            raw = (parse_qs(url.query).get("timeout_ms") or [None])[0]
        budget: Optional[float] = None
        if raw is not None:
            try:
                budget = float(raw)
                if budget <= 0:
                    raise ValueError
            except ValueError:
                _log.warning("bad_deadline_ms", value=str(raw)[:64])
                budget = None
        if budget is None and self.default_timeout_ms:
            budget = self.default_timeout_ms
        if faultinject.fire("expired-deadline") is not None:
            return Deadline.after_ms(0.0)
        return Deadline.after_ms(budget) if budget is not None else None

    def _admission_check(self, query: str, algorithm: str) -> Optional[str]:
        """Ask the gate whether to shed; returns the shed reason or None.

        The |S1| frequency band comes from the (cached) query plan — the
        cheap cost signal the paper's analysis is built on.  A query the
        planner rejects is banded cheapest: it will fail fast with a 400
        downstream, which is not worth shedding.
        """
        if self.gate is None:
            return None
        try:
            band = self.system.explain(query, algorithm=algorithm).band
        except ReproError:
            band = "0"
        return self.gate.decide(band)

    def _send_shed(self, reason: str) -> None:
        self._shed = True
        self._send_json(
            429,
            {
                "error": "overloaded",
                "reason": reason,
                "trace_id": self._trace_id,
            },
            extra_headers={"Retry-After": str(self.gate.retry_after_s)},
        )

    def _record_request(self, path: str, elapsed_ms: float, error: bool) -> None:
        registry = self.registry or get_registry()
        endpoint = path if path in _KNOWN_ENDPOINTS else "other"
        registry.counter(
            "xks_http_requests_total",
            "HTTP requests served, by endpoint and outcome.",
            labelnames=("endpoint", "status"),
        ).labels(endpoint=endpoint, status="error" if error else "ok").inc()
        registry.histogram(
            "xks_http_request_ms",
            "End-to-end HTTP request latency (ms).",
            labelnames=("endpoint",),
            buckets=_HTTP_BUCKETS_MS,
        ).labels(endpoint=endpoint).observe(elapsed_ms)
        if self._trace is not None:
            self._trace.finish()
        if self.tracer is not None and self._slow_entry is not None:
            self.tracer.note(elapsed_ms, self._slow_entry, self._trace)
        if self.exporter is not None and self._trace is not None:
            # The response is already written: a failed write is counted
            # in xks_export_dropped_total and never reaches the client.
            self.exporter.write(self._trace)
        if _log.enabled_for("info"):
            _log.info(
                "request",
                path=endpoint,
                status="error" if error else "ok",
                elapsed_ms=round(elapsed_ms, 3),
            )

    @staticmethod
    def _wants_explain(url) -> bool:
        value = (parse_qs(url.query).get("explain") or [""])[0].lower()
        return value in ("1", "true", "yes")

    # -- endpoints -----------------------------------------------------------

    def _handle_search(self, url) -> bool:
        """HTML results page; returns True when the request errored."""
        params = parse_qs(url.query)
        query = (params.get("q") or [""])[0].strip()
        algorithm = (params.get("algorithm") or ["auto"])[0]
        if not query:
            self._send(200, render_page("", []))
            return False
        shed = self._admission_check(query, algorithm)
        if shed is not None:
            self._send_shed(shed)
            return True
        stats = ExecutionStats()
        try:
            plan = self.system.explain(query, algorithm=algorithm)
            started = time.perf_counter()
            ids = self.system.search_ids(query, algorithm=algorithm, stats=stats)
            # Dropping the sliced stream closes it, which records the query.
            results = [self.system._decorate(d, query) for d in islice(ids, 50)]
            del ids
            elapsed_ms = (time.perf_counter() - started) * 1000
        except DeadlineExceeded:
            raise  # 504, handled (and counted) centrally in do_GET
        except ReproError as exc:
            self._send(400, render_page(query, [], title=f"error: {exc}"))
            return True
        self._slow_entry = {"path": "/search", "query": query, "algorithm": stats.algorithm}
        if self._trace is not None:
            self._trace.annotate(query=query, algorithm=stats.algorithm)
        self._send(
            200,
            render_page(query, results, plan=plan, elapsed_ms=elapsed_ms),
            elapsed_ms=elapsed_ms,
        )
        return False

    def _handle_api_search(self, url) -> bool:
        """JSON results; returns True when the request errored."""
        params = parse_qs(url.query)
        query = (params.get("q") or [""])[0].strip()
        algorithm = (params.get("algorithm") or ["auto"])[0]
        limit_raw = (params.get("limit") or [""])[0]
        explain = self._wants_explain(url)
        if not query:
            self._send_json(400, {"error": "missing query parameter q"})
            return True
        try:
            limit = int(limit_raw) if limit_raw else None
            if limit is not None and limit < 0:
                raise ValueError
        except ValueError:
            self._send_json(400, {"error": f"bad limit {limit_raw!r}"})
            return True
        shed = self._admission_check(query, algorithm)
        if shed is not None:
            self._send_shed(shed)
            return True
        stats = ExecutionStats()
        try:
            started = time.perf_counter()
            ids = list(
                self.system.search_ids(
                    query, algorithm=algorithm, stats=stats, profile=explain
                )
            )
            elapsed_ms = (time.perf_counter() - started) * 1000
        except DeadlineExceeded:
            raise  # 504, handled (and counted) centrally in do_GET
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
            return True
        except Exception as exc:  # noqa: BLE001 — the API's error contract
            # Anything unexpected still answers the JSON contract: a 500
            # envelope carrying the trace id, counted exactly once as
            # status="error" by the shared accounting in do_GET.
            _log.error(
                "internal_error",
                path="/api/search",
                error=f"{exc.__class__.__name__}: {exc}",
            )
            self._send_json(
                500,
                {
                    "error": f"internal error ({exc.__class__.__name__})",
                    "trace_id": self._trace_id,
                },
            )
            return True
        if limit is not None:
            ids = ids[:limit]
        payload = {
            "query": query,
            "algorithm": algorithm,
            "count": len(ids),
            "ids": [".".join(str(c) for c in dewey) for dewey in ids],
            "elapsed_ms": round(elapsed_ms, 3),
            "cached": stats.cache_hit,
            "cache_hit": stats.cache_hit,
            "counters": stats.counters.as_dict(),
            "trace_id": self._trace_id,
        }
        if explain:
            payload["explain"] = stats.as_dict()
        self._slow_entry = {
            "path": "/api/search",
            "query": query,
            "algorithm": stats.algorithm,
            "cache_hit": stats.cache_hit,
        }
        if self._trace is not None:
            _trace_record(self._trace, stats)
        self._send_json(200, payload, elapsed_ms=elapsed_ms)
        return False

    def _statz(self) -> dict:
        engine = self.system.engine
        payload = {
            "build": build_info_dict(),
            "server": self.metrics.summary() if self.metrics else {},
            "generation": engine.generation(),
            "cache": engine.cache.stats() if engine.cache is not None else None,
            "pool": engine.pool.stats_dict() if engine.pool is not None else None,
            "storage": self.system.storage_stats(),
            "counters": engine.counter_totals(),
        }
        if self.tracer is not None:
            payload["tracing"] = {
                "sample_rate": self.tracer.sample_rate,
                "slow_threshold_ms": self.tracer.slow_threshold_ms,
                "slow_log_entries": len(self.tracer.slow_queries()),
            }
        if self.gate is not None:
            payload["admission"] = self.gate.stats_dict()
        engine_breaker = getattr(engine, "breaker", None)
        if engine_breaker is not None:
            payload["breaker"] = engine_breaker.stats_dict()
        if self.profiler is not None:
            payload["profiler"] = self.profiler.totals()
        return payload

    def _handle_debug_slow(self, url) -> bool:
        """Slow-log JSON; supports ``?limit=N`` and ``?clear=1``.

        ``clear`` returns the entries it removed, so a scrape-and-reset
        consumer never loses a window.  Returns True on a bad request.
        """
        params = parse_qs(url.query)
        limit_raw = (params.get("limit") or [""])[0]
        clear = (params.get("clear") or [""])[0].lower() in ("1", "true", "yes")
        limit: Optional[int] = None
        if limit_raw:
            try:
                limit = int(limit_raw)
                if limit < 0:
                    raise ValueError
            except ValueError:
                self._send_json(400, {"error": f"bad limit {limit_raw!r}"})
                return True
        if self.tracer is None:
            self._send_json(200, {"threshold_ms": None, "count": 0, "entries": []})
            return False
        entries = self.tracer.slow_queries()
        if clear:
            self.tracer.clear_slow_log()
        payload = {
            "threshold_ms": self.tracer.slow_threshold_ms,
            "count": len(entries),
            "entries": entries if limit is None else entries[:limit],
            "exemplars": self._exec_exemplars(),
        }
        if clear:
            payload["cleared"] = True
        self._send_json(200, payload)
        return False

    def _exec_exemplars(self) -> List[dict]:
        """Current xks_query_exec_ms exemplars — the same (trace_id, value)
        pairs the /metrics exposition renders, as JSON for correlation."""
        registry = self.registry or get_registry()
        metric = registry.get_metric("xks_query_exec_ms")
        out: List[dict] = []
        if metric is None:
            return out
        items = getattr(metric, "items", None)
        children = items() if callable(items) else [({}, metric)]
        for labels, child in children:
            exemplars = getattr(child, "exemplars", None)
            if not callable(exemplars):
                continue
            for le, (trace_id, value, ts) in sorted(exemplars().items()):
                out.append(
                    {
                        "labels": labels,
                        "le": le,
                        "trace_id": trace_id,
                        "value": round(value, 6),
                        "ts": round(ts, 3),
                    }
                )
        return out

    def _handle_debug_pprof(self, url) -> bool:
        """Folded flamegraph stacks from the sampling profiler.

        ``?seconds=N`` profiles only the *next* N seconds (the handler
        thread sleeps while the sampler runs — the request budget is the
        profile window); without it the cumulative stacks since startup
        are returned.  ``&format=folded`` renders collapsed text
        (``stack;stack;leaf count`` lines) for flamegraph tooling.
        """
        params = parse_qs(url.query)
        seconds_raw = (params.get("seconds") or [""])[0]
        folded = (params.get("format") or [""])[0].lower() == "folded"
        seconds = 0.0
        if seconds_raw:
            try:
                seconds = float(seconds_raw)
                if seconds < 0 or seconds > 60:
                    raise ValueError
            except ValueError:
                self._send_json(
                    400, {"error": f"bad seconds {seconds_raw!r} (0..60)"}
                )
                return True
        if self.profiler is None or not self.profiler.running:
            self._send_json(
                200,
                {"enabled": False, "hint": "start with: serve --profile-hz HZ"},
            )
            return False
        if seconds > 0:
            stacks = self.profiler.collect_window(seconds)
        else:
            stacks = self.profiler.snapshot()
        if folded:
            self._send(
                200,
                render_folded(stacks),
                content_type="text/plain; charset=utf-8",
            )
            return False
        self._send_json(
            200,
            {
                "enabled": True,
                "seconds": seconds or None,
                "totals": self.profiler.totals(),
                "stacks": stacks,
            },
        )
        return False

    # -- plumbing ------------------------------------------------------------

    def _send(
        self,
        status: int,
        body: str,
        content_type: str = "text/html; charset=utf-8",
        status_only_body: Optional[str] = None,
        elapsed_ms: Optional[float] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ):
        payload = (status_only_body or body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if elapsed_ms is not None:
            self.send_header("X-Response-Time-Ms", f"{elapsed_ms:.3f}")
        if self._trace_id is not None:
            self.send_header("X-Trace-Id", self._trace_id)
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(
        self,
        status: int,
        payload: dict,
        elapsed_ms: Optional[float] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ):
        self._send(
            status,
            json.dumps(payload),
            content_type="application/json; charset=utf-8",
            elapsed_ms=elapsed_ms,
            extra_headers=extra_headers,
        )


class XKSearchServer(ThreadingHTTPServer):
    """Threaded HTTP server with a cap on concurrently executing requests.

    ``ThreadingHTTPServer`` spawns one thread per connection; the semaphore
    bounds how many of them execute queries at once, so a traffic burst
    degrades into queueing rather than into unbounded thread contention.
    """

    daemon_threads = True

    #: Optional AdmissionGate, attached by make_server before serving
    #: starts; tracked around the semaphore so its in-flight count sees
    #: queued connections — exactly the load the watermarks must shed on.
    admission_gate: Optional[AdmissionGate] = None

    def __init__(self, address, handler, max_workers: int = DEFAULT_MAX_WORKERS):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        super().__init__(address, handler)
        self.max_workers = max_workers
        self._slots = threading.BoundedSemaphore(max_workers)
        self._obs_registry: Optional[MetricsRegistry] = None
        self._obs_collector = None
        self._obs_exporter: Optional[TraceFile] = None
        self._obs_profiler: Optional[SamplingProfiler] = None

    def process_request_thread(self, request, client_address):
        gate = self.admission_gate
        if gate is not None:
            gate.enter()
        try:
            with self._slots:
                super().process_request_thread(request, client_address)
        finally:
            if gate is not None:
                gate.exit()

    def drain(self, timeout_s: float = 5.0) -> int:
        """Wait (bounded) for in-flight connections to finish.

        Called after ``shutdown()`` has stopped the accept loop; returns
        the number of connections still in flight when the timeout hit
        (0 = clean drain).  Without a gate there is no in-flight count
        to watch, so the wait degrades to a short grace sleep.
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        gate = self.admission_gate
        if gate is None:
            time.sleep(min(0.5, max(0.0, timeout_s)))
            return 0
        while gate.inflight > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        return gate.inflight

    def server_close(self):
        if self._obs_profiler is not None:
            self._obs_profiler.close()
            self._obs_profiler = None
        if self._obs_registry is not None and self._obs_collector is not None:
            self._obs_registry.unregister_collector(self._obs_collector)
            self._obs_collector = None
        if self._obs_exporter is not None:
            self._obs_exporter.close()
            self._obs_exporter = None
        super().server_close()


def make_server(
    system: XKSearch,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    max_workers: int = DEFAULT_MAX_WORKERS,
    metrics: Optional[ServerMetrics] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    exporter: Optional[TraceFile] = None,
    profiler: Optional[SamplingProfiler] = None,
    gate: Optional[AdmissionGate] = None,
    default_timeout_ms: Optional[float] = None,
) -> XKSearchServer:
    """A threaded HTTP server bound to *host:port* (port 0 = ephemeral),
    serving queries against *system*.  Caller owns the lifecycle
    (``serve_forever`` / ``shutdown`` / ``server_close``).

    The system's component stats (buffer pool, pager, caches) are
    registered as a collector on *registry* (default: the process-global
    one) for the lifetime of the server; ``server_close`` unregisters it.
    An *exporter* receives every finished request trace (written by the
    request thread after its response) and is closed with the server, as
    is a *profiler*.  A *gate* sheds search
    requests at its watermarks (429 + Retry-After) and tracks the
    in-flight count ``drain`` waits on;
    *default_timeout_ms* deadlines every search request that does not
    carry its own budget.
    """
    registry = registry if registry is not None else get_registry()
    handler = type(
        "XKSearchHandler",
        (_Handler,),
        {
            "system": system,
            "quiet": quiet,
            "metrics": metrics if metrics is not None else ServerMetrics(),
            "tracer": tracer if tracer is not None else Tracer(),
            "registry": registry,
            "exporter": exporter,
            "profiler": profiler,
            "gate": gate,
            "default_timeout_ms": default_timeout_ms,
        },
    )
    server = XKSearchServer((host, port), handler, max_workers=max_workers)
    server.admission_gate = gate
    collector = system_collector(system)
    registry.register_collector(collector)
    registry.register_collector(build_info_collector)
    server._obs_registry = registry
    server._obs_collector = collector
    server._obs_exporter = exporter
    server._obs_profiler = profiler
    return server


def serve(
    index_dir: str,
    host: str = "127.0.0.1",
    port: int = 8080,
    max_workers: int = DEFAULT_MAX_WORKERS,
    cache_size: int = 1024,
    slow_ms: float = 100.0,
    trace_sample: float = 0.0,
    export_jsonl: Optional[str] = None,
    log_json: bool = False,
    log_level: Optional[str] = None,
    workers_proc: int = 0,
    use_segments: bool = True,
    profile_hz: float = 0.0,
    default_timeout_ms: Optional[float] = None,
    verify_checksums: bool = False,
    admission_soft: Optional[int] = None,
    admission_hard: Optional[int] = None,
    p99_watermark_ms: Optional[float] = None,
    inject_faults: Optional[Sequence[str]] = None,
    drain_timeout_s: float = 5.0,
) -> None:
    """Blocking entry point used by ``xksearch serve``.

    ``export_jsonl`` appends every finished request trace to that file
    as one JSON line (:class:`~repro.obs.export.TraceFile`).
    ``log_json`` switches structured logs on in JSON mode; ``log_level``
    (or ``REPRO_LOG_LEVEL``) sets the level, in text mode unless
    ``log_json`` is also given.

    ``workers_proc > 0`` adds a pool of that many **worker processes**
    executing cache-miss queries over mmap'd read-only index handles;
    every process maps the same posting-segment file (docs/PERFORMANCE.md,
    "Scaling past the GIL" and "Posting segments").  The pool is created
    *before* any
    server thread starts — fork with live threads is unsafe — and a
    platform without ``fork`` simply serves in-thread (logged, never
    fatal).  ``use_segments=False`` pins every process to the B+tree
    posting tier (byte-identical answers; for A/B comparison).

    ``profile_hz > 0`` starts the sampling profiler in this (the parent)
    process, feeding ``GET /debug/pprof``.

    **Robustness** (docs/ROBUSTNESS.md): ``default_timeout_ms`` deadlines
    every search request that does not carry ``X-Deadline-Ms`` /
    ``?timeout_ms=``; ``verify_checksums`` re-checksums every page read
    and every posting list on first touch, in this process *and* every
    pool worker;
    ``admission_soft``/``admission_hard`` (defaults ``2*max_workers`` /
    ``4*max_workers``) and ``p99_watermark_ms`` set the shedding
    watermarks; ``inject_faults`` arms fault-injection specs (exported to
    the environment *before* the pool forks, so workers inherit them);
    SIGTERM triggers a graceful drain bounded by ``drain_timeout_s``.
    """
    if inject_faults:
        # Must precede pool creation: workers inherit the spec via the
        # environment across fork.
        plan = faultinject.arm(",".join(inject_faults))
        _log.warning("faults_armed", spec=plan.describe())
    if log_json or log_level is not None:
        configure_logging(level=log_level, json_mode=log_json)
    cache = QueryCache(result_capacity=cache_size) if cache_size > 0 else None
    tracer = Tracer(sample_rate=trace_sample, slow_threshold_ms=slow_ms)
    exporter = TraceFile(export_jsonl) if export_jsonl else None
    pool = None
    if workers_proc > 0:
        from repro.errors import PoolError
        from repro.xksearch.parallel import WorkerPool

        try:
            pool = WorkerPool(
                index_dir,
                workers=workers_proc,
                use_segments=use_segments,
                verify_checksums=verify_checksums,
            )
        except PoolError as exc:
            _log.warning("pool_unavailable", error=repr(exc))
            print(f"process pool unavailable ({exc}); serving in-thread")
    profiler: Optional[SamplingProfiler] = None
    if profile_hz > 0:
        profiler = SamplingProfiler(hz=profile_hz).start()
    try:
        with XKSearch.open(
            index_dir,
            cache=cache,
            use_segments=use_segments,
            verify_checksums=verify_checksums,
        ) as system:
            if pool is not None:
                system.engine.attach_pool(pool)
            gate = AdmissionGate(
                soft_limit=(
                    admission_soft if admission_soft is not None
                    else max_workers * 2
                ),
                hard_limit=(
                    admission_hard if admission_hard is not None
                    else max_workers * 4
                ),
                p99_watermark_ms=p99_watermark_ms,
            )
            server = make_server(
                system,
                host=host,
                port=port,
                quiet=False,
                max_workers=max_workers,
                tracer=tracer,
                exporter=exporter,
                profiler=profiler,
                gate=gate,
                default_timeout_ms=default_timeout_ms,
            )
            # Graceful drain: SIGTERM stops the accept loop (from a helper
            # thread — shutdown() deadlocks when called from serve_forever's
            # own thread, and a signal handler runs on the main thread),
            # then the normal shutdown path below drains in-flight work
            # before the trace file and the pool close.
            def _on_sigterm(signum, frame):  # noqa: ARG001 (signal ABI)
                _log.warning("sigterm_draining")
                threading.Thread(
                    target=server.shutdown, name="xks-drain", daemon=True
                ).start()

            try:
                signal.signal(signal.SIGTERM, _on_sigterm)
            except ValueError:
                # Not the main thread (embedded/test use) — drain stays
                # available via server.shutdown() + server.drain().
                pass
            actual_port = server.server_address[1]
            export_note = ""
            if exporter is not None:
                export_note = f", exporting traces to {exporter.path}"
            pool_note = f", {pool.size} proc workers" if pool is not None else ""
            profile_note = (
                f", profiler at /debug/pprof ({profile_hz:g} Hz)"
                if profiler is not None
                else ""
            )
            print(
                f"XKSearch demo at http://{host}:{actual_port}/  "
                f"({max_workers} workers{pool_note}{profile_note}, "
                f"cache={'off' if cache is None else cache_size}, "
                f"segments={'on' if use_segments else 'off'}, "
                f"slow log at /debug/slow >= {slow_ms:.0f} ms"
                f"{export_note}; "
                f"Ctrl-C to stop)"
            )
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                leftover = server.drain(drain_timeout_s)
                if leftover:
                    _log.warning("drain_timeout", inflight=leftover)
                # server_close closes the trace file; the outer finally
                # closes the pool after.
                server.server_close()
    finally:
        # Idempotent: server_close() already closed these on the normal
        # path; this covers a failed open before the server existed.
        if profiler is not None:
            profiler.close()
        if exporter is not None:
            exporter.close()
        if pool is not None:
            pool.close()
