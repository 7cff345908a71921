"""Cross-layer observability: metrics, tracing, and query profiling.

The paper's entire argument is a cost model — match operations, main-memory
operations, and disk accesses (Table 1, Figures 8-13) — and the layers of
this repo each count their share in isolation: :class:`~repro.core.counters.
OpCounters` at the algorithm layer, :class:`~repro.storage.buffer_pool.
PoolStats` and pager :class:`~repro.storage.pager.IOStats` at the storage
layer, :class:`~repro.xksearch.cache.CacheStats` at the serving layer.
This package connects them:

* :mod:`repro.obs.metrics` — a process-global, thread-safe
  :class:`MetricsRegistry` (counters, gauges, log-bucketed histograms
  with OpenMetrics exemplars) and Prometheus text-format exposition;
* :mod:`repro.obs.tracing` — span-based query traces with per-request
  trace ids and a bounded slow-query log;
* :mod:`repro.obs.profile` — the EXPLAIN/profile breakdown
  (:class:`QueryProfile`) attached to an execution on request;
* :mod:`repro.obs.export` — trace export to JSONL files or an HTTP
  collector through a bounded background queue;
* :mod:`repro.obs.logging` — trace-id-correlated structured JSON logs
  with load-adaptive token-bucket sampling (:func:`set_log_sampling`);
* :mod:`repro.obs.profiling` — a thread-sampling continuous profiler
  (folded flamegraph stacks at ``GET /debug/pprof``) plus tracemalloc
  heap snapshots (``GET /debug/heap``).

SLOs are not evaluated in-process: ``docs/slo_rules.yml`` holds the
Prometheus recording and burn-rate alert rules over the ``xks_*`` series
``/metrics`` exposes.  See docs/OBSERVABILITY.md for the metric catalog
and schemas.
"""

from repro.obs.export import (
    BackgroundExporter,
    ExportSink,
    HttpCollectorSink,
    JsonlFileSink,
    MemorySink,
    TraceExporter,
)
from repro.obs.logging import (
    LogSampler,
    configure_logging,
    current_trace_id,
    get_log_sampler,
    get_logger,
    reset_current_trace_id,
    set_current_trace_id,
    set_log_sampling,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
    exponential_buckets,
    get_registry,
    instrumentation_enabled,
    set_instrumentation_enabled,
    start_capture,
    stop_capture,
)
from repro.obs.profile import Phase, QueryProfile
from repro.obs.profiling import (
    SamplingProfiler,
    heap_snapshot,
    heap_tracking_active,
    render_folded,
    start_heap_tracking,
    stop_heap_tracking,
)
from repro.obs.tracing import (
    Span,
    Trace,
    Tracer,
    new_trace_id,
    span_from_dict,
    valid_trace_id,
)

__all__ = [
    "BackgroundExporter",
    "ExportSink",
    "HttpCollectorSink",
    "JsonlFileSink",
    "MemorySink",
    "TraceExporter",
    "LogSampler",
    "configure_logging",
    "current_trace_id",
    "get_log_sampler",
    "get_logger",
    "reset_current_trace_id",
    "set_current_trace_id",
    "set_log_sampling",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "exponential_buckets",
    "get_registry",
    "instrumentation_enabled",
    "set_instrumentation_enabled",
    "start_capture",
    "stop_capture",
    "Phase",
    "QueryProfile",
    "SamplingProfiler",
    "heap_snapshot",
    "heap_tracking_active",
    "render_folded",
    "start_heap_tracking",
    "stop_heap_tracking",
    "Span",
    "Trace",
    "Tracer",
    "new_trace_id",
    "span_from_dict",
    "valid_trace_id",
]
