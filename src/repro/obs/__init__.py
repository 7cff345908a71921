"""Cross-layer observability: metrics, tracing, logs and profiling.

The paper's entire argument is a cost model — match operations, main-memory
operations, and disk accesses (Table 1, Figures 8-13) — and the layers of
this repo each count their share in isolation: :class:`~repro.core.counters.
OpCounters` at the algorithm layer, :class:`~repro.storage.buffer_pool.
PoolStats` and pager :class:`~repro.storage.pager.IOStats` at the storage
layer, :class:`~repro.xksearch.cache.CacheStats` at the serving layer.
This package connects them:

* :mod:`repro.obs.metrics` — a process-global, thread-safe
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  log-bucketed histograms with OpenMetrics exemplars) and Prometheus
  text-format exposition;
* :mod:`repro.obs.tracing` — span-based query traces with per-request
  trace ids and a bounded slow-query log;
* :mod:`repro.obs.export` — finished request traces appended inline to
  one JSONL file (``serve --export-jsonl``);
* :mod:`repro.obs.logging` — trace-id-correlated structured JSON logs;
* :mod:`repro.obs.profiling` — a thread-sampling continuous profiler
  (folded flamegraph stacks at ``GET /debug/pprof``).

One query's cost, EXPLAIN breakdown included, is the engine's
:class:`~repro.xksearch.engine.ExecutionStats` record; the query metrics,
the request trace's ``engine`` span and the slow log are projections of it.
Import from the submodules; this package re-exports nothing, so importing
one of them does not load the others.  SLOs are not evaluated in-process:
``docs/slo_rules.yml`` holds the Prometheus recording and burn-rate alert
rules over the ``xks_*`` series ``/metrics`` exposes.  See
docs/OBSERVABILITY.md for the metric catalog and schemas.
"""
