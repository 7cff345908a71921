"""The metric catalogue: names, units, directions and regression bounds.

``BENCHMARK.json`` lists the same end-to-end metrics minus ``error_rate``
(always 0, so it has no relative bound there: the contract carries it as
``failed`` / ``attempted``); ``test_harness.py`` checks the two agree.
"""

from __future__ import annotations

#: name → (unit, better, bound).  The bound is the share of the baseline by
#: which the metric may worsen before a change counts as a regression.  They
#: are set from the spreads (quartile distance over median, ten seeds, 10 s
#: windows) measured on this 2-core VM, whose speed for CPU-bound work itself
#: drifts by 5-15 % over tens of minutes; 0.25 is the most the benchmark
#: contract allows.  README.md has the measurements.
END_TO_END = {
    "qps": ("req/s", "higher", 0.20),
    "p50_ms": ("ms", "lower", 0.15),
    "p95_ms": ("ms", "lower", 0.25),
    "error_rate": ("fraction", "lower", 0.0),
    "setup_s": ("s", "lower", 0.25),
    "server_rss_mb": ("MB", "lower", 0.10),
    "index_bytes_per_posting": ("B", "lower", 0.02),
    "update_commit_ms": ("ms", "lower", 0.25),
}

#: Counts that repeat exactly for a fixed seed; ``--aa`` requires identity.
EXACT = (
    "index_bytes_per_posting",
    "core.match_ops_per_query",
    "core.cursor_advances_per_query",
    "core.lca_ops_per_query",
    "core.candidates_per_query",
    "core.results_per_query",
    "core.model_ratio",
)

#: name → (unit, better).  Layer = module name; no bounds.
PER_LAYER = {
    "xksearch.server.overhead_ms_p50": ("ms", "lower"),
    "xksearch.server.healthz_keepalive_ms_p50": ("ms", "lower"),
    "xksearch.server.healthz_newconn_ms_p50": ("ms", "lower"),
    "xksearch.server.render_ms": ("ms", "lower"),
    "xksearch.server.bytes_per_response": ("B", "lower"),
    "xksearch.server.p99_ms": ("ms", "lower"),
    "xksearch.server.drift_pct": ("%", "lower"),
    "xksearch.engine.elapsed_ms_p50": ("ms", "lower"),
    "xksearch.engine.parse_ms": ("ms", "lower"),
    "xksearch.engine.plan_ms": ("ms", "lower"),
    "xksearch.engine.execute_ms": ("ms", "lower"),
    "xksearch.engine.il_fraction": ("fraction", "higher"),
    "xksearch.cache.hit_rate": ("fraction", "higher"),
    "xksearch.cache.evictions": ("count", "lower"),
    "xksearch.cache.invalidations": ("count", "lower"),
    "xksearch.cache.lookup_us": ("us", "lower"),
    "xksearch.parallel.roundtrip_ms": ("ms", "lower"),
    "index.source.lm_rm_us": ("us", "lower"),
    "index.source.self_ms_per_query": ("ms", "lower"),
    "index.inverted.open_sources_ms": ("ms", "lower"),
    "index.inverted.segment_tier_share": ("fraction", "higher"),
    "index.segments.decodes_per_query": ("count", "lower"),
    "index.segments.decode_ms_per_query": ("ms", "lower"),
    "index.segments.block_hit_rate": ("fraction", "higher"),
    "storage.buffer_pool.hit_rate": ("fraction", "higher"),
    "storage.pager.reads_per_query": ("count", "lower"),
    "storage.bptree.node_reads_per_query": ("count", "lower"),
    "core.match_ops_per_query": ("count", "lower"),
    "core.cursor_advances_per_query": ("count", "lower"),
    "core.lca_ops_per_query": ("count", "lower"),
    "core.candidates_per_query": ("count", "lower"),
    "core.results_per_query": ("count", "lower"),
    "core.model_ratio": ("ratio", "lower"),
    "core.algorithm.self_ms_per_query": ("ms", "lower"),
    "core.algorithm.us_per_candidate": ("us", "lower"),
    "index.updates.apply_ms": ("ms", "lower"),
    "index.updates.close_ms": ("ms", "lower"),
    "index.updates.refresh_read_ms": ("ms", "lower"),
    "index.updates.stale_reads": ("count", "lower"),
    "index.builder.build_s": ("s", "lower"),
    "index.builder.postings_per_s": ("1/s", "higher"),
    "xmltree.parse_s": ("s", "lower"),
    "xmltree.parse_mb_per_s": ("MB/s", "higher"),
    "robustness.shed_rate": ("fraction", "lower"),
    "robustness.timeout_rate": ("fraction", "lower"),
    "obs.metrics_series": ("count", "lower"),
    "obs.scrape_ms": ("ms", "lower"),
    "trace.coverage": ("fraction", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}
