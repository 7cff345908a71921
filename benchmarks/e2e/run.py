"""End-to-end serving benchmark: four workloads over persistent connections.

    PYTHONPATH=src python benchmarks/e2e/run.py                  # whole suite
    PYTHONPATH=src python benchmarks/e2e/run.py --aa             # suite twice, A/A verdict
    python3 benchmarks/e2e/run.py --workload zipf_hot --seed 7 --seconds 10 --trace 0

Each workload builds its own index in a temporary directory under
``out/``, starts the default ``xksearch serve`` on it as a subprocess,
replays a seeded request sequence closed loop for a fixed time, checks
every answer against an in-memory oracle and prints the end-to-end
metrics.  The traced run then replays the first requests in-process with
spans around each layer and prints the per-layer metrics.  With
``--trace 0|1`` and one ``--workload`` the last line of output is the one
JSON object the benchmark contract asks for.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
OUT = os.path.join(HERE, "out")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"error: the program under test is not at {SRC}/repro")
sys.path.insert(0, SRC)

from repro.index.builder import build_index  # noqa: E402
from repro.index.inverted import DiskKeywordIndex  # noqa: E402
from repro.xksearch.parallel import WorkerPool  # noqa: E402
from repro.xmltree.parser import parse_file  # noqa: E402

from catalogue import END_TO_END, EXACT, PER_LAYER  # noqa: E402
from generate import SPECS, Workload, make_workload, removed_after  # noqa: E402
from serving import (  # noqa: E402
    Client, Recorder, ServerProcess, apply_batch, run_window, warm_up,
)
from spans import (  # noqa: E402
    ROOT, SpanRecorder, TracedPath, open_system, self_times_us,
)

DEFAULT_SEED = 2005
#: The /statz storage counters the layer metrics read, per group.
STORAGE_COUNTERS = {
    "buffer_pool": ("hits", "misses"),
    "pager": ("reads",),
    "bptree": ("il_node_reads", "scan_node_reads"),
    "segments": ("decodes", "decode_ms", "local_hits"),
}
#: Groups whose counters restart from zero when the server reopens the
#: index after a commit (``DiskKeywordIndex.refresh``).
RESET_ON_REFRESH = ("segments", "bptree", "pager")


@dataclass(frozen=True)
class Effort:
    """How much work surrounds the timed window."""

    setup_repeats: int = 2
    trace_requests: int = 200
    pool_queries: int = 50
    healthz_probes: int = 15
    probe_commits: int = 2


SMOKE = Effort(setup_repeats=1, trace_requests=25, pool_queries=5, healthz_probes=5,
               probe_commits=1)
SMOKE_SECONDS = 1.5


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = (len(sorted_values) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- set-up ---------------------------------------------------------------


@dataclass
class SetUp:
    index_dir: str
    server: ServerProcess
    postings: int
    index_bytes: int
    parse_s: float
    build_s: float
    setup_s: float


def set_up(workload: Workload, work_dir: str, attempt: int) -> SetUp:
    """Build the workload's index, start the server on it, warm it up."""
    index_dir = os.path.join(work_dir, f"index-{attempt}")
    source = workload.write_source(work_dir)
    started = time.perf_counter()
    parse_s = 0.0
    if isinstance(source, str):
        source = parse_file(source)
        parse_s = time.perf_counter() - started
    built_from = time.perf_counter()
    report = build_index(source, index_dir, keep_document=False)
    build_s = time.perf_counter() - built_from
    index_bytes = sum(
        os.path.getsize(os.path.join(index_dir, name)) for name in os.listdir(index_dir)
    )
    server = ServerProcess(index_dir, workload.spec.cache_size, SRC, work_dir)
    try:
        warm_up(server, workload)
    except BaseException:
        server.stop()
        raise
    return SetUp(
        index_dir, server, report.postings, index_bytes, parse_s, build_s,
        time.perf_counter() - started,
    )


# -- /statz and /metrics deltas --------------------------------------------


def statz_sample(server: ServerProcess) -> dict:
    """One /statz reading over a fresh connection (no keep-alive stall)."""
    client = Client(server.host, server.port)
    try:
        return client.get_json("/statz")
    finally:
        client.close()


def storage_increase(samples: Sequence[dict]) -> Dict[str, Dict[str, float]]:
    """Counter growth over chronological /statz samples, per storage group.

    Between two samples of the same index generation the growth is the
    difference; across a refresh the groups in ``RESET_ON_REFRESH`` count
    their new value whole, because the server restarted them from zero.
    """
    total: Dict[str, Dict[str, float]] = {}
    for before, after in zip(samples, samples[1:]):
        refreshed = before["generation"] != after["generation"]
        for group, keys in STORAGE_COUNTERS.items():
            new, old = after["storage"].get(group) or {}, before["storage"].get(group) or {}
            reset = refreshed and group in RESET_ON_REFRESH
            bucket = total.setdefault(group, {})
            for key in keys:
                grown = new.get(key, 0) - (0 if reset else old.get(key, 0))
                bucket[key] = bucket.get(key, 0) + grown
    return total


_SERIES = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)", re.M)


def scrape(server: ServerProcess) -> Dict[str, float]:
    """Every series of one /metrics GET, keyed ``name{labels}``, plus the time it took."""
    client = Client(server.host, server.port)
    try:
        status, body, latency_ms, _ = client.get("/metrics")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    series = {}
    for name, labels, value in _SERIES.findall(body.decode()):
        try:
            series[name + (labels or "")] = float(value)
        except ValueError:
            continue
    series["__scrape_ms__"] = latency_ms
    return series


def healthz_p50(server: ServerProcess, probes: int, keepalive: bool) -> float:
    latencies = []
    client = Client(server.host, server.port)
    client.get("/healthz")  # the first request on a connection never stalls
    for _ in range(probes):
        if not keepalive:
            client.close()
        latencies.append(client.get("/healthz")[2])
    client.close()
    return statistics.median(latencies)


# -- the measured run --------------------------------------------------------


def verify(workload: Workload, recorders: Sequence[Recorder]) -> Dict[str, int]:
    """Compare every distinct answer seen with the oracle's."""
    tally = {"correct": 0, "wrong": 0, "stale": 0}
    for rec in recorders:
        for (qidx, writes), answers in rec.answers.items():
            expected = workload.expected_ids(qidx, removed_after(writes))
            for ids, count in answers.items():
                if ids == expected:
                    tally["correct"] += count
                elif writes and ids == workload.expected_ids(qidx, removed_after(writes - 1)):
                    tally["stale"] += count
                else:
                    tally["wrong"] += count
    return tally


def write_probe(workload: Workload, index_dir: str, commits: int) -> List[float]:
    """Commit times of remove/add batches against a read-only workload's
    index, after its server has stopped; the lists must come back intact."""
    batch = workload.batches[0]
    times = [
        apply_batch(index_dir, batch, remove=i % 2 == 0).commit_ms for i in range(commits)
    ]
    with DiskKeywordIndex(index_dir) as index:
        for keyword, postings in batch.items():
            gone = {dewey for dewey, _ in postings} if commits % 2 else set()
            wanted = [dewey for dewey in workload.lists[keyword] if dewey not in gone]
            if index.keyword_list(keyword) != wanted:
                raise RuntimeError(f"write probe left a wrong list for {keyword}")
    return times


def traced_run(workload: Workload, index_dir: str, effort: Effort) -> dict:
    """Replay the first requests in-process: untraced, pooled, then traced."""
    spec = workload.spec
    ops = workload.ops[: effort.trace_requests]
    first_write = next((i for i, (kind, _) in enumerate(ops) if kind == "write"), len(ops))
    comparable = [arg for _, arg in ops[:first_write]]
    # Untraced engine.execute over the reads before the first write, with
    # the server's cache configuration: the base of trace.overhead_pct.
    with open_system(index_dir, spec.cache_size) as plain:
        for qidx in workload.warmup:
            list(plain.engine.execute(workload.queries[qidx]))
        started = time.perf_counter()
        for qidx in comparable:
            list(plain.engine.execute(workload.queries[qidx]))
        untraced_s = time.perf_counter() - started
        generation = plain.engine.generation()
    # Pool round trip: wall time of a dispatch to one forked worker minus
    # the execution time the worker reports for it.
    roundtrip_ms = []
    with WorkerPool(index_dir, workers=1) as pool:
        for qidx in list(dict.fromkeys(comparable))[: effort.pool_queries]:
            started = time.perf_counter()
            done = pool.execute("slca", workload.queries[qidx].split(), "auto", generation)
            roundtrip_ms.append((time.perf_counter() - started) * 1000 - done.exec_ms)
    recorder = SpanRecorder()
    answers = {}
    with open_system(index_dir, spec.cache_size) as system:
        path = TracedPath(system, recorder)
        for qidx in workload.warmup:
            list(system.engine.execute(workload.queries[qidx]))
        writes = 0
        for rid, (kind, arg) in enumerate(ops):
            if kind == "write":
                path.write(rid, workload, arg)
                writes = arg + 1
            else:
                answers[(rid, arg, writes)] = path.request(rid, workload.queries[arg])
    wrong = sum(
        ids != workload.expected_ids(qidx, removed_after(writes))
        for (_, qidx, writes), ids in answers.items()
    )
    recorder.write_jsonl(os.path.join(OUT, f"trace-{spec.name}.jsonl"))
    return {
        "spans": recorder.spans,
        "comparable": len(comparable),
        "untraced_s": untraced_s,
        "roundtrip_ms": statistics.median(roundtrip_ms),
        "wrong": wrong,
    }


def trace_layers(trace: dict) -> Dict[str, float]:
    """Per-layer metrics that come from the spans."""
    spans = trace["spans"]
    by_name: Dict[str, List[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    selfs = self_times_us(spans)

    def mean_ms(name: str) -> float:
        return mean([s["end_us"] - s["start_us"] for s in by_name.get(name, ())]) / 1000.0

    roots = by_name[ROOT]
    root_total = sum(s["end_us"] - s["start_us"] for s in roots)
    algorithms = by_name.get("core.algorithm", [])
    executed = len(by_name.get("xksearch.engine.plan", ()))
    source_spans = [s for kind in ("lm", "rm", "scan") for s in by_name.get(f"index.source.{kind}", ())]
    probe_spans = [s for s in source_spans if s["name"] != "index.source.scan"]
    algorithm_self_us = sum(selfs[s["id"]] for s in algorithms)
    candidates = sum(s["candidates"] for s in algorithms)
    match_ops = sum(s["lm_ops"] + s["rm_ops"] for s in algorithms)
    model = sum(2 * (s["k"] - 1) * s["s1"] for s in algorithms)
    # The engine.execute equivalent of the traced path: everything in a
    # request before the render, over the requests the untraced run also ran.
    first = [
        s for s in spans
        if s["request"] < trace["comparable"] and s["parent"] is not None
        and spans[s["parent"]]["name"] == ROOT and s["name"] != "xksearch.server.render"
    ]
    traced_s = sum(s["end_us"] - s["start_us"] for s in first) / 1e6
    plans = by_name.get("xksearch.engine.plan", [])
    return {
        "xksearch.server.render_ms": mean_ms("xksearch.server.render"),
        "xksearch.engine.parse_ms": mean_ms("xksearch.engine.parse"),
        "xksearch.engine.plan_ms": mean_ms("xksearch.engine.plan"),
        "xksearch.engine.execute_ms": ratio(
            sum(s["end_us"] - s["start_us"] for s in algorithms + by_name.get("index.inverted.open_sources", [])),
            1000.0 * executed,
        ),
        "xksearch.engine.il_fraction": ratio(sum(s["algorithm"] == "il" for s in plans), len(plans)),
        "xksearch.cache.lookup_us": mean_ms("xksearch.cache.lookup") * 1000.0,
        "xksearch.parallel.roundtrip_ms": trace["roundtrip_ms"],
        "index.source.lm_rm_us": ratio(
            sum(s["busy_us"] for s in probe_spans), sum(s["calls"] for s in probe_spans)
        ),
        "index.source.self_ms_per_query": ratio(sum(s["busy_us"] for s in source_spans), 1000.0 * executed),
        "index.inverted.open_sources_ms": mean_ms("index.inverted.open_sources"),
        "core.match_ops_per_query": ratio(match_ops, executed),
        "core.cursor_advances_per_query": ratio(sum(s["cursor_advances"] for s in algorithms), executed),
        "core.lca_ops_per_query": ratio(sum(s["lca_ops"] for s in algorithms), executed),
        "core.candidates_per_query": ratio(candidates, executed),
        "core.results_per_query": ratio(sum(s["results"] for s in algorithms), executed),
        "core.model_ratio": ratio(match_ops, model),
        "core.algorithm.self_ms_per_query": ratio(algorithm_self_us, 1000.0 * executed),
        "core.algorithm.us_per_candidate": ratio(algorithm_self_us, candidates),
        "trace.coverage": 1.0 - ratio(sum(selfs[s["id"]] for s in roots), root_total),
        "trace.overhead_pct": 100.0 * ratio(traced_s - trace["untraced_s"], trace["untraced_s"]),
    }


def counter_mismatches(trace: dict, served: Dict[int, dict], workload: Workload) -> int:
    """The hand-assembled path must do the work the server does: the same
    counters for the same query, while no write has changed the lists."""
    mismatched = 0
    for span in trace["spans"]:
        if span["name"] != "core.algorithm" or span["request"] >= trace["comparable"]:
            continue
        counters = served.get(workload.ops[span["request"]][1])
        if counters is not None and any(counters[key] != span[key] for key in counters):
            mismatched += 1
    return mismatched


@dataclass
class Window:
    """Everything observed around one timed window."""

    recorders: List[Recorder]
    statz: List[dict]  # before the window, before every write, after the window
    rss_mb: float
    exit_code: int
    tracebacks: int
    metrics_before: Dict[str, float]  # /metrics scrapes and /healthz probes:
    metrics_after: Dict[str, float]   # only when layer metrics are wanted
    healthz_keepalive_ms: float = 0.0
    healthz_newconn_ms: float = 0.0

    @property
    def reads(self) -> List[tuple]:
        """(end time, latency ms, payload elapsed_ms, cached) in completion order."""
        return sorted(sample for rec in self.recorders for sample in rec.samples)

    @property
    def commits(self):
        return [commit for rec in self.recorders for commit in rec.commits]

    @property
    def attempted(self) -> int:
        return sum(rec.attempted for rec in self.recorders)

    @property
    def statuses(self) -> Counter:
        """Non-200 replies by status (0 = transport error)."""
        return sum((rec.statuses for rec in self.recorders), Counter())

    @property
    def started(self) -> float:
        return min(rec.started for rec in self.recorders)

    @property
    def wall_s(self) -> float:
        return max(rec.ended for rec in self.recorders) - self.started


def measure_window(
    setup: SetUp, workload: Workload, seconds: float, layers: bool, effort: Effort
) -> Window:
    """Run the timed window against a warmed-up server, then stop the server."""
    server = setup.server
    statz = [statz_sample(server)]
    metrics_before = scrape(server) if layers else {}
    recorders = run_window(
        server, workload, setup.index_dir, seconds,
        before_write=lambda: statz.append(statz_sample(server)),
    )
    statz.append(statz_sample(server))
    window = Window(recorders, statz, server.peak_rss_mb(), 0, 0, metrics_before, {})
    if layers:
        window.metrics_after = scrape(server)
        window.healthz_keepalive_ms = healthz_p50(server, effort.healthz_probes, keepalive=True)
        window.healthz_newconn_ms = healthz_p50(server, effort.healthz_probes, keepalive=False)
    window.exit_code = server.stop()
    window.tracebacks = server.stderr_text().count("Traceback (most recent call last)")
    return window


def window_layers(window: Window, workload: Workload, setups: Sequence[SetUp], stale: int) -> Dict[str, float]:
    """Per-layer metrics that come from client timings and /statz, /metrics growth."""
    reads = window.reads
    latencies = sorted(sample[1] for sample in reads)
    elapsed = sorted(sample[2] for sample in reads)
    uncached = sum(not sample[3] for sample in reads)
    attempted, statuses = window.attempted, window.statuses
    third = len(reads) // 3
    first_qps = ratio(third, reads[third - 1][0] - window.started) if third else 0.0
    last_qps = ratio(third, reads[-1][0] - reads[-third - 1][0]) if third else 0.0
    storage = storage_increase(window.statz)
    segments, pool = storage["segments"], storage["buffer_pool"]
    cache_before = (window.statz[0]["cache"] or {}).get("results", {})
    cache_after = (window.statz[-1]["cache"] or {}).get("results", {})
    cache = {key: cache_after[key] - cache_before[key] for key in cache_after}
    tier = {
        t: window.metrics_after.get(f'xks_segment_sources_total{{tier="{t}"}}', 0.0)
        - window.metrics_before.get(f'xks_segment_sources_total{{tier="{t}"}}', 0.0)
        for t in ("segment", "bptree")
    }
    commits = window.commits
    refresh_ms = [ms for rec in window.recorders for ms in rec.refresh_ms]
    build_s = statistics.median(s.build_s for s in setups)
    parse_s = statistics.median(s.parse_s for s in setups)
    return {
        "xksearch.server.overhead_ms_p50": percentile(latencies, 50) - percentile(elapsed, 50),
        "xksearch.server.healthz_keepalive_ms_p50": window.healthz_keepalive_ms,
        "xksearch.server.healthz_newconn_ms_p50": window.healthz_newconn_ms,
        "xksearch.server.bytes_per_response": ratio(
            sum(rec.body_bytes for rec in window.recorders), len(reads)
        ),
        "xksearch.server.p99_ms": percentile(latencies, 99),
        "xksearch.server.drift_pct": 100.0 * abs(ratio(last_qps - first_qps, first_qps)),
        "xksearch.engine.elapsed_ms_p50": percentile(elapsed, 50),
        "xksearch.cache.hit_rate": ratio(cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)),
        "xksearch.cache.evictions": cache.get("evictions", 0),
        "xksearch.cache.invalidations": cache.get("invalidations", 0),
        "index.inverted.segment_tier_share": ratio(tier["segment"], tier["segment"] + tier["bptree"]),
        "index.segments.decodes_per_query": ratio(segments["decodes"], uncached),
        "index.segments.decode_ms_per_query": ratio(segments["decode_ms"], uncached),
        "index.segments.block_hit_rate": ratio(
            segments["local_hits"], segments["local_hits"] + segments["decodes"]
        ),
        "storage.buffer_pool.hit_rate": ratio(pool["hits"], pool["hits"] + pool["misses"]),
        "storage.pager.reads_per_query": ratio(storage["pager"]["reads"], uncached),
        "storage.bptree.node_reads_per_query": ratio(sum(storage["bptree"].values()), uncached),
        "index.updates.apply_ms": statistics.median(c.apply_ms for c in commits) if commits else 0.0,
        "index.updates.close_ms": statistics.median(c.close_ms for c in commits) if commits else 0.0,
        "index.updates.refresh_read_ms": statistics.median(refresh_ms) if refresh_ms else 0.0,
        "index.updates.stale_reads": stale,
        "index.builder.build_s": build_s,
        "index.builder.postings_per_s": setups[-1].postings / build_s,
        "xmltree.parse_s": parse_s,
        "xmltree.parse_mb_per_s": ratio(len(workload.xml_text or "") / 1e6, parse_s),
        "robustness.shed_rate": ratio(statuses[429], attempted),
        "robustness.timeout_rate": ratio(statuses[504], attempted),
        "obs.metrics_series": len(window.metrics_after) - 1,
        "obs.scrape_ms": window.metrics_after["__scrape_ms__"],
    }


def run_workload(name: str, seed: int, seconds: float, layers: bool, effort: Effort) -> dict:
    """Set up, measure and verify one workload; returns its result record."""
    workload = make_workload(name, seed, seconds)
    spec = workload.spec
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT)
    setups: List[SetUp] = []
    try:
        for attempt in range(effort.setup_repeats):
            if setups:
                setups[-1].server.stop()
                shutil.rmtree(setups[-1].index_dir)
            setups.append(set_up(workload, work_dir, attempt))
        setup = setups[-1]
        trace_index = setup.index_dir
        if layers and spec.cycle_reads:
            # The traced run replays the writes too, from the same start.
            trace_index = os.path.join(work_dir, "index-trace")
            shutil.copytree(setup.index_dir, trace_index)
        window = measure_window(setup, workload, seconds, layers, effort)

        tally = verify(workload, window.recorders)
        attempted = window.attempted
        failures = {
            **{f"http_{status}": count for status, count in window.statuses.items()},
            "wrong": tally["wrong"],
            "stale": tally["stale"],
            "server_tracebacks": window.tracebacks,
            "server_exit": int(window.exit_code != 0),
        }
        per_layer = {}
        if layers:
            trace = traced_run(workload, trace_index, effort)
            served = {q: c for rec in window.recorders for q, c in rec.counters.items()}
            failures["traced_wrong"] = trace["wrong"]
            failures["counter_mismatches"] = counter_mismatches(trace, served, workload)
            per_layer = {
                **trace_layers(trace),
                **window_layers(window, workload, setups, tally["stale"]),
            }
        if spec.cycle_reads:
            commit_ms = [commit.commit_ms for commit in window.commits]
        else:
            commit_ms = write_probe(workload, setup.index_dir, effort.probe_commits)
        failed = sum(failures.values())
        latencies = sorted(sample[1] for sample in window.reads)
        end_to_end = {
            "qps": (tally["correct"] / window.wall_s, tally["correct"]),
            "p50_ms": (percentile(latencies, 50), len(latencies)),
            "p95_ms": (percentile(latencies, 95), len(latencies)),
            "error_rate": (failed / max(1, attempted), attempted),
            "setup_s": (statistics.median(s.setup_s for s in setups), len(setups)),
            "server_rss_mb": (window.rss_mb, 1),
            "index_bytes_per_posting": (setup.index_bytes / setup.postings, 1),
            "update_commit_ms": (statistics.median(commit_ms), len(commit_ms)),
        }
        return {
            "why": spec.why,
            "seed": seed,
            "seconds": seconds,
            "wall_s": window.wall_s,
            "attempted": attempted,
            "failed": failed,
            "correct": failed == 0,
            "failures": failures,
            "end_to_end": {
                metric: {"value": value, "unit": END_TO_END[metric][0], "n": n}
                for metric, (value, n) in end_to_end.items()
            },
            "per_layer": {
                metric: {"value": float(per_layer[metric]), "unit": PER_LAYER[metric][0]}
                for metric in (PER_LAYER if layers else ())
            },
        }
    finally:
        if setups:
            setups[-1].server.stop()
        shutil.rmtree(work_dir, ignore_errors=True)


# -- reporting ------------------------------------------------------------------


def print_result(name: str, result: dict) -> None:
    print(f"\n== {name}: {result['why']}")
    print(
        f"   seed {result['seed']}, {result['wall_s']:.1f} s measured, "
        f"{result['attempted']} attempted, {result['failed']} failed"
    )
    for metric, cell in result["end_to_end"].items():
        print(f"   {metric:<28} {cell['value']:>12.4f} {cell['unit']:<9} n={cell['n']}")
    for metric, cell in result["per_layer"].items():
        print(f"   {metric:<44} {cell['value']:>14.4f} {cell['unit']}")
    if not result["correct"]:
        print(f"   FAILED: {result['failures']}")


def contract_line(result: dict, traced: bool) -> str:
    if traced:
        metrics = {
            metric: {"value": cell["value"], "unit": cell["unit"]}
            for metric, cell in result["per_layer"].items()
        }
    else:
        metrics = {
            metric: {"value": cell["value"], "unit": cell["unit"]}
            for metric, cell in result["end_to_end"].items()
            if metric != "error_rate"
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def compare_aa(first: Dict[str, dict], second: Dict[str, dict]) -> bool:
    """Print run-to-run differences beside the bounds; False if any exceeds its own."""
    ok = True
    print("\n== A/A: the same code and seed, twice")
    for name in first:
        for metric, (unit, _, bound) in END_TO_END.items():
            a = first[name]["end_to_end"][metric]["value"]
            b = second[name]["end_to_end"][metric]["value"]
            if bound == 0.0 or metric in EXACT:
                same = a == b and (metric != "error_rate" or a == 0.0)
                verdict = "ok" if same else "unresolved"
                shown = "identical" if a == b else f"{a:.6g} != {b:.6g}"
            else:
                diff = abs(b - a) / a
                verdict = "ok" if diff <= bound else "unresolved"
                shown = f"{100 * diff:6.2f} %  (bound {100 * bound:.0f} %)"
            ok &= verdict == "ok"
            print(f"   {name:<15} {metric:<26} {a:>12.4f} {b:>12.4f} {unit:<9} {shown:<28} {verdict}")
        for metric in EXACT:
            if metric in END_TO_END:
                continue
            a = first[name]["per_layer"][metric]["value"]
            b = second[name]["per_layer"][metric]["value"]
            verdict = "ok" if a == b else "unresolved"
            ok &= a == b
            print(f"   {name:<15} {metric:<26} {a:>12.4f} {b:>12.4f} {'':<9} {'exact count':<28} {verdict}")
    return ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--duration", "--seconds", dest="seconds", type=float, default=None,
                        help="seconds measured per workload (default 30, 40 for the write mix)")
    parser.add_argument("--workload", action="append", choices=sorted(SPECS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--smoke", action="store_true", help="all four workloads in under a minute")
    parser.add_argument("--aa", action="store_true", help="run twice and judge the differences")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", default=os.path.join(OUT, "results.json"))
    args = parser.parse_args(argv)
    names = args.workload or list(SPECS)
    if args.trace is not None and len(names) != 1:
        parser.error("--trace needs exactly one --workload")
    effort = SMOKE if args.smoke else Effort()
    layers = args.trace != 0

    def suite() -> Dict[str, dict]:
        results = {}
        for name in names:
            seconds = args.seconds or (SMOKE_SECONDS if args.smoke else SPECS[name].seconds)
            results[name] = run_workload(name, args.seed, seconds, layers, effort)
            print_result(name, results[name])
        return results

    results = suite()
    document = {"seed": args.seed, "workloads": results}
    ok = all(result["correct"] for result in results.values())
    if args.aa:
        again = suite()
        document["aa"] = again
        ok &= all(result["correct"] for result in again.values())
        ok &= compare_aa(results, again)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
    print(f"\nresults written to {args.out}; {'all answers correct' if ok else 'FAILED'}")
    if args.trace is not None:
        print(contract_line(results[names[0]], traced=bool(args.trace)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
