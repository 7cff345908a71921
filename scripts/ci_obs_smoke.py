"""CI smoke test for the observability surface.

Builds a tiny index, starts the demo server in-process, exercises the
search API, then asserts that:

* ``GET /metrics`` returns Prometheus-text-format output that a strict
  line grammar (including optional OpenMetrics exemplar suffixes)
  accepts, and that the core metric families (server, engine, cache,
  buffer pool, pager, B+tree) are all present — with band/algorithm
  labels and an exemplar on the execution histogram;
* ``xksearch serve --export-jsonl FILE`` writes exactly the traces it
  served: the trace ids in FILE are the ``X-Trace-Id`` response headers,
  ``xks_export_sent_total`` equals FILE's line count and
  ``xks_export_dropped_total`` is 0 (FILE is kept via ``--trace-out`` for
  upload);
* one CLI ``search --explain`` invocation prints the answer line plus a
  valid JSON profile with phases, counters and an algorithm;
* a server backed by a 2-process worker pool returns answers identical
  to the in-thread server, ``/metrics`` carries per-worker
  ``xks_pool_tasks_total`` labels, and — after every worker is killed —
  requests still succeed in-thread with the fallback counter raised
  (skipped where ``fork`` is unavailable);
* the packed posting segments answer byte-identically to the B+tree
  tier (all three algorithms, SLCA and ELCA; in-thread and over a
  2-process pool mapping the same segment file), the segment metrics
  appear on ``/metrics``, and a mid-run :class:`IndexUpdater` bump
  invalidates segment readers in every worker before the rebuilt
  segments take over.

The exact pooled ``xks_queries_total`` count and the worker spans under
a pooled request's trace are covered by ``tests/xksearch/test_server.py``
(``TestCrossProcessTelemetry``).

Run::

    PYTHONPATH=src python scripts/ci_obs_smoke.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
import urllib.request

import repro
from repro.xksearch.cache import QueryCache
from repro.xksearch.cli import main as cli_main
from repro.xksearch.server import ServerMetrics, make_server
from repro.xksearch.system import XKSearch
from repro.xmltree.generate import school_tree

# One exposition line: "name{labels} value", optionally followed by an
# OpenMetrics exemplar ("# {labels} value [timestamp]"), or a # HELP /
# # TYPE comment.
_LABELS = (
    r"\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:\\.|[^\"\\])*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:\\.|[^\"\\])*\")*\}"
)
_NUMBER = r"(\+Inf|-Inf|NaN|-?[0-9.e+-]+)"
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    rf"({_LABELS})?"
    rf" {_NUMBER}"
    rf"( # {_LABELS} {_NUMBER}( {_NUMBER})?)?$"
)
_COMMENT_LINE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")

CORE_METRICS = (
    "xks_http_requests_total",
    "xks_http_request_ms_bucket",
    "xks_queries_total",
    "xks_query_exec_ms_bucket",
    "xks_algo_ops_total",
    "xks_query_cache_hits_total",
    "xks_buffer_pool_hits_total",
    "xks_pager_reads_total",
    "xks_bptree_node_reads_total",
    "xks_index_generation",
)


def check_metrics_endpoint(index_dir: str) -> None:
    forced_trace_id = "f005ba1100c0ffee"
    with XKSearch.open(index_dir, cache=QueryCache()) as system:
        server = make_server(system, port=0, metrics=ServerMetrics())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        base = f"http://{host}:{port}"
        try:
            for query in ("John+Ben", "John+Ben", "class+smith"):
                with urllib.request.urlopen(
                    f"{base}/api/search?q={query}", timeout=10
                ) as resp:
                    json.loads(resp.read())
            # A traced request (explicit X-Trace-Id) must leave an exemplar
            # on the execution histogram.
            request = urllib.request.Request(
                f"{base}/api/search?q=John+Smith",
                headers={"X-Trace-Id": forced_trace_id},
            )
            with urllib.request.urlopen(request, timeout=10) as resp:
                json.loads(resp.read())
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
                content_type = resp.headers["Content-Type"]
                body = resp.read().decode("utf-8")
            with urllib.request.urlopen(f"{base}/debug/slow", timeout=10) as resp:
                slow = json.loads(resp.read())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    assert content_type.startswith("text/plain"), content_type
    assert body.endswith("\n"), "exposition must end with a newline"
    for line in body.rstrip("\n").split("\n"):
        assert _SAMPLE_LINE.match(line) or _COMMENT_LINE.match(line), (
            f"unparseable exposition line: {line!r}"
        )
    for name in CORE_METRICS:
        assert name in body, f"missing core metric {name}"
    exec_lines = [
        line for line in body.splitlines() if line.startswith("xks_query_exec_ms_bucket")
    ]
    assert exec_lines and all(
        'band="' in line and 'algorithm="' in line for line in exec_lines
    ), "xks_query_exec_ms must carry band and algorithm labels"
    exemplar_lines = [line for line in exec_lines if f'trace_id="{forced_trace_id}"' in line]
    assert exemplar_lines, "traced request left no exemplar on xks_query_exec_ms"
    # The exemplar's trace id must resolve via /debug/slow's exemplar echo.
    assert any(
        entry["trace_id"] == forced_trace_id for entry in slow.get("exemplars", [])
    ), f"exemplar trace id absent from /debug/slow: {slow.get('exemplars')}"
    print(
        f"/metrics OK: {len(body.splitlines())} lines, all core metrics present, "
        f"banded exec histogram with resolvable exemplar"
    )


def _export_counts(base: str) -> tuple:
    """``(sent, dropped)`` trace-file writes, read from ``/metrics``."""
    sent = dropped = 0.0
    with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
        for line in resp.read().decode("utf-8").splitlines():
            if line.startswith("xks_export_sent_total{"):
                sent += float(line.rsplit(" ", 1)[1])
            elif line.startswith("xks_export_dropped_total{"):
                dropped += float(line.rsplit(" ", 1)[1])
    return int(sent), int(dropped)


def check_export_pipeline(index_dir: str, trace_out: str = None) -> None:
    """``xksearch serve --export-jsonl``: the file holds exactly the served
    traces, one line each, and ``/metrics`` counts every line sent."""
    tmp = os.path.dirname(index_dir)
    trace_path = os.path.join(tmp, "traces.jsonl")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1")
    with open(os.path.join(tmp, "export_server.err"), "w") as err:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.xksearch.cli", "serve", index_dir,
             "--port", "0", "--trace-sample", "1.0", "--export-jsonl", trace_path],
            env=env, stdout=subprocess.PIPE, stderr=err, text=True,
        )
    served_ids = []
    try:
        match = None
        for line in process.stdout:  # "XKSearch demo at http://host:port/ ..."
            match = re.search(r"http://([\d.]+):(\d+)/", line)
            if match:
                break
        assert match, "export server did not start"
        base = f"http://{match.group(1)}:{match.group(2)}"
        for query in ("John+Ben", "class+smith", "John+Smith", "John+Ben"):
            with urllib.request.urlopen(f"{base}/api/search?q={query}", timeout=10) as resp:
                json.loads(resp.read())
                served_ids.append(resp.headers["X-Trace-Id"])
        # Each trace is written after its response: wait for the last one.
        deadline = time.monotonic() + 10.0
        sent, dropped = _export_counts(base)
        while sent + dropped < len(served_ids) and time.monotonic() < deadline:
            time.sleep(0.02)
            sent, dropped = _export_counts(base)
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
        process.stdout.close()

    with open(trace_path, encoding="utf-8") as fh:
        exported_ids = [json.loads(line)["trace_id"] for line in fh]
    assert len(set(served_ids)) == len(served_ids), served_ids
    assert set(exported_ids) == set(served_ids), (
        f"exported {exported_ids} != served {served_ids}"
    )
    assert sent == len(exported_ids), (sent, len(exported_ids))
    assert dropped == 0, dropped
    if trace_out:
        shutil.copyfile(trace_path, trace_out)
    print(
        f"export OK: {len(exported_ids)} trace lines, ids match X-Trace-Id headers, "
        f"xks_export_sent_total={sent}, dropped={dropped}"
        + (f", artifact at {trace_out}" if trace_out else "")
    )


def check_parallel_smoke(index_dir: str) -> None:
    """Serve over a 2-process pool: identical answers, per-worker metrics,
    and in-thread fallback after every worker dies."""
    import multiprocessing

    from repro.xksearch.parallel import WorkerPool

    if "fork" not in multiprocessing.get_all_start_methods():
        print("parallel smoke SKIPPED: no fork start method")
        return

    # All keywords exist in school_tree, so no plan is empty and every
    # request reaches the pool (empty plans short-circuit in-thread).
    queries = ("John+Ben", "class+john", "ben+sue", "databases+search")

    def serve_and_fetch(system, base_actions):
        server = make_server(system, port=0, metrics=ServerMetrics())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        base = f"http://{host}:{port}"
        try:
            return base_actions(base)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def fetch_ids(base, query):
        with urllib.request.urlopen(f"{base}/api/search?q={query}", timeout=10) as resp:
            return json.loads(resp.read())["ids"]

    # Reference answers from a plain in-thread server.
    with XKSearch.open(index_dir) as system:
        reference = serve_and_fetch(
            system, lambda base: {q: fetch_ids(base, q) for q in queries}
        )

    # The pool forks BEFORE the server thread starts.  The parent engine
    # runs cache-less so every request — including the post-crash ones —
    # actually reaches the pool dispatch path.
    pool = WorkerPool(index_dir, workers=2, max_respawns=0)
    try:
        with XKSearch.open(index_dir) as system:
            system.engine.attach_pool(pool)

            def actions(base):
                # Sequential distinct queries round-robin the idle queue,
                # so both workers execute at least one task.
                answers = {q: fetch_ids(base, q) for q in queries}
                with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
                    metrics_body = resp.read().decode("utf-8")
                # Crash injection: kill every worker, then keep serving.
                for handle in list(pool._workers):
                    handle.process.kill()
                    handle.process.join(timeout=5)
                after_crash = {q: fetch_ids(base, q) for q in queries}
                with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
                    metrics_after = resp.read().decode("utf-8")
                return answers, metrics_body, after_crash, metrics_after

            answers, metrics_body, after_crash, metrics_after = serve_and_fetch(
                system, actions
            )
    finally:
        pool.close()

    assert answers == reference, f"pooled {answers} != in-thread {reference}"
    assert after_crash == reference, (
        f"fallback answers {after_crash} != in-thread {reference}"
    )
    for worker in ("0", "1"):
        assert f'xks_pool_tasks_total{{worker="{worker}"}}' in metrics_body, (
            f"no per-worker tasks metric for worker {worker}"
        )
    assert "xks_pool_fallback_total" in metrics_after, (
        "pool crash produced no xks_pool_fallback_total"
    )
    print(
        f"parallel smoke OK: {len(queries)} queries byte-identical over 2 "
        f"proc workers, per-worker metrics present, crash fell back in-thread"
    )


def check_segments(index_dir: str) -> None:
    """Packed posting segments: byte-identical answers segments-on vs -off
    (every algorithm, SLCA and ELCA), segment metrics on /metrics, and a
    mid-run index update that invalidates segment readers everywhere —
    including inside forked pool workers."""
    import multiprocessing

    from repro.index.updates import IndexUpdater
    from repro.xksearch.parallel import WorkerPool

    queries = ("John Ben", "class john", "ben sue", "databases search")

    # Single-thread identity: the segment fast path and the B+tree
    # fallback must agree on every algorithm and both semantics.
    with XKSearch.open(index_dir) as on, XKSearch.open(
        index_dir, use_segments=False
    ) as off:
        assert on.index.posting_tier() == "segment", "segments not active after build"
        assert off.index.posting_tier() == "bptree"
        for query in queries:
            for algorithm in ("il", "scan", "stack"):
                got = list(on.search_ids(query, algorithm=algorithm))
                want = list(off.search_ids(query, algorithm=algorithm))
                assert got == want, (query, algorithm, got, want)
            got = list(on.engine.execute_elca(query))
            want = list(off.engine.execute_elca(query))
            assert got == want, ("elca", query, got, want)

    # The serving surface must expose the segment tier.
    with XKSearch.open(index_dir, cache=QueryCache()) as system:
        server = make_server(system, port=0, metrics=ServerMetrics())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            with urllib.request.urlopen(
                f"http://{host}:{port}/api/search?q=John+Ben", timeout=10
            ) as resp:
                json.loads(resp.read())
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ) as resp:
                body = resp.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
    assert "xks_segment_active 1" in body, "xks_segment_active gauge not 1"
    for name in ("xks_segment_keywords", "xks_segment_sources_total"):
        assert name in body, f"missing segment metric {name}"

    if "fork" not in multiprocessing.get_all_start_methods():
        print(
            "segments OK: byte-identical on/off (3 algorithms + ELCA), metrics "
            "present; pool phase SKIPPED (no fork)"
        )
        return

    # Pool phase: workers map the same segment file; a mid-run
    # IndexUpdater bump must stale every worker's segment reader (answers stay correct via the B+tree fallback, then
    # the rebuilt segments take over).
    def fetch_ids(base, query):
        quoted = urllib.parse.quote(query)
        with urllib.request.urlopen(
            f"{base}/api/search?q={quoted}", timeout=10
        ) as resp:
            return json.loads(resp.read())["ids"]

    pool = WorkerPool(index_dir, workers=2)
    try:
        # A QueryCache makes the engine check the index generation before
        # planning, so the post-update query replans against the fresh
        # frequency table (the same protocol the real server uses).
        with XKSearch.open(index_dir, cache=QueryCache()) as system:
            system.engine.attach_pool(pool)
            server = make_server(system, port=0, metrics=ServerMetrics())
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address
            base = f"http://{host}:{port}"
            try:
                pooled = {q: fetch_ids(base, q) for q in queries}
                # Mid-run update: plant "zzz" at every "john" occurrence.
                johns = list(system.index.scan("john"))
                with IndexUpdater(index_dir) as updater:
                    updater.add_postings({"zzz": [(d, "") for d in johns]})
                    # The bump invalidates segments instantly in this process.
                    assert system.index.posting_tier() == "bptree", (
                        "generation bump did not stale the parent's segments"
                    )
                updated = fetch_ids(base, "john zzz")
                with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
                    metrics_body = resp.read().decode("utf-8")
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
    finally:
        pool.close()

    # Reference answers from a segment-less in-thread system (post-update
    # for the zzz query, which exercises the rebuilt segments' content).
    def dotted(deweys):
        return [".".join(map(str, d)) for d in deweys]

    with XKSearch.open(index_dir, use_segments=False) as reference:
        for query in queries:
            want = dotted(reference.search_ids(query))
            assert pooled[query] == want, (query, pooled[query], want)
        want = dotted(reference.search_ids("john zzz"))
        assert updated == want, ("john zzz", updated, want)
        assert want, "planted keyword produced no results"
    assert 'xks_segment_sources_total{tier="segment"}' in metrics_body, (
        "pooled server exposes no segment-tier metrics"
    )
    print(
        "segments OK: byte-identical on/off (3 algorithms + ELCA), metrics "
        "present, mid-run update invalidated workers and rebuilt segments"
    )


def check_cli_explain(index_dir: str) -> None:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(["search", index_dir, "John Ben", "--explain"])
    assert code == 0, f"explain CLI exited {code}"
    lines = stdout.getvalue().splitlines()
    assert lines and "SLCA answer(s)" in lines[0], lines[:1]
    profile = json.loads("\n".join(lines[1:]))
    assert profile["algorithm"] in ("il", "scan", "stack")
    # The CLI opens the index without a result cache.
    phases = [phase["name"] for phase in profile["phases"]]
    assert phases == ["parse", "plan", "execute"], phases
    assert set(profile["io"]) == {
        "page_reads", "sequential_reads", "random_reads", "pool_hits", "pool_misses",
    }, profile["io"]
    assert profile["counters"]["lca_ops"] >= 0
    print(
        f"--explain OK: {lines[0]} "
        f"(phases: {phases})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-out",
        default=None,
        help="keep the exported JSONL trace stream at this path (CI artifact)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="xk_obs_smoke_") as tmp:
        index_dir = f"{tmp}/idx"
        XKSearch.build(school_tree(), index_dir).close()
        check_metrics_endpoint(index_dir)
        check_export_pipeline(index_dir, trace_out=args.trace_out)
        check_cli_explain(index_dir)
        check_parallel_smoke(index_dir)
        # Last: this phase mutates the index (mid-run update).
        check_segments(index_dir)
    print("observability smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
