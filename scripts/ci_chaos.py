"""CI chaos drill: fault injection against a live pooled server.

Builds a small planted index, starts the demo server backed by a
2-process worker pool, and drives every failure mode the robustness
layer claims to absorb (docs/ROBUSTNESS.md), asserting exact metric
accounting after each:

* **worker crashes** — the ``kill-worker`` fault point makes each
  original worker ``os._exit(1)`` mid-task; every request must still
  return the byte-identical answer via in-thread fallback, with exactly
  one ``xks_pool_fallback_total`` and one ``xks_pool_worker_deaths_total``
  increment per death, and the pool must respawn back to full size;
* **storage corruption** — a bit flipped inside a posting block of the
  packed segments — after a commit whose batch splits scan blocks in
  place — carried into a new segment file by a commit that copies
  untouched lists through, is detected by the per-chunk CRC on a
  ``--verify-checksums`` server, counted once in
  ``xks_corruption_detected_total{tier="segment"}``, the segment tier is
  quarantined, and every answer is re-served byte-identical from the
  B+tree tier; ``xksearch fsck`` flags the same corruption (exit 1) and
  nothing else: the split blocks pass its separator check;
* **overload** — with the admission gate pushed past its hard limit,
  requests shed with ``429`` + ``Retry-After`` (one gate ``shed``
  increment each) and flow again the moment pressure releases;
* **deadlines** — the ``expired-deadline`` fault point and a
  microscopic client budget both produce ``504`` with a phase and a
  trace id, counted in ``xks_deadline_exceeded_total{phase}``;
* **drain** — an idle server drains to zero in-flight requests.

Run::

    PYTHONPATH=src python scripts/ci_chaos.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

from repro.index.builder import build_index
from repro.index.inverted import DiskKeywordIndex
from repro.index.segments import open_index_segments, segments_path
from repro.index.updates import IndexUpdater
from repro.obs.metrics import get_registry
from repro.robustness import faultinject
from repro.robustness.admission import AdmissionGate
from repro.storage.records import keyword_range
from repro.xksearch.cli import main as cli_main
from repro.xksearch.server import ServerMetrics, make_server
from repro.xksearch.system import XKSearch
from repro.xmltree.generate import dblp_like_tree, plant_keywords

QUERIES = ("xkrare+xkbig", "xkmid+xkbig", "xkrare+xkmid")


def build(target) -> None:
    tree = dblp_like_tree(7, venues=3, years_per_venue=3, papers_per_year=8)
    plant_keywords(tree, {"xkrare": 4, "xkmid": 18, "xkbig": 50}, seed=11)
    build_index(tree, target, page_size=1024)


def counter_value(name, **labels) -> float:
    metric = get_registry().get_metric(name)
    if metric is None:
        return 0.0
    if labels:
        return metric.labels(**labels).value
    return sum(child.value for _, child in metric.items())


def fetch_json(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def fetch_ids(base, query):
    status, _, payload = fetch_json(f"{base}/api/search?q={query}")
    assert status == 200, (query, status, payload)
    return payload["ids"]


@contextlib.contextmanager
def serving(system, **kwargs):
    server = make_server(system, port=0, metrics=ServerMetrics(), **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield f"http://{host}:{port}", server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def reference_answers(index_dir) -> dict:
    with XKSearch.open(index_dir, load_document=False) as reference, serving(
        reference
    ) as (base, _):
        return {q: fetch_ids(base, q) for q in QUERIES}


def check_worker_crash(index_dir, reference) -> None:
    """Both pool workers are killed mid-task by fault injection; every
    request still answers, with exact fallback/death/respawn accounting."""
    import multiprocessing

    from repro.xksearch.parallel import WorkerPool

    if "fork" not in multiprocessing.get_all_start_methods():
        print("worker crash SKIPPED: no fork start method")
        return

    deaths_before = counter_value("xks_pool_worker_deaths_total")
    fallback_before = counter_value("xks_pool_fallback_total")
    # Armed before the fork so both original workers inherit the plan
    # (one kill each); disarmed before respawns so replacements are
    # healthy.
    faultinject.arm("kill-worker:times=1")
    pool = WorkerPool(index_dir, workers=2)
    faultinject.reset_plan()
    try:
        with XKSearch.open(index_dir, load_document=False) as system:
            system.engine.attach_pool(pool)
            with serving(system) as (base, _):
                served = 0
                deadline = time.monotonic() + 30.0
                # Round-robin queries until both armed workers have died;
                # every single response must match the reference.
                while pool.respawns < 2:
                    assert time.monotonic() < deadline, (
                        f"armed workers never crashed (respawns={pool.respawns})"
                    )
                    query = QUERIES[served % len(QUERIES)]
                    assert fetch_ids(base, query) == reference[query], query
                    served += 1
                for query in QUERIES:  # the respawned pool keeps serving
                    assert fetch_ids(base, query) == reference[query], query
                    served += 1
    finally:
        pool.close()

    deaths = counter_value("xks_pool_worker_deaths_total") - deaths_before
    fallbacks = counter_value("xks_pool_fallback_total") - fallback_before
    assert deaths == 2, f"expected exactly 2 worker deaths, saw {deaths}"
    assert fallbacks == 2, f"expected exactly 2 fallbacks, saw {fallbacks}"
    print(
        f"worker crash OK: {served} requests all byte-identical across 2 "
        f"injected worker kills, 2 fallbacks, pool respawned to full size"
    )


def check_corruption_reanswer(index_dir, reference) -> None:
    """A flipped bit in a segment posting block: detected once, segment
    tier quarantined, every answer re-served byte-identical from the
    B+trees; fsck flags the same corruption.  The bit is flipped *before*
    a commit that leaves the list alone, so what the server trips over is
    a block the commit carried over from the old file together with its
    stored CRC — neither healed by re-deriving nor blessed by
    re-checksumming.  An earlier commit has split scan blocks in place:
    fsck must still pin the damage on the one list."""
    with DiskKeywordIndex(index_dir) as index:
        nodes = sorted({dewey for kw in index.keywords() for dewey in index.keyword_list(kw)})
    with IndexUpdater(index_dir) as updater:  # touches no queried keyword
        for batch in (nodes[:400:2], nodes[1:400:2]):  # the second lands inside the first's blocks
            assert updater.add_postings({"xksplit": [(dewey, "") for dewey in batch]}) == 200
    with DiskKeywordIndex(index_dir) as index:
        blocks = sum(1 for _ in index.scan_tree.scan(*keyword_range("xksplit")))
    assert blocks >= 4, f"the batch split nothing: {blocks} block(s)"
    path = segments_path(index_dir)
    with open_index_segments(index_dir) as reader:
        start = reader.byte_offset("xkrare")
    with open(path, "r+b") as fh:
        fh.seek(start)
        byte = fh.read(1)[0]
        fh.seek(start)
        fh.write(bytes([byte ^ 0x40]))
    with IndexUpdater(index_dir) as updater:
        assert updater.add_postings({"xkchaos": [((0, 0, 0, 0, 0, 0), "title")]}) == 1
    with open_index_segments(index_dir) as reader:
        assert reader.generation == 3 and "xkchaos" in reader
        assert reader.byte_offset("xkrare") != start, "the commit rewrote nothing"

    before = counter_value("xks_corruption_detected_total", tier="segment")
    with XKSearch.open(
        index_dir, load_document=False, verify_checksums=True
    ) as system:
        assert system.index.segments_active(), "segments not active at open"
        with serving(system) as (base, _):
            for query in QUERIES:
                assert fetch_ids(base, query) == reference[query], query
        assert not system.index.segments_active(), (
            "corrupt segment tier was not quarantined"
        )
    detected = (
        counter_value("xks_corruption_detected_total", tier="segment") - before
    )
    assert detected == 1, f"expected exactly 1 corruption event, saw {detected}"

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(["fsck", str(index_dir)])
    assert code == 1, f"fsck exited {code} on a corrupt index"
    assert "segment block" in stdout.getvalue(), stdout.getvalue()
    errors = [line for line in stdout.getvalue().splitlines() if line.startswith("  - ")]
    assert errors and all("'xkrare'" in line for line in errors), stdout.getvalue()
    print(
        f"corruption OK: {len(QUERIES)} queries byte-identical from the "
        f"B+tree tier after quarantine, 1 corruption event, fsck caught it"
    )


def check_admission_shed(index_dir, reference) -> None:
    """Past the hard watermark every request sheds 429 + Retry-After;
    releasing the pressure restores service immediately."""
    gate = AdmissionGate(soft_limit=2, hard_limit=4)
    with XKSearch.open(index_dir, load_document=False) as system, serving(
        system, gate=gate
    ) as (base, server):
        shed_before = gate.stats_dict()["shed"]
        for _ in range(5):  # saturate: accounting past the hard limit
            gate.enter()
        try:
            for _ in range(3):
                status, headers, payload = fetch_json(
                    f"{base}/api/search?q={QUERIES[0]}"
                )
                assert status == 429, (status, payload)
                assert payload["reason"] == "hard_limit", payload
                assert headers["Retry-After"] == str(gate.retry_after_s)
        finally:
            for _ in range(5):
                gate.exit()
        shed = gate.stats_dict()["shed"] - shed_before
        assert shed == 3, f"expected exactly 3 shed requests, saw {shed}"
        assert fetch_ids(base, QUERIES[0]) == reference[QUERIES[0]], (
            "service did not recover after pressure released"
        )
        assert server.drain(timeout_s=2.0) == 0, "idle server failed to drain"
    print("overload OK: 3 requests shed 429+Retry-After, recovered, drained")


def check_deadline(index_dir) -> None:
    """Expired budgets 504 with a phase, counted exactly once each."""
    with XKSearch.open(index_dir, load_document=False) as system, serving(
        system
    ) as (base, _):
        before = counter_value("xks_deadline_exceeded_total", phase="admission")
        faultinject.arm("expired-deadline:times=1")
        try:
            status, _, payload = fetch_json(
                f"{base}/api/search?q={QUERIES[0]}&timeout_ms=5000"
            )
        finally:
            faultinject.reset_plan()
        assert status == 504, (status, payload)
        assert payload["phase"] == "admission", payload
        assert payload["trace_id"], payload
        status, _, payload = fetch_json(
            f"{base}/api/search?q={QUERIES[0]}",
            headers={"X-Deadline-Ms": "0.001"},
        )
        assert status == 504, (status, payload)
        expired = (
            counter_value("xks_deadline_exceeded_total", phase="admission")
            - before
        )
        assert expired == 2, f"expected exactly 2 expiries, saw {expired}"
        # A generous budget changes nothing about the answer.
        status, _, payload = fetch_json(
            f"{base}/api/search?q={QUERIES[0]}&timeout_ms=30000"
        )
        assert status == 200 and payload["ids"], payload
    print("deadline OK: fault + tiny budget both 504'd, counted exactly twice")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="xk_chaos_") as tmp:
        index_dir = f"{tmp}/idx"
        build(index_dir)
        reference = reference_answers(index_dir)
        assert all(reference.values()), f"empty reference answers: {reference}"
        check_worker_crash(index_dir, reference)
        check_admission_shed(index_dir, reference)
        check_deadline(index_dir)
        # Last: this phase corrupts the index files.
        check_corruption_reanswer(index_dir, reference)
    print("chaos drill passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
