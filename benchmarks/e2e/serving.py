"""The program under test and the load generator.

``ServerProcess`` runs the default ``python -m repro.xksearch.cli serve
<index> --port 0 --cache-size N`` as a subprocess.  ``run_window`` drives
it closed loop: one thread per connection, each holding one persistent
``http.client`` connection (plain keep-alive sockets: no TCP_QUICKACK, no
``Connection: close``) and sending its next request only after the reply
to the previous one has been read.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.index.updates import IndexUpdater

from generate import Batch, Op, Workload

#: Callers think for a seeded uniform 0..THINK_S before each read.  With no
#: think time every send follows the previous reply, which follows the
#: kernel timer tick that released it, so the whole loop locks to the tick
#: and every latency is a multiple of 4 ms (HZ=250 here): percentiles then
#: jump a whole step between runs.  One tick of think time unlocks the phase,
#: as the arrivals of a real front-end would.
THINK_S = 0.004
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 60.0
_ADDRESS = re.compile(r"http://([\d.]+):(\d+)/")


class ServerProcess:
    """One ``xksearch serve`` subprocess on an ephemeral port."""

    def __init__(self, index_dir: str, cache_size: int, src_dir: str, log_dir: str):
        self.stdout_path = os.path.join(log_dir, "server.out")
        self.stderr_path = os.path.join(log_dir, "server.err")
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1")
        with open(self.stdout_path, "w") as out, open(self.stderr_path, "w") as err:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.xksearch.cli", "serve", index_dir,
                 "--port", "0", "--cache-size", str(cache_size)],
                env=env, stdout=out, stderr=err,
            )
        try:
            self.host, self.port = self._wait_for_address()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_for_address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.stdout_path) as fh:
                match = _ADDRESS.search(fh.read())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server did not start: {self.stderr_text()[-2000:]}")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            client = Client(self.host, self.port)
            try:
                if client.get("/healthz")[0] == 200:
                    return
            finally:
                client.close()
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stderr_text(self) -> str:
        with open(self.stderr_path, errors="replace") as fh:
            return fh.read()

    def stop(self) -> int:
        """SIGTERM, wait, and return the exit code (kill after a timeout)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


class Client:
    """One persistent HTTP/1.1 connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn: Optional[http.client.HTTPConnection] = None

    def get(self, path: str) -> Tuple[int, bytes, float, float]:
        """``(status, body, latency_ms, end_time)``; status 0 = transport error."""
        started = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=REQUEST_TIMEOUT_S
                )
            self.conn.request("GET", path)
            response = self.conn.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.close()
            status, body = 0, b""
        ended = time.perf_counter()
        return status, body, (ended - started) * 1000.0, ended

    def get_json(self, path: str) -> dict:
        status, body, _, _ = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def search_path(query: str) -> str:
    return "/api/search?q=" + urllib.parse.quote(query)


@dataclass
class Commit:
    """Timestamps of one ``IndexUpdater`` batch, open to closed."""

    opened: float
    applied_from: float
    applied_to: float
    closed: float

    @property
    def apply_ms(self) -> float:
        return (self.applied_to - self.applied_from) * 1000.0

    @property
    def close_ms(self) -> float:
        return (self.closed - self.applied_to) * 1000.0

    @property
    def commit_ms(self) -> float:
        return (self.closed - self.opened) * 1000.0


def apply_batch(index_dir: str, batch: Batch, remove: bool) -> Commit:
    opened = time.perf_counter()
    with IndexUpdater(index_dir) as updater:
        applied_from = time.perf_counter()
        if remove:
            changed = updater.remove_postings(
                {keyword: [dewey for dewey, _ in postings] for keyword, postings in batch.items()}
            )
        else:
            changed = updater.add_postings(batch)
        applied_to = time.perf_counter()
    closed = time.perf_counter()
    wanted = sum(len(postings) for postings in batch.values())
    if changed != wanted:
        raise RuntimeError(f"write batch changed {changed} postings, expected {wanted}")
    return Commit(opened, applied_from, applied_to, closed)


@dataclass
class Recorder:
    """What one connection observed during the window."""

    #: (end time, latency ms, payload elapsed_ms, cached) of every 200 read.
    samples: List[Tuple[float, float, float, bool]] = field(default_factory=list)
    #: (query index, commits before the read) → answer → times seen.
    answers: Dict[Tuple[int, int], Counter] = field(default_factory=dict)
    #: query index → counters of its first uncached execution.
    counters: Dict[int, dict] = field(default_factory=dict)
    statuses: Counter = field(default_factory=Counter)  # non-200 only
    commits: List[Commit] = field(default_factory=list)
    refresh_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    body_bytes: int = 0
    started: float = 0.0
    ended: float = 0.0


def run_window(
    server: ServerProcess,
    workload: Workload,
    index_dir: str,
    seconds: float,
    before_write: Callable[[], None],
) -> List[Recorder]:
    """Replay the workload's sequence for *seconds*; one Recorder per connection.

    ``before_write`` runs ahead of every write batch (the caller samples
    ``/statz`` there, while the counters of the current index generation
    are still readable).
    """
    spec = workload.spec
    paths = [search_path(query) for query in workload.queries]
    shards = workload.shards()
    barrier = threading.Barrier(len(shards), timeout=START_TIMEOUT_S)
    # A write mix only stops between cycles, so every run measures whole
    # cycles and the read/write shares of the window do not vary.
    check_every = spec.cycle_reads + 2 if spec.cycle_reads else 1

    def drive(client: Client, ops: Sequence[Op], think: random.Random, rec: Recorder) -> None:
        writes = 0  # commits so far; the oracle derives the index state from it
        barrier.wait()
        rec.started = time.perf_counter()
        deadline = rec.started + seconds
        for i, (kind, arg) in enumerate(ops):
            if i % check_every == 0 and time.perf_counter() >= deadline:
                break
            if kind == "write":
                before_write()
                rec.commits.append(
                    apply_batch(index_dir, workload.batches[arg // 2], remove=arg % 2 == 0)
                )
                writes = arg + 1
                continue
            time.sleep(think.uniform(0.0, THINK_S))
            status, body, latency_ms, ended = client.get(paths[arg])
            rec.attempted += 1
            if status != 200:
                rec.statuses[status] += 1
                continue
            payload = json.loads(body)
            rec.body_bytes += len(body)
            cached = payload["cached"]
            rec.samples.append((ended, latency_ms, payload["elapsed_ms"], cached))
            rec.answers.setdefault((arg, writes), Counter())[tuple(payload["ids"])] += 1
            if not cached and arg not in rec.counters:
                rec.counters[arg] = payload["counters"]
            if kind == "probe":
                rec.refresh_ms.append(latency_ms)
        rec.ended = time.perf_counter()

    recorders = [Recorder() for _ in shards]
    clients = [Client(server.host, server.port) for _ in shards]
    # Connect before the clock starts: the window measures keep-alive
    # traffic, and the handshake belongs to set-up.
    for client in clients:
        client.get("/healthz")
    try:
        with ThreadPoolExecutor(max_workers=len(shards)) as executor:
            futures = [
                executor.submit(
                    drive, client, shard, random.Random(f"{workload.seed}:think:{i}"), rec
                )
                for i, (client, shard, rec) in enumerate(zip(clients, shards, recorders))
            ]
            for future in futures:
                future.result()
    finally:
        for client in clients:
            client.close()
    return recorders


def warm_up(server: ServerProcess, workload: Workload) -> None:
    """Replay the warm-up reads, each on a fresh connection: set-up does not
    sit out the keep-alive stall the window exists to measure."""
    client = Client(server.host, server.port)
    for qidx in workload.warmup:
        status = client.get(search_path(workload.queries[qidx]))[0]
        client.close()
        if status != 200:
            raise RuntimeError(f"warm-up read answered {status}")
