"""Process-pool query execution: pushing CPU-bound SLCA scans past the GIL.

The paper's algorithms are pure-Python Dewey-comparison loops, so a
threaded server executes cache-miss queries one at a time no matter how
many worker threads it has — the GIL serializes them.  This module moves
execution into a pool of **forked worker processes**:

* each worker opens the index in **mmap mode**
  (:class:`~repro.index.inverted.DiskKeywordIndex` with ``mmap_mode=True``),
  so all workers read the same OS page-cache copy of the posting lists —
  no per-worker buffer pool, no pickled posting lists crossing the pipe;
  only the query tokens go down and the (small) answer comes back;
* workers keep no result cache: the parent's
  :class:`~repro.xksearch.cache.QueryCache` is consulted before any
  dispatch and stores every pooled answer;
* generation-based invalidation stays intact: every task carries the
  parent's current generation, the worker max-merges it into its own
  registry, and its :meth:`DiskKeywordIndex.generation` check reloads the
  on-disk state if an updater ran — exactly the single-process protocol;
* failure degrades, never fails: a dead worker is retired (and respawned,
  up to a budget), and any dispatch error raises
  :class:`~repro.errors.PoolError`, which the engine answers by executing
  the query in-thread and counting ``xks_pool_fallback_total``;
* telemetry crosses the fork boundary both ways: each task envelope
  carries the serving request's trace id, the worker binds it (so
  worker-side exemplars and log lines carry the request's id), runs the
  query inside a ``worker`` span tree, captures every metric update it
  makes (:func:`repro.obs.metrics.start_capture`), and ships
  ``(events, spans)`` back in the reply (:class:`TaskResult`) for the
  parent to replay/graft — ``/metrics`` and traces stay exact.

Fork discipline: create the pool **before** starting server threads.
``fork()`` from a multi-threaded parent can clone held locks into the
child; at startup the parent is single-threaded and the workers inherit
a quiescent world.  Platforms without the
``fork`` start method get :class:`~repro.errors.PoolUnavailableError`
at construction, which callers treat as "serve in-thread".
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import DeadlineExceeded, PoolError, PoolUnavailableError
from repro.index.generation import seed_generation
from repro.obs.logging import get_logger, reset_current_trace_id, set_current_trace_id
from repro.obs.metrics import (
    get_registry,
    instrumentation_enabled,
    start_capture,
    stop_capture,
)
from repro.obs.tracing import Span

#: Semantics a worker knows how to execute (engine entry point per value).
SEMANTICS = ("slca", "lca", "elca")

#: Default ceiling on one task's round trip before the worker is retired.
DEFAULT_TASK_TIMEOUT_S = 120.0

_log = get_logger("parallel")


@dataclass
class TaskResult:
    """Everything one pooled execution returns to the parent.

    ``events`` is the worker's captured metric-update stream (see
    :meth:`~repro.obs.metrics.MetricsRegistry.replay_events`); ``spans``
    is the worker-side span tree as a plain dict (``None`` when the
    caller did not ask for spans); ``worker`` identifies which pool
    worker ran the task.
    """

    ids: tuple
    counters: dict
    exec_ms: float
    events: List[tuple] = field(default_factory=list)
    spans: Optional[dict] = None
    worker: int = -1


def _worker_main(
    worker_id,
    index_dir,
    conn,
    skew_threshold,
    use_segments=True,
    verify_checksums=False,
):
    """Worker process body: open the index in mmap mode, serve tasks.

    Runs in the forked child.  The index handle is private to this
    process (its own fd, its own mapping of the shared page cache — and,
    with segments, its own mapping of the shared segment file).
    """
    # Imported here so the symbols resolve in the child without making
    # this module depend on the engine at import time (the engine is what
    # imports the pool's error types).
    from repro.index.inverted import DiskKeywordIndex
    from repro.robustness import faultinject
    from repro.robustness.deadline import Deadline, bind_deadline
    from repro.xksearch.engine import ExecutionStats, QueryEngine

    try:
        index = DiskKeywordIndex(
            index_dir,
            mmap_mode=True,
            use_segments=use_segments,
            verify_checksums=verify_checksums,
        )
        engine = QueryEngine(index, skew_threshold=skew_threshold)
        conn.send(("ready", os.getpid()))
    except Exception as exc:  # surfaced to the parent as a failed spawn
        try:
            conn.send(("init_error", repr(exc)))
        finally:
            conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        except KeyboardInterrupt:
            # A terminal Ctrl-C reaches the whole foreground process
            # group; the parent's shutdown path closes the pipe anyway,
            # so exit quietly instead of spraying a traceback per worker.
            break
        if message is None:
            break
        (_, task_id, semantics, tokens, algorithm, generation,
         trace_id, want_spans, deadline_epoch) = message
        if faultinject.fire("kill-worker") is not None:
            # Simulate a hard worker crash mid-task: no reply, no cleanup.
            os._exit(1)
        deadline = (
            Deadline.from_wall_expiry(deadline_epoch) if deadline_epoch else None
        )
        trace_token = set_current_trace_id(trace_id) if trace_id else None
        root_span = None
        if want_spans:
            root_span = Span(
                "worker",
                {
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "semantics": semantics,
                    "algorithm": algorithm,
                },
            )
        start_capture()
        started = time.perf_counter()
        try:
            # An already-expired task is aborted before any work: the
            # parent's caller needs a 504, not a late answer.
            if deadline is not None:
                deadline.check("dispatch")
            # Adopt the parent's view of the index generation before
            # executing, so an update the parent has already observed is
            # never missed here; generation() both stats the manifest for
            # updates neither process has seen and reloads this handle's
            # on-disk state (remapping the grown file) when it is behind.
            gen_span = Span("worker.generation") if want_spans else None
            seed_generation(index.index_dir, generation)
            index.generation()
            if gen_span is not None:
                gen_span.finish()
                root_span.children.append(gen_span)
            exec_span = Span("worker.execute") if want_spans else None
            stats = ExecutionStats()
            with bind_deadline(deadline):
                if semantics == "slca":
                    ids = tuple(
                        engine.execute(tokens, algorithm=algorithm, stats=stats)
                    )
                elif semantics == "lca":
                    ids = tuple(engine.execute_all_lca(tokens, stats=stats))
                elif semantics == "elca":
                    ids = tuple(engine.execute_elca(tokens, stats=stats))
                else:
                    raise ValueError(f"unknown semantics {semantics!r}")
            exec_ms = (time.perf_counter() - started) * 1000
            events = stop_capture()
            spans = None
            if root_span is not None:
                if exec_span is not None:
                    exec_span.finish()
                    exec_span.annotate(answers=len(ids))
                    root_span.children.append(exec_span)
                root_span.finish()
                spans = root_span.to_dict()
            conn.send(
                (
                    task_id,
                    "ok",
                    ids,
                    stats.counters.as_dict(),
                    exec_ms,
                    events,
                    spans,
                )
            )
        except DeadlineExceeded as exc:
            # A distinct reply status: the parent must surface a 504 to
            # its caller, never re-execute in-thread.
            stop_capture()
            try:
                conn.send((task_id, "deadline", exc.phase))
            except (OSError, BrokenPipeError):
                break
        except Exception as exc:
            stop_capture()
            try:
                conn.send((task_id, "error", repr(exc)))
            except (OSError, BrokenPipeError):
                break
        finally:
            if trace_token is not None:
                reset_current_trace_id(trace_token)
    conn.close()


class _WorkerHandle:
    """Parent-side state for one worker process."""

    __slots__ = ("worker_id", "process", "conn", "tasks", "pid")

    def __init__(self, worker_id, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.tasks = 0
        self.pid = process.pid


class WorkerPool:
    """A fixed-size pool of forked query-execution processes.

    Thread-safe: any number of server threads may call :meth:`execute`
    concurrently; each dispatch checks a worker out of the idle queue for
    the duration of its task, which both load-balances (FIFO checkout is
    round-robin under sequential load) and applies backpressure when
    every worker is busy.
    """

    def __init__(
        self,
        index_dir,
        workers: int = 2,
        skew_threshold: float = 10.0,
        task_timeout_s: float = DEFAULT_TASK_TIMEOUT_S,
        spawn_timeout_s: float = 30.0,
        max_respawns: Optional[int] = None,
        respawn_reset_s: float = 60.0,
        use_segments: bool = True,
        verify_checksums: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise PoolUnavailableError(
                "process pool requires the fork start method; "
                "serve in-thread on this platform"
            )
        self.index_dir = os.fspath(index_dir)
        self.size = workers
        self.skew_threshold = skew_threshold
        self.use_segments = use_segments
        self.verify_checksums = verify_checksums
        self.task_timeout_s = task_timeout_s
        self.spawn_timeout_s = spawn_timeout_s
        self.max_respawns = max_respawns if max_respawns is not None else workers * 2
        self.respawn_reset_s = respawn_reset_s
        self._ctx = multiprocessing.get_context("fork")
        self._idle: "queue.Queue[_WorkerHandle]" = queue.Queue()
        self._lock = threading.Lock()
        self._workers: List[_WorkerHandle] = []
        self._alive = 0
        self._closed = False
        self._next_task_id = 0
        self._next_worker_id = 0
        self.respawns = 0
        self.dispatch_errors = 0
        self._budget_used = 0
        self._last_death_ts: Optional[float] = None
        for _ in range(workers):
            self._spawn()
        _log.info(
            "pool_started",
            workers=workers,
            index_dir=self.index_dir,
            pids=[handle.pid for handle in self._workers],
        )

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        with self._lock:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.index_dir,
                child_conn,
                self.skew_threshold,
                self.use_segments,
                self.verify_checksums,
            ),
            daemon=True,
            name=f"xks-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.spawn_timeout_s):
            process.kill()
            raise PoolError(f"worker {worker_id} did not report ready")
        status = parent_conn.recv()
        if status[0] != "ready":
            process.join(timeout=1.0)
            raise PoolError(f"worker {worker_id} failed to start: {status[1]}")
        handle = _WorkerHandle(worker_id, process, parent_conn)
        with self._lock:
            self._workers.append(handle)
            self._alive += 1
        self._idle.put(handle)
        return handle

    def _retire(self, handle: _WorkerHandle, reason: str) -> None:
        """Drop a failed worker and try to keep the pool at size.

        The respawn budget bounds *burst* deaths, not lifetime deaths: a
        sustained healthy window (``respawn_reset_s`` with no retirement)
        refills it, so an isolated crash a day never eats into tomorrow's
        headroom.  ``respawns`` stays a monotonic lifetime counter for
        observability.
        """
        with self._lock:
            if handle in self._workers:
                self._workers.remove(handle)
                self._alive -= 1
            closed = self._closed
            now = time.monotonic()
            if (
                self._last_death_ts is not None
                and now - self._last_death_ts >= self.respawn_reset_s
            ):
                self._budget_used = 0
            self._last_death_ts = now
            can_respawn = not closed and self._budget_used < self.max_respawns
            if can_respawn:
                self._budget_used += 1
                self.respawns += 1
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.kill()
        _log.warning(
            "pool_worker_retired",
            worker=handle.worker_id,
            pid=handle.pid,
            reason=reason,
        )
        if instrumentation_enabled():
            get_registry().counter(
                "xks_pool_worker_deaths_total",
                "Pool workers retired after a dispatch failure.",
                labelnames=("reason",),
            ).labels(reason=reason).inc()
        if can_respawn:
            try:
                self._spawn()
            except (PoolError, OSError) as exc:
                _log.warning("pool_respawn_failed", error=repr(exc))

    @property
    def alive(self) -> int:
        with self._lock:
            return self._alive

    def close(self) -> None:
        """Stop every worker (best effort; stragglers are killed)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            self._workers.clear()
            self._alive = 0
        for handle in workers:
            try:
                handle.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for handle in workers:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.kill()
            try:
                handle.conn.close()
            except OSError:
                pass
        _log.info("pool_closed", workers=len(workers))

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def execute(
        self,
        semantics: str,
        tokens: Sequence[str],
        algorithm: str,
        generation: int,
        trace_id: Optional[str] = None,
        want_spans: bool = False,
        deadline_epoch: Optional[float] = None,
    ) -> TaskResult:
        """Run one query in a worker.

        ``trace_id`` is the serving request's trace context — the worker
        binds it for the duration of the task so worker-side exemplars and
        log lines carry it; ``want_spans`` asks the worker to wrap the
        execution in a span tree and return it (``TaskResult.spans``).
        ``deadline_epoch`` is the request deadline as wall-clock epoch
        seconds: the worker aborts an already-expired task up front and
        checkpoints the deadline inside its algorithm loops; an expiry
        raises :class:`~repro.errors.DeadlineExceeded` here, which the
        caller must surface as a timeout — NOT retry in-thread.
        Raises :class:`~repro.errors.PoolError` on any dispatch failure —
        closed pool, no live workers, timeout, dead worker, or an error
        raised inside the worker — and the caller is expected to fall
        back to in-thread execution.
        """
        if self._closed:
            raise PoolError("pool is closed")
        if self.alive == 0:
            raise PoolError("no live workers")
        with self._lock:
            task_id = self._next_task_id
            self._next_task_id += 1
        try:
            handle = self._idle.get(timeout=self.task_timeout_s)
        except queue.Empty:
            self.dispatch_errors += 1
            raise PoolError("no idle worker within timeout")
        if not handle.process.is_alive():
            self.dispatch_errors += 1
            self._retire(handle, "dead_at_checkout")
            raise PoolError(f"worker {handle.worker_id} died")
        # Wait at most a second past the request deadline: by then the
        # worker has either answered "deadline" from its own checkpoint
        # or is stuck somewhere uncheckpointable and must be abandoned.
        poll_timeout = self.task_timeout_s
        if deadline_epoch is not None:
            poll_timeout = min(
                poll_timeout, max(0.1, deadline_epoch - time.time() + 1.0)
            )
        try:
            handle.conn.send(
                ("task", task_id, semantics, list(tokens), algorithm,
                 generation, trace_id, bool(want_spans), deadline_epoch)
            )
            if not handle.conn.poll(poll_timeout):
                if deadline_epoch is not None and time.time() >= deadline_epoch:
                    # The task is still in flight inside the worker, so the
                    # handle cannot be reused without breaking framing.
                    self.dispatch_errors += 1
                    self._retire(handle, "deadline_abandoned")
                    raise DeadlineExceeded(phase="execute")
                raise PoolError(f"worker {handle.worker_id} timed out")
            reply = handle.conn.recv()
        except DeadlineExceeded:
            raise
        except PoolError:
            self.dispatch_errors += 1
            self._retire(handle, "timeout")
            raise
        except (OSError, EOFError, BrokenPipeError) as exc:
            self.dispatch_errors += 1
            self._retire(handle, "pipe_broken")
            raise PoolError(f"worker {handle.worker_id} pipe failed: {exc!r}")
        handle.tasks += 1
        self._idle.put(handle)
        self._observe_task(handle.worker_id)
        if reply[0] != task_id:
            # A stale reply means request/response framing broke; the
            # worker was already handed back, but its answer is unusable.
            raise PoolError(f"worker {handle.worker_id} returned a stale reply")
        if reply[1] == "deadline":
            # The worker aborted cleanly at a checkpoint; it is healthy
            # and already back in the idle queue.
            raise DeadlineExceeded(phase=reply[2])
        if reply[1] != "ok":
            raise PoolError(f"worker {handle.worker_id} error: {reply[2]}")
        _task_id, _status, ids, counters, exec_ms, events, spans = reply
        return TaskResult(
            ids=ids,
            counters=counters,
            exec_ms=exec_ms,
            events=list(events or ()),
            spans=spans,
            worker=handle.worker_id,
        )

    def _observe_task(self, worker_id: int) -> None:
        if not instrumentation_enabled():
            return
        get_registry().counter(
            "xks_pool_tasks_total",
            "Queries executed by each pool worker.",
            labelnames=("worker",),
        ).labels(worker=str(worker_id)).inc()

    # -- observability -------------------------------------------------------

    def stats_dict(self) -> dict:
        with self._lock:
            workers = [
                {
                    "worker": handle.worker_id,
                    "pid": handle.pid,
                    "tasks": handle.tasks,
                    "alive": handle.process.is_alive(),
                }
                for handle in self._workers
            ]
            return {
                "size": self.size,
                "alive": self._alive,
                "respawns": self.respawns,
                "respawn_budget_used": self._budget_used,
                "max_respawns": self.max_respawns,
                "dispatch_errors": self.dispatch_errors,
                "workers": workers,
            }
