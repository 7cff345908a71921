"""Query engine: planning and execution.

The paper's engine "accepts a keyword search, uses the frequency hash table
to locate the smallest keyword list, executes the Indexed Lookup Eager,
Scan Eager [or] Stack algorithms and returns all SLCAs."  Planning decides

* the list order — smallest list first (it becomes ``S1``; all complexity
  bounds are driven by ``|S1|``), and
* the algorithm — under ``"auto"``, Indexed Lookup Eager when the largest
  and smallest list sizes differ by at least ``skew_threshold`` (the regime
  where the paper shows IL winning by orders of magnitude), Scan Eager when
  the frequencies are similar (where scanning beats ``log``-factor
  lookups).  The Stack baseline is available on request.

Any keyword absent from the document short-circuits to an empty result, as
an empty keyword list admits no answer subtree.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Union

from repro.core import eager_slca, find_all_lcas, stack_elca, stack_slca
from repro.core.counters import OpCounters
from repro.errors import CorruptionError, PoolError, QueryError
from repro.index.inverted import DiskKeywordIndex
from repro.index.memory import MemoryKeywordIndex
from repro.obs.logging import current_trace_id, get_logger
from repro.obs.metrics import exponential_buckets, get_registry, instrumentation_enabled
from repro.robustness.breaker import CircuitBreaker
from repro.robustness.deadline import current_deadline
from repro.xksearch.cache import QueryCache, normalize_key
from repro.xmltree.dewey import DeweyTuple
from repro.xmltree.tree import extract_keywords

AnyIndex = Union[DiskKeywordIndex, MemoryKeywordIndex]

ALGORITHMS = ("auto", "il", "scan", "stack")

#: Default largest/smallest frequency ratio above which auto planning
#: prefers Indexed Lookup Eager.
DEFAULT_SKEW_THRESHOLD = 10.0

#: EXPLAIN's ``io`` block: pager and buffer-pool counter movement.
_IO_KEYS = ("page_reads", "sequential_reads", "random_reads", "pool_hits", "pool_misses")

#: Engine execution-time histogram buckets: 0.01 ms … ~5 s, factor 2.
_EXEC_BUCKETS_MS = exponential_buckets(0.01, 2.0, 20)

#: Log-spaced |S1| bands, matching the paper's 10/100/1000 frequency axis
#: (Figures 8-13 sweep the smallest-list size in decades).  Every executed
#: query is attributed to one band via its plan's smallest keyword list.
FREQUENCY_BANDS = ("0", "1-9", "10-99", "100-999", "1000+")

_log = get_logger("engine")


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise QueryError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def frequency_band(frequency: int) -> str:
    """The log-spaced band a smallest-list frequency falls into.

    All the paper's complexity bounds are driven by ``|S1|``, so latency
    attribution by this band separates "slow because the query is large"
    from "slow because the system regressed".
    """
    if frequency <= 0:
        return FREQUENCY_BANDS[0]
    if frequency < 10:
        return FREQUENCY_BANDS[1]
    if frequency < 100:
        return FREQUENCY_BANDS[2]
    if frequency < 1000:
        return FREQUENCY_BANDS[3]
    return FREQUENCY_BANDS[4]


@dataclass(frozen=True)
class QueryAtom:
    """One query term: a keyword, optionally restricted to a context tag.

    ``title:query`` matches the word ``query`` only at nodes whose context
    element (the node itself, or a text node's parent) is ``<title>``.
    """

    keyword: str
    tag: Optional[str] = None

    @property
    def display(self) -> str:
        return f"{self.tag}:{self.keyword}" if self.tag else self.keyword

    def __str__(self) -> str:
        return self.display


def parse_query(query: Union[str, Sequence[str]]) -> List[QueryAtom]:
    """Query text or token sequence → query atoms.

    Plain words become unqualified atoms; ``tag:word`` tokens become
    tag-qualified atoms.  Words are lowercased/tokenized exactly like
    document labels; duplicate atoms collapse.
    """
    raw_tokens = query.split() if isinstance(query, str) else list(query)
    atoms: List[QueryAtom] = []
    for raw in raw_tokens:
        tag: Optional[str] = None
        body = raw
        if ":" in raw:
            tag_part, body = raw.split(":", 1)
            tag_words = extract_keywords(tag_part)
            if len(tag_words) == 1:
                tag = tag_words[0]
            else:
                body = raw  # not a clean qualifier; treat whole token as words
        for word in extract_keywords(body):
            atom = QueryAtom(word, tag)
            if atom not in atoms:
                atoms.append(atom)
    if not atoms:
        raise QueryError("query contains no searchable keywords")
    return atoms


def normalize_query(query: Union[str, Sequence[str]]) -> List[str]:
    """Query → unique keyword/atom display strings (see :func:`parse_query`)."""
    return [atom.display for atom in parse_query(query)]


@dataclass
class QueryPlan:
    """The engine's decision for one query."""

    keywords: List[str]          # atom displays, rarest first
    algorithm: str               # resolved: "il", "scan" or "stack"
    frequencies: List[int]       # aligned with `keywords`
    empty: bool                  # some keyword does not occur at all
    atoms: List[QueryAtom] = field(default_factory=list)
    # Tag-filtered lists materialized at planning time, keyed by atom —
    # execution reuses them instead of rescanning.
    filtered: Dict[QueryAtom, List[DeweyTuple]] = field(default_factory=dict)

    @property
    def skew(self) -> float:
        """Largest/smallest frequency ratio (inf when a list is empty)."""
        if not self.frequencies or min(self.frequencies) == 0:
            return float("inf")
        return max(self.frequencies) / min(self.frequencies)

    @property
    def band(self) -> str:
        """Frequency band of the smallest keyword list (``|S1|``)."""
        return frequency_band(min(self.frequencies) if self.frequencies else 0)

    def summary(self) -> dict:
        """JSON-friendly plan description (EXPLAIN output, trace attrs)."""
        skew = self.skew
        return {
            "keywords": list(self.keywords),
            "frequencies": list(self.frequencies),
            "algorithm": self.algorithm,
            "empty": self.empty,
            "band": self.band,
            "skew": None if math.isinf(skew) else round(skew, 2),
        }


class Phase(NamedTuple):
    """One timed step of a query, in the order the engine took it."""

    name: str  # parse, cache_lookup, plan, execute or cache_store
    ms: float
    detail: Optional[dict] = None


@dataclass
class ExecutionStats:
    """The one record of what a query cost.

    Every entry point fills it in — plain and EXPLAIN, cache hit and miss,
    in-thread and pooled, batch — and everything that reports on a query
    is a projection of it: the ``xks_queries_total`` /
    ``xks_algo_ops_total`` / ``xks_query_exec_ms`` metrics, the slow log's
    algorithm, the request trace's ``engine`` span and the EXPLAIN JSON
    (:meth:`as_dict`).  They cannot disagree: the EXPLAIN ``execute``
    phase is the very duration the histogram observed.

    ``phases`` are stamped back to back, each starting where the previous
    one ended, and ``total_ms`` is their sum.  ``plan`` (the plan summary)
    and ``io`` (pager/pool counter movement) are only filled in by
    ``execute(..., profile=True)``.

    The ``cache_*`` fields are only populated when the engine runs with a
    :class:`~repro.xksearch.cache.QueryCache`: ``cache_hits`` /
    ``cache_misses`` count the result-cache lookups (a plain ``execute``
    makes exactly one; ``execute_many`` makes one per distinct query in
    the batch), ``cache_evictions`` counts entries the stores pushed out,
    and ``cache_hit`` is true when the answer was served without touching
    the index at all.  A hit is stamped with the cached entry's *original*
    execution counters (merged into :attr:`counters`), so it is
    distinguishable from a genuinely free query.
    """

    counters: OpCounters = field(default_factory=OpCounters)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_hit: bool = False
    query: str = ""
    semantics: str = "slca"
    algorithm_requested: str = "auto"
    #: Resolved by planning: "il", "scan" or "stack".
    algorithm: Optional[str] = None
    result_count: Optional[int] = None
    total_ms: float = 0.0
    phases: List[Phase] = field(default_factory=list)
    plan: Optional[dict] = None
    io: Optional[dict] = None
    #: Worker-side span trees (plain dicts) returned by pooled executions.
    worker_spans: List[dict] = field(default_factory=list)
    _mark: float = field(default=0.0, init=False, repr=False)

    def stamp(self, name: str, detail: Optional[dict] = None) -> float:
        """End the running phase as *name*; returns its duration (ms)."""
        now = time.perf_counter()
        ms = (now - self._mark) * 1000
        self._mark = now
        self.phases.append(Phase(name, ms, detail))
        self.total_ms += ms
        return ms

    def as_dict(self) -> dict:
        """The EXPLAIN breakdown (CLI ``--explain``, ``/api/search?explain=1``).

        The ``io`` deltas come from per-index pager and pool counters, so
        under concurrent load they fold in other queries' I/O; single-query
        contexts (CLI ``--explain``, benchmarks) attribute exactly.
        """
        phases = [
            {"name": name, "ms": round(ms, 3), **({"detail": detail} if detail else {})}
            for name, ms, detail in self.phases
        ]
        return {
            "query": self.query,
            "semantics": self.semantics,
            "algorithm_requested": self.algorithm_requested,
            "algorithm": self.algorithm,
            "cache_hit": self.cache_hit,
            "result_count": self.result_count,
            "total_ms": round(self.total_ms, 3),
            "phases": phases,
            "plan": self.plan,
            "counters": self.counters.as_dict(),
            "io": self.io,
        }


class QueryEngine:
    """Plans and executes keyword queries against an index.

    With a :class:`~repro.xksearch.cache.QueryCache` attached, plans and
    result tuples are memoized under a key that is insensitive to keyword
    order, and entries are stamped with the index's mutation *generation*
    so an :class:`~repro.index.updates.IndexUpdater` run invalidates them.
    Caching is opt-in: benchmarks measuring raw algorithm cost construct
    engines without one.

    A :class:`~repro.xksearch.parallel.WorkerPool` (attached via
    :meth:`attach_pool`) moves cache-miss execution into worker
    processes; every pooled answer is stored in the local cache like an
    in-thread one.  Answers are byte-identical to in-thread execution —
    workers run the same planner over the same index — and any dispatch
    failure falls back to executing in-thread (counted by
    ``xks_pool_fallback_total``), never failing the request.  The EXPLAIN
    path (``profile=True``) always runs in-thread so its phase timings and
    I/O attribution describe *this* process.
    """

    def __init__(
        self,
        index: AnyIndex,
        skew_threshold: float = DEFAULT_SKEW_THRESHOLD,
        cache: Optional[QueryCache] = None,
    ):
        self.index = index
        self.skew_threshold = skew_threshold
        self.cache = cache
        self.pool = None
        # Trips after consecutive dispatch failures so a dead pool costs
        # one up-front check per request instead of a discovery timeout;
        # recovery is probed automatically (docs/ROBUSTNESS.md).
        self.breaker = CircuitBreaker()
        # Per-algorithm OpCounters aggregates over this engine's lifetime
        # (the /statz "counters" section); registry metrics mirror them.
        self._totals: Dict[str, OpCounters] = {}
        self._totals_lock = threading.Lock()

    def attach_pool(self, pool) -> None:
        """Route cache-miss execution through a worker pool.

        ``pool`` needs the :class:`~repro.xksearch.parallel.WorkerPool`
        interface (``execute(semantics, tokens, algorithm, generation)``
        and ``size``); it should have been created against the same index
        directory, before any server threads started.
        """
        self.pool = pool

    def detach_pool(self) -> None:
        self.pool = None

    # -- observability -------------------------------------------------------

    def counter_totals(self) -> Dict[str, dict]:
        """Accumulated :class:`OpCounters` per executed algorithm."""
        with self._totals_lock:
            totals = {alg: c.snapshot() for alg, c in self._totals.items()}
        merged = OpCounters()
        for counters in totals.values():
            merged.add(counters)
        out = {alg: counters.as_dict() for alg, counters in sorted(totals.items())}
        out["_total"] = merged.as_dict()
        return out

    def _note_query(
        self,
        semantics: str,
        cache_state: str,
        algorithm: str,
        delta: Optional[OpCounters],
        exec_ms: Optional[float],
        band: Optional[str] = None,
    ) -> None:
        """Record one query against the engine totals and the registry.

        ``cache_state`` is ``hit``, ``miss`` or ``off`` (no cache);
        ``delta``, ``exec_ms`` and ``band`` (the plan's smallest-list
        frequency band) are only present when an actual execution happened.
        """
        if not instrumentation_enabled():
            return
        registry = get_registry()
        registry.counter(
            "xks_queries_total",
            "Queries executed or answered from cache.",
            labelnames=("semantics", "algorithm", "cache"),
        ).labels(semantics=semantics, algorithm=algorithm, cache=cache_state).inc()
        if delta is not None:
            self._merge_totals(algorithm, delta)
            ops = registry.counter(
                "xks_algo_ops_total",
                "Algorithm-level operation counts (the paper's cost model).",
                labelnames=("algorithm", "op"),
            )
            for op, value in delta.as_dict().items():
                if value:
                    ops.labels(algorithm=algorithm, op=op).inc(value)
        if exec_ms is not None:
            registry.histogram(
                "xks_query_exec_ms",
                "Engine execution time of non-cached queries (ms), by "
                "smallest-list frequency band and algorithm.",
                buckets=_EXEC_BUCKETS_MS,
                labelnames=("band", "algorithm"),
            ).labels(band=band or "0", algorithm=algorithm).observe(
                exec_ms, trace_id=current_trace_id()
            )
            if _log.enabled_for("debug"):
                _log.debug(
                    "query_executed",
                    semantics=semantics,
                    algorithm=algorithm,
                    band=band or "0",
                    cache=cache_state,
                    exec_ms=round(exec_ms, 3),
                )

    def generation(self) -> int:
        """The index's current mutation generation (0 for static indexes)."""
        generation = getattr(self.index, "generation", None)
        return generation() if callable(generation) else 0

    def plan(
        self,
        query: Union[str, Sequence[str]],
        algorithm: str = "auto",
    ) -> QueryPlan:
        """Resolve keyword order and algorithm without executing.

        With a cache attached the plan may come from the plan cache; a
        cached plan's keyword order can differ from a freshly computed one
        only between atoms of equal frequency (the cache key is
        order-insensitive), which never changes the result set.
        """
        _check_algorithm(algorithm)
        generation = self.generation() if self.cache is not None else 0
        return self._plan_atoms(parse_query(query), algorithm, generation)

    def _plan_atoms(
        self, atoms: List[QueryAtom], algorithm: str, generation: int
    ) -> QueryPlan:
        if self.cache is not None:
            key = normalize_key(
                (a.display for a in atoms), algorithm, semantics="plan"
            )
            hit, plan = self.cache.lookup_plan(key, generation)
            if hit:
                return plan
            plan = self._build_plan(atoms, algorithm)
            self.cache.store_plan(key, generation, plan)
            return plan
        return self._build_plan(atoms, algorithm)

    def _build_plan(self, atoms: List[QueryAtom], algorithm: str) -> QueryPlan:
        filtered: Dict[QueryAtom, List[DeweyTuple]] = {}
        frequencies_by_atom: Dict[QueryAtom, int] = {}
        for atom in atoms:
            if atom.tag is None:
                frequencies_by_atom[atom] = self.index.frequency(atom.keyword)
            else:
                # Tag filters need the actual postings; materialize once and
                # carry the list into execution.
                lst = self.index.keyword_list(atom.keyword, atom.tag)
                filtered[atom] = lst
                frequencies_by_atom[atom] = len(lst)
        ordered = sorted(atoms, key=lambda a: frequencies_by_atom[a])
        frequencies = [frequencies_by_atom[a] for a in ordered]
        plan = QueryPlan(
            [a.display for a in ordered],
            algorithm,
            frequencies,
            any(f == 0 for f in frequencies),
            atoms=ordered,
            filtered=filtered,
        )
        if algorithm == "auto":
            plan.algorithm = "il" if plan.skew >= self.skew_threshold else "scan"
        return plan

    def execute(
        self,
        query: Union[str, Sequence[str]],
        algorithm: str = "auto",
        stats: Optional[ExecutionStats] = None,
        profile: bool = False,
    ) -> Iterator[DeweyTuple]:
        """SLCAs of the query, streamed in document order.

        With a cache attached, repeats of a query (in any keyword order)
        are answered from memory; the result is then an iterator over the
        memoized tuple rather than a pipelined computation.

        ``stats`` receives the query's cost record.  With ``profile=True``
        (EXPLAIN) the query runs in this thread, never in the pool, the
        answer is materialized, and the record also gets the plan summary
        and the I/O attribution.  The answer is byte-identical to the
        non-profiled path.
        """
        _check_algorithm(algorithm)
        return self._query(query, algorithm, "slca", stats, profile)

    def _io_state(self) -> Optional[tuple]:
        """Pager/pool counters in :data:`_IO_KEYS` order (None in memory)."""
        pager = getattr(self.index, "pager", None)
        pool = getattr(self.index, "pool", None)
        if pager is None or pool is None:
            return None
        io, hits = pager.stats, pool.stats
        return (io.reads, io.sequential_reads, io.random_reads, hits.hits, hits.misses)

    # -- worker pool ---------------------------------------------------------

    def _pool_execute(self, semantics, plan, algorithm, generation, stats):
        """Try to run one planned query in a pool worker.

        Returns ``(ids, delta)`` on success, or ``None`` when the pool is
        absent, the plan is trivially empty, or the dispatch failed — the
        caller then executes in-thread.  The worker re-plans from the same
        atom displays and the *requested* algorithm, so its planning
        matches this process exactly.

        The task envelope carries this request's trace id
        (:func:`current_trace_id`), and the worker's reply carries its
        captured metric updates and span tree: the events are replayed
        into this process's registry here (so ``/metrics`` stays
        exact — the worker already counted the query, the ops
        and the latency, exemplar trace id included), and the spans land
        on ``stats.worker_spans`` for the serving layer to graft.  The
        caller must therefore NOT call :meth:`_note_query` for a pooled
        execution; :meth:`_merge_totals` keeps the engine-local totals
        honest instead.
        """
        pool = self.pool
        if pool is None or plan.empty:
            return None
        if not self.breaker.allow():
            self._note_fallback(None, reason="breaker_open")
            return None
        deadline = current_deadline()
        tokens = [a.display for a in plan.atoms]
        try:
            task = pool.execute(
                semantics,
                tokens,
                algorithm,
                generation,
                trace_id=current_trace_id(),
                want_spans=True,
                deadline_epoch=(
                    deadline.wall_expiry() if deadline is not None else None
                ),
            )
        except PoolError as exc:
            # DeadlineExceeded deliberately propagates instead: an expired
            # request must 504, never re-execute in-thread.
            self.breaker.record_failure()
            self._note_fallback(exc)
            return None
        self.breaker.record_success()
        delta = OpCounters(**task.counters)
        self._replay_worker_events(task)
        if task.spans is not None:
            stats.worker_spans.append(task.spans)
        return tuple(task.ids), delta

    def _replay_worker_events(self, task) -> None:
        """Replay one worker's captured metric updates into this registry.

        The worker counted everything in its own (private) registry —
        ``xks_queries_total``, ``xks_algo_ops_total``, the
        ``xks_query_exec_ms`` observation with the request's exemplar
        trace id, segment/pager counters.  The
        only label that lies from the parent's perspective is
        ``xks_queries_total{cache=...}``: the worker has no local result
        cache, so it says ``off`` where this process experienced a local
        ``miss`` — rewritten before replay.
        """
        if not task.events or not instrumentation_enabled():
            return
        events = task.events
        if self.cache is not None:
            events = [self._rewrite_cache_label(event) for event in events]
        applied = get_registry().replay_events(events)
        if applied:
            get_registry().counter(
                "xks_worker_events_replayed_total",
                "Worker-side metric updates replayed into this registry.",
                labelnames=("worker",),
            ).labels(worker=str(task.worker)).inc(applied)

    @staticmethod
    def _rewrite_cache_label(event: tuple) -> tuple:
        if event[0] != "c" or event[1] != "xks_queries_total":
            return event
        labelnames, labelvalues = event[2], event[3]
        try:
            index = tuple(labelnames).index("cache")
        except ValueError:
            return event
        values = list(labelvalues)
        if values[index] != "off":
            return event
        values[index] = "miss"
        return (event[0], event[1], event[2], tuple(values)) + tuple(event[4:])

    def _merge_totals(self, algorithm: str, delta: OpCounters) -> None:
        """Fold an execution's op counters into the engine totals (the
        ``/statz`` counters section); a pooled execution's registry side
        arrives via event replay instead."""
        with self._totals_lock:
            totals = self._totals.get(algorithm)
            if totals is None:
                totals = self._totals[algorithm] = OpCounters()
            totals.add(delta)

    def _note_fallback(
        self, exc: Optional[PoolError], reason: Optional[str] = None
    ) -> None:
        reason = reason or (type(exc).__name__ if exc is not None else "unknown")
        _log.warning("pool_fallback", error=repr(exc), reason=reason)
        if instrumentation_enabled():
            get_registry().counter(
                "xks_pool_fallback_total",
                "Queries executed in-thread after a pool dispatch failure "
                "or while the pool breaker is open.",
                labelnames=("reason",),
            ).labels(reason=reason).inc()

    def _query(
        self,
        query: Union[str, Sequence[str]],
        algorithm: str,
        semantics: str,
        stats: Optional[ExecutionStats],
        profile: bool = False,
    ) -> Iterator[DeweyTuple]:
        """One query, whatever the entry point: cache lookup → plan →
        pool-or-thread run → record → cache store.

        Cache entries are ``(ids, counters)`` pairs — the answer plus the
        operation counters of the execution that computed it — so a cache
        hit can stamp the record with the original cost instead of
        returning indistinguishable zeroes.  A hit still plans (from the
        plan cache), so the record names the algorithm an execution would
        have run.

        A cache miss executes in the worker pool when one is attached
        (falling back in-thread on any :class:`~repro.errors.PoolError`);
        profiled (EXPLAIN) calls bypass the pool so the record describes an
        execution in this process.  Only an unprofiled query without a
        cache is streamed; every other answer is materialized.
        """
        stats = stats if stats is not None else ExecutionStats()
        stats._mark = time.perf_counter()
        io_before = self._io_state() if profile else None
        atoms = parse_query(query)
        stats.query = query if isinstance(query, str) else " ".join(query)
        stats.semantics = semantics
        stats.algorithm_requested = algorithm
        stats.stamp("parse")
        cache = self.cache
        pool = self.pool if not profile else None
        generation = self.generation() if cache is not None or pool is not None else 0
        hit = False
        if cache is not None:
            key = normalize_key((a.display for a in atoms), algorithm, semantics)
            hit, entry = cache.lookup_result(key, generation)
            stats.stamp("cache_lookup")
        plan = self._plan_atoms(atoms, algorithm, generation)
        stats.algorithm = plan.algorithm
        if profile:
            # The summary names the posting tier keyword lookups hit:
            # "segment" (packed segments) or "bptree"; in-memory: neither.
            stats.plan = plan.summary()
            tier = getattr(self.index, "posting_tier", None)
            if callable(tier):
                stats.plan["posting_tier"] = tier()
        stats.stamp("plan", None if hit else {"algorithm": plan.algorithm})
        if hit:
            ids, counters = entry
            stats.cache_hits += 1
            stats.cache_hit = True
            stats.result_count = len(ids)
            if counters is not None:
                stats.counters.add(counters)
            self._note_query(semantics, "hit", algorithm, None, None)
        else:
            if cache is not None:
                stats.cache_misses += 1
            pooled = (
                self._pool_execute(semantics, plan, algorithm, generation, stats)
                if pool is not None
                else None
            )
            if pooled is not None:
                # The worker counted this query and its metrics were replayed
                # (_pool_execute); only the engine-local totals merge here.
                ids, counters = pooled
                stats.counters.add(counters)
                self._merge_totals(plan.algorithm, counters)
                stats.result_count = len(ids)
                stats.stamp("execute", {"algorithm": plan.algorithm})
            else:
                counters = OpCounters()  # this execution's own cost
                stream = self._run(plan, stats, counters, "off" if cache is None else "miss")
                if cache is None and not profile:
                    return stream
                ids = tuple(stream)
            if cache is not None:
                evictions_before = cache.results.stats.evictions
                cache.store_result(key, generation, (ids, counters))
                stats.cache_evictions += cache.results.stats.evictions - evictions_before
                stats.stamp("cache_store")
        if io_before is not None:
            after = self._io_state()
            stats.io = {k: a - b for k, a, b in zip(_IO_KEYS, after, io_before)}
        return iter(ids)

    def _run(
        self,
        plan: QueryPlan,
        stats: ExecutionStats,
        counters: OpCounters,
        cache_state: str,
    ) -> Iterator[DeweyTuple]:
        """Stream one in-thread execution of *plan*, then record it.

        A :class:`~repro.errors.CorruptionError` from the segment tier has
        already quarantined the reader (``segments_active`` is now False),
        so the re-run rebuilds its sources from the B+trees — the ground
        truth.  Answers are in document order and byte-identical across
        tiers, so the re-run skips the prefix already handed out and
        resumes exactly where the stream broke.  B+tree corruption is not
        retried: there is nothing more authoritative to fall back to.

        The record step (the ``execute`` phase, the query's counters and
        metrics) runs when the stream ends, also when the consumer closes
        it early as ``search(limit=...)`` does; an execution that raises is
        not recorded.
        """
        done = 0
        try:
            try:
                for item in self._execute(plan, stats.semantics, counters):
                    done += 1
                    yield item
            except CorruptionError as exc:
                if exc.tier != "segment":
                    raise
                _log.warning("segment_corruption_retry", error=str(exc))
                for item in islice(self._execute(plan, stats.semantics, counters), done, None):
                    done += 1
                    yield item
        except GeneratorExit:
            pass  # closed early by the consumer: still an execution
        stats.counters.add(counters)
        stats.result_count = done
        exec_ms = stats.stamp("execute", {"algorithm": plan.algorithm})
        self._note_query(
            stats.semantics, cache_state, plan.algorithm, counters, exec_ms,
            band=plan.band,
        )

    def execute_many(
        self,
        queries: Sequence[Union[str, Sequence[str]]],
        algorithm: str = "auto",
        stats: Optional[ExecutionStats] = None,
    ) -> List[List[DeweyTuple]]:
        """Execute a batch of queries; results align with the input order.

        Queries that normalize to the same atom set (regardless of keyword
        order) are deduplicated and run once each through the same path as
        :meth:`execute` — so with a cache attached only the cache misses
        execute at all.  Shared ``stats`` accumulate the counters and cache
        counts of the distinct queries.

        Every returned list is a **fresh, caller-owned copy**: two input
        queries that deduplicate to the same answer get independent lists,
        and cached entries stay immutable tuples internally, so mutating
        one returned list can never corrupt another query's answer or a
        future cache hit.

        With a worker pool attached, the distinct queries fan out across
        the pool concurrently (one dispatching thread per worker) — this
        is the batch analogue of the server's parallel read path, and the
        only place a single call exploits more than one worker at once.
        """
        _check_algorithm(algorithm)
        stats = stats if stats is not None else ExecutionStats()
        keys = [
            normalize_key((a.display for a in parse_query(query)), algorithm, "slca")
            for query in queries
        ]
        distinct = dict(zip(keys, queries))  # one query per atom set

        def run_one(query) -> tuple:
            # One record per query: OpCounters.add is not atomic, so the
            # records merge under this thread after the fan-out joins.
            record = ExecutionStats()
            ids = tuple(self._query(query, algorithm, "slca", record))
            return ids, record

        if self.pool is not None and len(distinct) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(
                max_workers=min(len(distinct), self.pool.size)
            ) as dispatchers:
                outcomes = list(dispatchers.map(run_one, distinct.values()))
        else:
            outcomes = [run_one(query) for query in distinct.values()]
        answers = {}
        for key, (ids, record) in zip(distinct, outcomes):
            stats.counters.add(record.counters)
            stats.cache_hits += record.cache_hits
            stats.cache_misses += record.cache_misses
            stats.cache_evictions += record.cache_evictions
            stats.worker_spans.extend(record.worker_spans)
            answers[key] = ids
        return [list(answers[key]) for key in keys]

    def execute_plan(
        self,
        plan: QueryPlan,
        stats: Optional[ExecutionStats] = None,
    ) -> Iterator[DeweyTuple]:
        """Run a previously computed plan."""
        if plan.algorithm not in ("il", "scan", "stack"):
            raise QueryError(f"unknown algorithm {plan.algorithm!r}")
        counters = stats.counters if stats is not None else OpCounters()
        return self._execute(plan, "slca", counters)

    def _execute(
        self, plan: QueryPlan, semantics: str, counters: OpCounters
    ) -> Iterator[DeweyTuple]:
        """The core algorithm that answers *plan* under *semantics*."""
        if plan.empty:
            return iter(())
        if semantics == "elca" or plan.algorithm == "stack":
            lists = [self._atom_scan(plan, atom) for atom in plan.atoms]
            return (stack_elca if semantics == "elca" else stack_slca)(lists, counters)
        mode = "indexed" if plan.algorithm == "il" else "scan"
        sources = [self._atom_source(plan, atom, mode, counters) for atom in plan.atoms]
        return (find_all_lcas if semantics == "lca" else eager_slca)(sources, counters)

    def _atom_source(
        self, plan: QueryPlan, atom: QueryAtom, mode: str, counters: OpCounters
    ):
        """One match source per atom; tag-qualified atoms use their
        pre-filtered lists, plain atoms the index's native sources."""
        if atom.tag is None:
            return self.index.sources_for([atom.keyword], mode, counters)[0]
        from repro.core.sources import CursorListSource, SortedListSource

        lst = plan.filtered[atom]
        cls = SortedListSource if mode == "indexed" else CursorListSource
        return cls(lst, counters)

    def _atom_scan(self, plan: QueryPlan, atom: QueryAtom):
        if atom.tag is None:
            return self.index.scan(atom.keyword)
        return plan.filtered[atom]

    def execute_all_lca(
        self,
        query: Union[str, Sequence[str]],
        stats: Optional[ExecutionStats] = None,
    ) -> Iterator[DeweyTuple]:
        """All LCAs (Section 5), pipelined via Algorithm 3 over IL."""
        return self._query(query, "il", "lca", stats)

    def execute_elca(
        self,
        query: Union[str, Sequence[str]],
        stats: Optional[ExecutionStats] = None,
    ) -> Iterator[DeweyTuple]:
        """Exclusive LCAs — XRANK's original semantics, via the sort-merge
        stack over sequential list scans.  SLCA ⊆ ELCA ⊆ LCA.  Yields in
        bottom-up pop order (sort for document order)."""
        return self._query(query, "stack", "elca", stats)
