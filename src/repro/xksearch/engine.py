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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.core import eager_slca, find_all_lcas, stack_elca, stack_slca
from repro.core.counters import OpCounters
from repro.errors import CorruptionError, PoolError, QueryError
from repro.index.inverted import DiskKeywordIndex
from repro.index.memory import MemoryKeywordIndex
from repro.obs.logging import current_trace_id, get_logger
from repro.obs.metrics import exponential_buckets, get_registry, instrumentation_enabled
from repro.obs.profile import QueryProfile, maybe_phase
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

#: Engine execution-time histogram buckets: 0.01 ms … ~5 s, factor 2.
_EXEC_BUCKETS_MS = exponential_buckets(0.01, 2.0, 20)

#: Log-spaced |S1| bands, matching the paper's 10/100/1000 frequency axis
#: (Figures 8-13 sweep the smallest-list size in decades).  Every executed
#: query is attributed to one band via its plan's smallest keyword list.
FREQUENCY_BANDS = ("0", "1-9", "10-99", "100-999", "1000+")

_log = get_logger("engine")


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


@dataclass
class ExecutionStats:
    """What one execution cost.

    The ``cache_*`` fields are only populated when the engine runs with a
    :class:`~repro.xksearch.cache.QueryCache`: ``cache_hits`` /
    ``cache_misses`` count this call's result-cache lookups (a plain
    ``execute`` makes exactly one; ``execute_many`` makes one per distinct
    query in the batch), ``cache_evictions`` counts entries this call's
    stores pushed out, and ``result_from_cache`` is true when the answer
    was served without touching the index at all.
    """

    counters: OpCounters = field(default_factory=OpCounters)
    page_reads: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    result_from_cache: bool = False
    #: EXPLAIN breakdown, set by ``execute(..., profile=True)``.
    profile: Optional[QueryProfile] = None
    #: Worker-side span trees (plain dicts) returned by pooled executions —
    #: the serving layer grafts them under the request's trace so traces
    #: show where the work actually ran.
    worker_spans: List[dict] = field(default_factory=list)

    @property
    def cache_hit(self) -> bool:
        """Whether the answer came from the result cache.

        Cache hits are stamped with the cached entry's *original* execution
        counters (merged into :attr:`counters`), so a hit is distinguishable
        from a genuinely free query rather than returning zeroed counters.
        """
        return self.result_from_cache


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
            with self._totals_lock:
                totals = self._totals.get(algorithm)
                if totals is None:
                    totals = self._totals[algorithm] = OpCounters()
                totals.add(delta)
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

    def _accounted(
        self,
        iterator: Iterator[DeweyTuple],
        stats: ExecutionStats,
        semantics: str,
        algorithm: str,
        band: Optional[str] = None,
    ) -> Iterator[DeweyTuple]:
        """Wrap a lazy execution so counters flush once it is consumed."""
        before = stats.counters.snapshot()
        started = time.perf_counter()
        try:
            yield from iterator
        finally:
            exec_ms = (time.perf_counter() - started) * 1000
            self._note_query(
                semantics, "off", algorithm, stats.counters.delta(before), exec_ms,
                band=band,
            )

    # -- corruption recovery -------------------------------------------------

    def _run_with_retry(
        self,
        plan: QueryPlan,
        stats: ExecutionStats,
        runner: Callable[[QueryPlan, ExecutionStats], Iterator[DeweyTuple]],
    ) -> tuple:
        """Materialize one execution, re-running once on segment corruption.

        A :class:`~repro.errors.CorruptionError` from the segment tier has
        already quarantined the reader (``segments_active`` is now False),
        so the retry rebuilds its sources from the B+trees — the ground
        truth — and the answer is byte-identical to what the segments
        would have produced.  B+tree corruption is not retried: there is
        nothing more authoritative to fall back to.
        """
        try:
            return tuple(runner(plan, stats))
        except CorruptionError as exc:
            if exc.tier != "segment":
                raise
            _log.warning("segment_corruption_retry", error=str(exc))
            return tuple(runner(plan, stats))

    def _retryable(
        self,
        plan: QueryPlan,
        stats: ExecutionStats,
        runner: Callable[[QueryPlan, ExecutionStats], Iterator[DeweyTuple]],
    ) -> Iterator[DeweyTuple]:
        """Streaming variant of :meth:`_run_with_retry`.

        Answers are in document order and byte-identical across tiers, so
        after a mid-stream corruption the re-execution skips the prefix
        already handed to the consumer and resumes exactly where the
        stream broke.
        """
        yielded = 0
        try:
            for item in runner(plan, stats):
                yielded += 1
                yield item
            return
        except CorruptionError as exc:
            if exc.tier != "segment":
                raise
            _log.warning("segment_corruption_retry", error=str(exc))
        for index, item in enumerate(runner(plan, stats)):
            if index < yielded:
                continue
            yield item

    def generation(self) -> int:
        """The index's current mutation generation (0 for static indexes)."""
        generation = getattr(self.index, "generation", None)
        return generation() if callable(generation) else 0

    def _plan_summary(self, plan: QueryPlan) -> dict:
        """Plan summary for EXPLAIN, annotated with the posting tier.

        ``posting_tier`` says which physical layer keyword lookups hit:
        ``"segment"`` (packed posting segments, zero-copy mmap) or
        ``"bptree"`` (B+tree descents); in-memory indexes report neither.
        """
        summary = plan.summary()
        tier = getattr(self.index, "posting_tier", None)
        if callable(tier):
            summary["posting_tier"] = tier()
        return summary

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
        if algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        return self._plan_atoms(parse_query(query), algorithm)

    def _plan_atoms(self, atoms: List[QueryAtom], algorithm: str) -> QueryPlan:
        if self.cache is not None:
            key = normalize_key(
                (a.display for a in atoms), algorithm, semantics="plan"
            )
            generation = self.generation()
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
        empty = any(f == 0 for f in frequencies)
        if algorithm == "auto":
            skew = (
                max(frequencies) / min(frequencies)
                if frequencies and min(frequencies) > 0
                else float("inf")
            )
            algorithm = "il" if skew >= self.skew_threshold else "scan"
        return QueryPlan(
            [a.display for a in ordered],
            algorithm,
            frequencies,
            empty,
            atoms=ordered,
            filtered=filtered,
        )

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

        With ``profile=True`` the execution is materialized and a
        :class:`~repro.obs.profile.QueryProfile` (per-phase timings,
        op-count deltas, I/O attribution) is attached to ``stats.profile``.
        The answer is byte-identical to the non-profiled path.
        """
        if algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        stats = stats if stats is not None else ExecutionStats()
        if not profile:
            return self._execute_cached(
                parse_query(query), algorithm, "slca", stats, self.execute_plan
            )
        query_text = query if isinstance(query, str) else " ".join(query)
        prof = QueryProfile(query_text, algorithm, "slca")
        stats.profile = prof
        started = time.perf_counter()
        counters_before = stats.counters.snapshot()
        io_before = self._io_state()
        with maybe_phase(prof, "parse"):
            atoms = parse_query(query)
        result = self._execute_cached(
            atoms, algorithm, "slca", stats, self.execute_plan, prof=prof
        )
        prof.total_ms = (time.perf_counter() - started) * 1000
        prof.counters = stats.counters.delta(counters_before).as_dict()
        prof.io = self._io_delta(io_before)
        return result

    def _io_state(self) -> Optional[dict]:
        """Snapshot of pager/pool counters (None for in-memory indexes)."""
        pager = getattr(self.index, "pager", None)
        pool = getattr(self.index, "pool", None)
        if pager is None or pool is None:
            return None
        return {"pager": pager.stats.as_dict(), "pool": pool.stats.as_dict()}

    def _io_delta(self, before: Optional[dict]) -> Optional[dict]:
        """Pager/pool counter movement since :meth:`_io_state`.

        Per-index counters, so concurrent queries' I/O folds in; exact in
        single-query contexts (CLI ``--explain``, benchmarks).
        """
        after = self._io_state()
        if before is None or after is None:
            return None
        return {
            "page_reads": after["pager"]["reads"] - before["pager"]["reads"],
            "sequential_reads": after["pager"]["sequential_reads"]
            - before["pager"]["sequential_reads"],
            "random_reads": after["pager"]["random_reads"]
            - before["pager"]["random_reads"],
            "pool_hits": after["pool"]["hits"] - before["pool"]["hits"],
            "pool_misses": after["pool"]["misses"] - before["pool"]["misses"],
        }

    # -- worker pool ---------------------------------------------------------

    def _pool_execute(self, semantics, plan, algorithm, generation, stats=None):
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
        if stats is not None and task.spans is not None:
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
        """Fold a pooled execution's op counters into the engine totals
        (the ``/statz`` counters section) — the registry side already
        arrived via event replay."""
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

    def _execute_cached(
        self,
        atoms: List[QueryAtom],
        algorithm: str,
        semantics: str,
        stats: ExecutionStats,
        runner: Callable[[QueryPlan, ExecutionStats], Iterator[DeweyTuple]],
        prof: Optional[QueryProfile] = None,
    ) -> Iterator[DeweyTuple]:
        """Run (or recall) one query under one result semantics.

        Cache entries are ``(ids, counters)`` pairs — the SLCA tuple plus
        the operation counters of the execution that computed it — so a
        cache hit can stamp :class:`ExecutionStats` with the original cost
        instead of returning indistinguishable zeroes.

        A cache miss executes in the worker pool when one is attached
        (falling back in-thread on any :class:`~repro.errors.PoolError`).
        Profiled (EXPLAIN) calls bypass the pool so the profile describes
        an execution in this process.
        """
        pooled_ok = prof is None and self.pool is not None
        if self.cache is None:
            with maybe_phase(prof, "plan") as phase:
                plan = self._plan_atoms(atoms, algorithm)
            if prof is None:
                if pooled_ok:
                    pooled = self._pool_execute(
                        semantics, plan, algorithm, self.generation(), stats=stats
                    )
                    if pooled is not None:
                        # The worker already counted this query (event
                        # replay in _pool_execute) — only the engine-local
                        # totals need merging here.
                        ids, delta = pooled
                        stats.counters.add(delta)
                        self._merge_totals(plan.algorithm, delta)
                        return iter(ids)
                return self._accounted(
                    self._retryable(plan, stats, runner), stats, semantics,
                    plan.algorithm, band=plan.band,
                )
            prof.algorithm = plan.algorithm
            prof.plan = self._plan_summary(plan)
            if phase is not None:
                phase.detail["algorithm"] = plan.algorithm
            return self._run_profiled(plan, semantics, "off", stats, runner, prof)
        key = normalize_key((a.display for a in atoms), algorithm, semantics)
        generation = self.generation()
        with maybe_phase(prof, "cache_lookup"):
            hit, entry = self.cache.lookup_result(key, generation)
        if hit:
            ids, cached_counters = entry
            stats.cache_hits += 1
            stats.result_from_cache = True
            if cached_counters is not None:
                stats.counters.add(cached_counters)
            self._note_query(semantics, "hit", algorithm, None, None)
            if prof is not None:
                prof.cache_hit = True
                prof.result_count = len(ids)
                # Plans are cheap; re-derive one so EXPLAIN on a hit still
                # shows what an execution would have run.
                with maybe_phase(prof, "plan"):
                    plan = self._plan_atoms(atoms, algorithm)
                prof.algorithm = plan.algorithm
                prof.plan = self._plan_summary(plan)
            return iter(ids)
        stats.cache_misses += 1
        with maybe_phase(prof, "plan") as phase:
            plan = self._plan_atoms(atoms, algorithm)
        if prof is not None:
            prof.algorithm = plan.algorithm
            prof.plan = self._plan_summary(plan)
            if phase is not None:
                phase.detail["algorithm"] = plan.algorithm
        pooled = (
            self._pool_execute(semantics, plan, algorithm, generation, stats=stats)
            if pooled_ok
            else None
        )
        if pooled is not None:
            # Pooled executions are fully counted worker-side and replayed
            # (_pool_execute); only the engine-local totals merge here.
            value, delta = pooled
            stats.counters.add(delta)
            self._merge_totals(plan.algorithm, delta)
        else:
            before = stats.counters.snapshot()
            exec_started = time.perf_counter()
            with maybe_phase(prof, "execute", algorithm=plan.algorithm):
                value = self._run_with_retry(plan, stats, runner)
            exec_ms = (time.perf_counter() - exec_started) * 1000
            delta = stats.counters.delta(before)
            self._note_query(
                semantics, "miss", plan.algorithm, delta, exec_ms, band=plan.band
            )
        with maybe_phase(prof, "cache_store"):
            evictions_before = self.cache.results.stats.evictions
            self.cache.store_result(key, generation, (value, delta))
            stats.cache_evictions += (
                self.cache.results.stats.evictions - evictions_before
            )
        if prof is not None:
            prof.result_count = len(value)
        return iter(value)

    def _run_profiled(
        self,
        plan: QueryPlan,
        semantics: str,
        cache_state: str,
        stats: ExecutionStats,
        runner: Callable[[QueryPlan, ExecutionStats], Iterator[DeweyTuple]],
        prof: QueryProfile,
    ) -> Iterator[DeweyTuple]:
        """Materialized, timed execution for the EXPLAIN path (no cache)."""
        before = stats.counters.snapshot()
        exec_started = time.perf_counter()
        with maybe_phase(prof, "execute", algorithm=plan.algorithm):
            value = self._run_with_retry(plan, stats, runner)
        exec_ms = (time.perf_counter() - exec_started) * 1000
        self._note_query(
            semantics, cache_state, plan.algorithm, stats.counters.delta(before),
            exec_ms, band=plan.band,
        )
        prof.result_count = len(value)
        return iter(value)

    def execute_many(
        self,
        queries: Sequence[Union[str, Sequence[str]]],
        algorithm: str = "auto",
        stats: Optional[ExecutionStats] = None,
    ) -> List[List[DeweyTuple]]:
        """Execute a batch of queries; results align with the input order.

        The batch path plans everything first, then executes: queries that
        normalize to the same atom set (regardless of keyword order) are
        deduplicated and computed once, and — with a cache attached — only
        the cache-misses are executed at all.  Shared ``stats`` accumulate
        over the distinct executions.

        Every returned list is a **fresh, caller-owned copy**: two input
        queries that deduplicate to the same answer get independent lists,
        and cached entries stay immutable tuples internally, so mutating
        one returned list can never corrupt another query's answer or a
        future cache hit.

        With a worker pool attached, the distinct misses fan out across
        the pool concurrently (one dispatching thread per worker) — this
        is the batch analogue of the server's parallel read path, and the
        only place a single call exploits more than one worker at once.
        """
        if algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        stats = stats if stats is not None else ExecutionStats()
        use_generation = self.cache is not None or self.pool is not None
        generation = self.generation() if use_generation else 0
        parsed = [parse_query(query) for query in queries]
        keys = [
            normalize_key((a.display for a in atoms), algorithm, "slca")
            for atoms in parsed
        ]
        # Phase 1 — resolve repeats and cached entries, plan the misses.
        resolved: Dict[tuple, tuple] = {}
        pending: List[tuple] = []
        pending_plans: Dict[tuple, QueryPlan] = {}
        for atoms, key in zip(parsed, keys):
            if key in resolved or key in pending_plans:
                continue
            if self.cache is not None:
                hit, entry = self.cache.lookup_result(key, generation)
                if hit:
                    ids, cached_counters = entry
                    stats.cache_hits += 1
                    if cached_counters is not None:
                        stats.counters.add(cached_counters)
                    self._note_query("slca", "hit", algorithm, None, None)
                    resolved[key] = ids
                    continue
                stats.cache_misses += 1
            pending.append(key)
            pending_plans[key] = self._plan_atoms(atoms, algorithm)

        # Phase 2 — execute each distinct miss once.  Each execution gets
        # its own ExecutionStats (OpCounters.add is not atomic) and the
        # deltas merge under this thread after the fan-out joins.
        def run_one(key: tuple):
            plan = pending_plans[key]
            pooled = (
                self._pool_execute("slca", plan, algorithm, generation, stats=stats)
                if self.pool is not None
                else None
            )
            if pooled is not None:
                # Counted worker-side and replayed; flag so the merge loop
                # below does not note it a second time.
                return key, pooled + (None, True)
            local = ExecutionStats()
            exec_started = time.perf_counter()
            value = self._run_with_retry(plan, local, self.execute_plan)
            exec_ms = (time.perf_counter() - exec_started) * 1000
            return key, (value, local.counters, exec_ms, False)

        if self.pool is not None and len(pending) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(
                max_workers=min(len(pending), self.pool.size)
            ) as dispatchers:
                outcomes = list(dispatchers.map(run_one, pending))
        else:
            outcomes = [run_one(key) for key in pending]
        for key, (value, delta, exec_ms, was_pooled) in outcomes:
            plan = pending_plans[key]
            stats.counters.add(delta)
            if was_pooled:
                self._merge_totals(plan.algorithm, delta)
            else:
                self._note_query(
                    "slca",
                    "miss" if self.cache is not None else "off",
                    plan.algorithm,
                    delta,
                    exec_ms,
                    band=plan.band,
                )
            if self.cache is not None:
                evictions_before = self.cache.results.stats.evictions
                self.cache.store_result(key, generation, (value, delta))
                stats.cache_evictions += (
                    self.cache.results.stats.evictions - evictions_before
                )
            resolved[key] = value
        return [list(resolved[key]) for key in keys]

    def execute_plan(
        self,
        plan: QueryPlan,
        stats: Optional[ExecutionStats] = None,
    ) -> Iterator[DeweyTuple]:
        """Run a previously computed plan."""
        stats = stats if stats is not None else ExecutionStats()
        if plan.empty:
            return iter(())
        counters = stats.counters
        if plan.algorithm in ("il", "scan"):
            mode = "indexed" if plan.algorithm == "il" else "scan"
            sources = [self._atom_source(plan, atom, mode, counters) for atom in plan.atoms]
            return eager_slca(sources, counters)
        if plan.algorithm == "stack":
            lists = [self._atom_scan(plan, atom) for atom in plan.atoms]
            return stack_slca(lists, counters)
        raise QueryError(f"unknown algorithm {plan.algorithm!r}")

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
        stats = stats if stats is not None else ExecutionStats()

        def run(plan: QueryPlan, stats: ExecutionStats) -> Iterator[DeweyTuple]:
            if plan.empty:
                return iter(())
            sources = [
                self._atom_source(plan, atom, "indexed", stats.counters)
                for atom in plan.atoms
            ]
            return find_all_lcas(sources, stats.counters)

        return self._execute_cached(parse_query(query), "il", "lca", stats, run)

    def execute_elca(
        self,
        query: Union[str, Sequence[str]],
        stats: Optional[ExecutionStats] = None,
    ) -> Iterator[DeweyTuple]:
        """Exclusive LCAs — XRANK's original semantics, via the sort-merge
        stack over sequential list scans.  SLCA ⊆ ELCA ⊆ LCA.  Yields in
        bottom-up pop order (sort for document order)."""
        stats = stats if stats is not None else ExecutionStats()

        def run(plan: QueryPlan, stats: ExecutionStats) -> Iterator[DeweyTuple]:
            if plan.empty:
                return iter(())
            lists = [self._atom_scan(plan, atom) for atom in plan.atoms]
            return stack_elca(lists, stats.counters)

        return self._execute_cached(parse_query(query), "stack", "elca", stats, run)
