"""Spans recorded from outside the program, and the traced replay.

The traced run opens the workload's index in this process and replays
requests single-threaded through a hand-assembled copy of the serving
path, reading the clock at every layer boundary:

    request
      xksearch.engine.parse       parse_query
      index.inverted.generation   QueryEngine.generation (cache on: stat, maybe refresh)
      xksearch.cache.lookup       QueryCache.lookup_result
      xksearch.engine.plan        QueryEngine.plan
      index.inverted.open_sources DiskKeywordIndex.sources_for
      core.algorithm              eager_slca
        index.source.lm / .rm / .scan   (one aggregated span per request)
      xksearch.cache.store        QueryCache.store_result
      xksearch.server.render      json.dumps of the /api/search payload
    index.updates.apply / index.updates.close   (write mix only)

A span is ``{id, name, request, parent, start_us, end_us}`` plus counts
taken at the same boundary.  ``index.source.*`` spans aggregate the many
short calls of one request: ``busy_us`` is the summed time inside the
calls and ``calls`` their number, and ``busy_us`` is what a parent's self
time subtracts.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.counters import OpCounters
from repro.core.indexed_lookup import eager_slca
from repro.xksearch.cache import QueryCache, normalize_key
from repro.xksearch.engine import parse_query
from repro.xksearch.system import XKSearch

from generate import Workload
from serving import apply_batch

ROOT = "request"


class SpanRecorder:
    """Spans kept in memory until :meth:`write_jsonl`."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._origin = time.perf_counter()

    def add(
        self,
        name: str,
        request: int,
        parent: Optional[int],
        start: float,
        end: float,
        busy: Optional[float] = None,
        **counts,
    ) -> int:
        span = {
            "id": len(self.spans),
            "name": name,
            "request": request,
            "parent": parent,
            "start_us": (start - self._origin) * 1e6,
            "end_us": (end - self._origin) * 1e6,
        }
        if busy is not None:
            span["busy_us"] = busy * 1e6
        span.update(counts)
        self.spans.append(span)
        return span["id"]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times_us(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time per span id: the span minus what its child spans cover.

    A child is clipped to its parent's interval; an aggregated child counts
    its ``busy_us``.
    """
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        for child in children.get(span["id"], ()):
            if "busy_us" in child:
                covered += child["busy_us"]
            else:
                covered += max(
                    0.0,
                    min(child["end_us"], span["end_us"]) - max(child["start_us"], span["start_us"]),
                )
        out[span["id"]] = span.get("busy_us", span["end_us"] - span["start_us"]) - covered
    return out


def self_time_by_name_us(spans: Sequence[dict]) -> Dict[str, float]:
    selfs = self_times_us(spans)
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span["name"]] += selfs[span["id"]]
    return dict(out)


class TimedSource:
    """A ``MatchSource`` proxy that times every call into the wrapped source."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.busy = {"lm": 0.0, "rm": 0.0, "scan": 0.0}
        self.calls = {"lm": 0, "rm": 0, "scan": 0}
        self.first = {}
        self.last = {}

    def _note(self, kind: str, started: float, ended: float) -> None:
        self.busy[kind] += ended - started
        self.calls[kind] += 1
        self.first.setdefault(kind, started)
        self.last[kind] = ended

    def lm(self, v):
        started = time.perf_counter()
        out = self.inner.lm(v)
        self._note("lm", started, time.perf_counter())
        return out

    def rm(self, v):
        started = time.perf_counter()
        out = self.inner.rm(v)
        self._note("rm", started, time.perf_counter())
        return out

    def scan(self) -> Iterator:
        stream = self.inner.scan()
        while True:
            started = time.perf_counter()
            try:
                value = next(stream)
            except StopIteration:
                self._note("scan", started, time.perf_counter())
                return
            self._note("scan", started, time.perf_counter())
            yield value

    def __len__(self) -> int:
        return len(self.inner)


def open_system(index_dir: str, cache_size: int) -> XKSearch:
    """The index as the server opens it, minus the stored document."""
    cache = QueryCache(result_capacity=cache_size) if cache_size > 0 else None
    return XKSearch.open(index_dir, load_document=False, cache=cache)


class TracedPath:
    """The request path of ``/api/search``, assembled from the layers' public
    functions with the clock read at each boundary."""

    def __init__(self, system: XKSearch, recorder: SpanRecorder) -> None:
        self.engine = system.engine
        self.index = system.index
        self.cache = system.engine.cache
        self.rec = recorder

    def request(self, rid: int, query: str) -> tuple:
        clock = time.perf_counter
        marks = []  # (span name, start, end, counts)
        t0 = clock()
        atoms = parse_query(query)
        t = clock()
        marks.append(("xksearch.engine.parse", t0, t, {}))
        hit = False
        if self.cache is not None:
            key = normalize_key((atom.display for atom in atoms), "auto", "slca")
            # Stats the manifest; after a commit this is where the index is reopened.
            generation = self.engine.generation()
            t, previous = clock(), t
            marks.append(("index.inverted.generation", previous, t, {"generation": generation}))
            hit, entry = self.cache.lookup_result(key, generation)
            t, previous = clock(), t
            marks.append(("xksearch.cache.lookup", previous, t, {"hit": hit}))
        sources: List[TimedSource] = []
        if hit:
            ids, counters = entry
        else:
            plan = self.engine.plan(query)
            t, previous = clock(), t
            marks.append(("xksearch.engine.plan", previous, t, {"algorithm": plan.algorithm}))
            counters = OpCounters()
            ids = ()
            if not plan.empty:
                mode = "indexed" if plan.algorithm == "il" else "scan"
                opened = self.index.sources_for(
                    [atom.keyword for atom in plan.atoms], mode, counters
                )
                t, previous = clock(), t
                marks.append(("index.inverted.open_sources", previous, t, {"sources": len(opened)}))
                sources = [TimedSource(source) for source in opened]
                ids = tuple(eager_slca(sources, counters))
                t, previous = clock(), t
                marks.append(("core.algorithm", previous, t, {
                    "s1": plan.frequencies[0], "k": len(plan.atoms), **counters.as_dict(),
                }))
            if self.cache is not None:
                self.cache.store_result(key, generation, (ids, counters))
                t, previous = clock(), t
                marks.append(("xksearch.cache.store", previous, t, {}))
        payload = {
            "query": query,
            "algorithm": "auto",
            "count": len(ids),
            "ids": [".".join(str(c) for c in dewey) for dewey in ids],
            "elapsed_ms": round((t - t0) * 1000, 3),
            "cached": hit,
            "cache_hit": hit,
            "shared_hit": False,
            "counters": counters.as_dict(),
            "trace_id": "0000000000000000",
        }
        body = json.dumps(payload)
        t, previous = clock(), t
        marks.append(("xksearch.server.render", previous, t, {"bytes": len(body)}))
        root = self.rec.add(ROOT, rid, None, t0, t, query=query, cached=hit)
        for name, start, end, counts in marks:
            span = self.rec.add(name, rid, root, start, end, **counts)
            if name == "core.algorithm":
                for source in sources:
                    for kind, calls in source.calls.items():
                        if calls:
                            self.rec.add(
                                f"index.source.{kind}", rid, span,
                                source.first[kind], source.last[kind],
                                busy=source.busy[kind], calls=calls,
                            )
        return tuple(payload["ids"])

    def write(self, rid: int, workload: Workload, write: int) -> None:
        commit = apply_batch(
            self.index.index_dir, workload.batches[write // 2], remove=write % 2 == 0
        )
        self.rec.add("index.updates.apply", rid, None, commit.applied_from, commit.applied_to)
        self.rec.add("index.updates.close", rid, None, commit.applied_to, commit.closed)
