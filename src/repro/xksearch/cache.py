"""Query-result and plan caching for the serving layer.

Real keyword-query workloads are heavily skewed: a small set of popular
keyword combinations accounts for most of the traffic.  The paper's demo
recomputed every query from scratch; a production serving layer should pay
the SLCA computation once per distinct query and answer repeats from
memory.  This module provides that layer:

* :class:`LRUCache` — a thread-safe, size-bounded LRU map with hit/miss/
  eviction accounting (:class:`CacheStats`);
* :class:`QueryCache` — a result cache plus a plan cache for
  :class:`~repro.xksearch.engine.QueryEngine`.  Entries are stamped with
  the index *generation* current when they were computed
  (:mod:`repro.index.generation`), so a cache can be shared across engine
  instances and an :class:`~repro.index.updates.IndexUpdater` mutation
  atomically stales every result computed against the older contents.

Keys are order-insensitive: ``"john ben"`` and ``"ben john"`` share one
entry, because SLCA semantics (and the engine's frequency-based planning)
do not depend on the order keywords were typed in.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Tuple

from repro.obs.logging import get_logger

#: Default number of cached query results (each a tuple of Dewey numbers).
DEFAULT_RESULT_CAPACITY = 1024
#: Default number of cached query plans (plans are tiny; keep more).
DEFAULT_PLAN_CAPACITY = 4096

_log = get_logger("cache")


@dataclass
class CacheStats:
    """Cache effectiveness counters (mirrors the buffer pool's)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions, self.invalidations)

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Thread-safe size-bounded LRU mapping with stats.

    Values are treated as immutable by convention — callers must not
    mutate what they get back, because the same object is handed to every
    hit (that sharing is the point).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._map: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """``(hit, value)`` — a tuple so that ``None`` values stay cacheable."""
        with self._lock:
            if key in self._map:
                self.stats.hits += 1
                self._map.move_to_end(key)
                return True, self._map[key]
            self.stats.misses += 1
            return False, None

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._map:
                self._map[key] = value
                self._map.move_to_end(key)
                return
            self._map[key] = value
            while len(self._map) > self.capacity:
                self._map.popitem(last=False)
                self.stats.evictions += 1

    def get_stamped(self, key: Hashable, generation: int) -> Tuple[bool, Any]:
        """Lookup of a ``(generation, value)`` entry stored by
        :meth:`put_stamped`: an entry stamped with a different generation is
        a miss — it is dropped and counted as an invalidation."""
        stale_generation = None
        with self._lock:
            entry = self._map.get(key)
            if entry is not None and entry[0] == generation:
                self.stats.hits += 1
                self._map.move_to_end(key)
                return True, entry[1]
            self.stats.misses += 1
            if entry is not None:
                del self._map[key]
                self.stats.invalidations += 1
                stale_generation = entry[0]
        if stale_generation is not None and _log.enabled_for("debug"):
            _log.debug(
                "cache_entry_invalidated",
                stale_generation=stale_generation,
                current_generation=generation,
            )
        return False, None

    def put_stamped(self, key: Hashable, generation: int, value: Any) -> None:
        self.put(key, (generation, value))

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry (a stale generation was observed)."""
        with self._lock:
            if key in self._map:
                del self._map[key]
                self.stats.invalidations += 1
                return True
            return False

    def clear(self) -> None:
        with self._lock:
            self._map.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._map)


# -- query-level caches -------------------------------------------------------


def normalize_key(atom_displays: Iterable[str], algorithm: str, semantics: str = "slca"):
    """Canonical cache key for a query: order-insensitive atom set plus the
    requested algorithm and result semantics."""
    return (semantics, algorithm, tuple(sorted(set(atom_displays))))


class QueryCache:
    """Result + plan cache with generation-based invalidation.

    One instance serves one index (or one generation domain); it may be
    shared by any number of :class:`~repro.xksearch.engine.QueryEngine`
    instances and threads.  Entries are ``(generation, value)`` pairs; a
    lookup under a newer generation is a miss and drops the stale entry.
    """

    def __init__(
        self,
        result_capacity: int = DEFAULT_RESULT_CAPACITY,
        plan_capacity: int = DEFAULT_PLAN_CAPACITY,
    ):
        self.results = LRUCache(result_capacity)
        self.plans = LRUCache(plan_capacity)

    # -- results -------------------------------------------------------------

    def lookup_result(self, key: Hashable, generation: int) -> Tuple[bool, Any]:
        return self.results.get_stamped(key, generation)

    def store_result(self, key: Hashable, generation: int, value: Any) -> None:
        self.results.put_stamped(key, generation, value)

    # -- plans ---------------------------------------------------------------

    def lookup_plan(self, key: Hashable, generation: int) -> Tuple[bool, Any]:
        return self.plans.get_stamped(key, generation)

    def store_plan(self, key: Hashable, generation: int, value: Any) -> None:
        self.plans.put_stamped(key, generation, value)

    def clear(self) -> None:
        self.results.clear()
        self.plans.clear()

    def stats(self) -> dict:
        """Nested stats dict (JSON-friendly, for ``/statz`` and benchmarks)."""
        return {
            "results": self.results.stats.as_dict(),
            "plans": self.plans.stats.as_dict(),
            "entries": {"results": len(self.results), "plans": len(self.plans)},
        }
