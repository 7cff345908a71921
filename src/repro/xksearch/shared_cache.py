"""Cross-process shared result cache with cost-aware admission.

The per-process :class:`~repro.xksearch.cache.QueryCache` stops paying off
the moment query execution moves to a pool of worker processes: each
process would warm its own private cache over the same skewed workload.
This module keeps one result store in **anonymous shared memory**
(``mmap.mmap(-1, size)``), created before the pool forks so parent and
every worker address the same physical pages, guarded by one
``multiprocessing.Lock``.

Layout — a fixed-size open-addressing hash table:

* a 64-byte header (magic, slot geometry);
* a *request sketch*: ``sketch_slots`` saturating ``u32`` counters keyed
  by key hash.  Every lookup bumps its key's counter, so by store time
  the cache knows how often a key has been *asked for* — the
  ``expected_reuse`` signal;
* ``slot_count`` fixed-size slots, each ``key_hash u64 | generation u64 |
  cost_ms f64 | score f64 | hits u32 | length u32 | payload``.  Payloads
  are pickled ``(key, value)`` pairs; the key rides along so a 64-bit
  hash collision can never serve a wrong answer.

**Admission is cost-aware, not recency-based.**  Plain LRU admits every
miss, so one scan over a long tail of one-off queries evicts the
expensive popular entries the cache exists for.  Here an entry's worth is
``score = cost_ms x max(1, expected_reuse)`` — what it cost to compute
times how often it has been requested — recomputed as ``cost_ms x (1 +
hits)`` as real hits accrue.  A new result lands in an empty probe slot
(``admit``), beats the cheapest incumbent in its probe window
(``evict``), or is turned away (``reject``); results too large for a slot
are ``oversize``.  Each decision increments
``xks_cache_admission_total{decision}`` in the process-local registry.

Generation stamps work exactly like the in-process cache's: a lookup
under a newer index generation is a miss, drops the stale entry, and
counts an invalidation — in *whichever process* observes it first, which
is what keeps invalidation coherent across the pool.
"""

from __future__ import annotations

import hashlib
import mmap
import multiprocessing
import pickle
import struct
from typing import Any, Hashable, Optional, Tuple

from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry, instrumentation_enabled

#: Default slot geometry: 1024 slots x 4 KiB = 4 MiB of shared results.
DEFAULT_SLOT_COUNT = 1024
DEFAULT_SLOT_SIZE = 4096
DEFAULT_SKETCH_SLOTS = 8192

_MAGIC = b"XKSC"
_HEADER = struct.Struct(">4sHxxIII")          # magic, version, slots, slot_size, sketch
_HEADER_SIZE = 64
_SLOT_HEADER = struct.Struct(">QQddII")       # hash, generation, cost_ms, score, hits, length
_SLOT_HEADER_SIZE = _SLOT_HEADER.size
_SKETCH_ENTRY = struct.Struct(">I")
_VERSION = 1
_PROBES = 8
_U32_MAX = 0xFFFFFFFF

ADMISSION_DECISIONS = ("admit", "evict", "reject", "oversize")

_log = get_logger("shared_cache")


def _key_hash(key_bytes: bytes) -> int:
    value = int.from_bytes(
        hashlib.blake2b(key_bytes, digest_size=8).digest(), "big"
    )
    return value or 1  # 0 marks an empty slot


class SharedCacheStats:
    """Per-process view of shared-cache effectiveness.

    The segment itself is shared; these counters are not (each process
    counts what *it* observed).  The serving layer exposes the parent's
    view, which covers every request the server handled.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stores = 0
        self.admissions = {decision: 0 for decision in ADMISSION_DECISIONS}

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
            "admissions": dict(self.admissions),
        }


class SharedResultCache:
    """A result cache living in anonymous shared memory.

    Create it **before** forking the worker pool; the mapping and its
    lock are inherited, so every process reads and writes the same slots.
    Values must be picklable and are treated as immutable (lookups return
    a fresh unpickled copy per call, so cross-process mutation cannot
    occur by construction).
    """

    def __init__(
        self,
        slot_count: int = DEFAULT_SLOT_COUNT,
        slot_size: int = DEFAULT_SLOT_SIZE,
        sketch_slots: int = DEFAULT_SKETCH_SLOTS,
        lock: Optional[Any] = None,
    ):
        if slot_count < 1:
            raise ValueError("slot_count must be at least 1")
        if slot_size <= _SLOT_HEADER_SIZE:
            raise ValueError(f"slot_size must exceed {_SLOT_HEADER_SIZE}")
        self.slot_count = slot_count
        self.slot_size = slot_size
        self.sketch_slots = sketch_slots
        self._sketch_base = _HEADER_SIZE
        self._slots_base = _HEADER_SIZE + sketch_slots * _SKETCH_ENTRY.size
        total = self._slots_base + slot_count * slot_size
        self._map = mmap.mmap(-1, total)
        self._lock = lock if lock is not None else multiprocessing.Lock()
        self.stats = SharedCacheStats()
        _HEADER.pack_into(
            self._map, 0, _MAGIC, _VERSION, slot_count, slot_size, sketch_slots
        )

    # -- layout helpers ------------------------------------------------------

    def _slot_offset(self, index: int) -> int:
        return self._slots_base + index * self.slot_size

    def _probe_indices(self, key_hash: int):
        for i in range(_PROBES):
            yield (key_hash + (i * (i + 1)) // 2) % self.slot_count

    def _read_slot_header(self, offset: int):
        return _SLOT_HEADER.unpack_from(self._map, offset)

    def _payload_capacity(self) -> int:
        return self.slot_size - _SLOT_HEADER_SIZE

    def _clear_slot(self, offset: int) -> None:
        _SLOT_HEADER.pack_into(self._map, offset, 0, 0, 0.0, 0.0, 0, 0)

    # -- request sketch ------------------------------------------------------

    def _sketch_offset(self, key_hash: int) -> int:
        return self._sketch_base + (key_hash % self.sketch_slots) * _SKETCH_ENTRY.size

    def _sketch_bump(self, key_hash: int) -> int:
        offset = self._sketch_offset(key_hash)
        (count,) = _SKETCH_ENTRY.unpack_from(self._map, offset)
        if count < _U32_MAX:
            count += 1
            _SKETCH_ENTRY.pack_into(self._map, offset, count)
        return count

    def _sketch_count(self, key_hash: int) -> int:
        (count,) = _SKETCH_ENTRY.unpack_from(self._map, self._sketch_offset(key_hash))
        return count

    # -- public API ----------------------------------------------------------

    @staticmethod
    def _key_bytes(key: Hashable) -> bytes:
        return repr(key).encode("utf-8")

    def lookup(self, key: Hashable, generation: int) -> Tuple[bool, Any]:
        """``(hit, value)``; bumps the key's request count either way."""
        key_bytes = self._key_bytes(key)
        key_hash = _key_hash(key_bytes)
        with self._lock:
            self._sketch_bump(key_hash)
            for index in self._probe_indices(key_hash):
                offset = self._slot_offset(index)
                slot_hash, slot_gen, cost_ms, _score, hits, length = (
                    self._read_slot_header(offset)
                )
                if slot_hash != key_hash:
                    continue
                if slot_gen != generation:
                    self._clear_slot(offset)
                    self.stats.invalidations += 1
                    break
                start = offset + _SLOT_HEADER_SIZE
                try:
                    stored_key, value = pickle.loads(self._map[start:start + length])
                except Exception:  # a torn or corrupt slot is just a miss
                    self._clear_slot(offset)
                    break
                if stored_key != key:  # 64-bit hash collision
                    continue
                hits += 1
                _SLOT_HEADER.pack_into(
                    self._map, offset, slot_hash, slot_gen, cost_ms,
                    cost_ms * (1 + hits), hits, length,
                )
                self.stats.hits += 1
                return True, value
            self.stats.misses += 1
            return False, None

    def store(self, key: Hashable, generation: int, value: Any, exec_ms: float) -> str:
        """Admit ``key -> value`` if its cost x expected-reuse score earns a
        slot; returns the admission decision (see module docstring)."""
        key_bytes = self._key_bytes(key)
        key_hash = _key_hash(key_bytes)
        payload = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > self._payload_capacity():
            return self._admitted("oversize", key_hash, exec_ms)
        with self._lock:
            expected_reuse = max(1, self._sketch_count(key_hash))
            score = max(exec_ms, 0.001) * expected_reuse
            victim_offset = None
            victim_score = None
            target = None
            for index in self._probe_indices(key_hash):
                offset = self._slot_offset(index)
                slot_hash, _gen, _cost, slot_score, _hits, _length = (
                    self._read_slot_header(offset)
                )
                if slot_hash == key_hash or slot_hash == 0:
                    target = offset  # refresh in place, or take the free slot
                    break
                if victim_score is None or slot_score < victim_score:
                    victim_score = slot_score
                    victim_offset = offset
            if target is not None:
                decision = "admit"
            elif victim_score is not None and score > victim_score:
                target = victim_offset
                decision = "evict"
            else:
                return self._admitted("reject", key_hash, exec_ms)
            _SLOT_HEADER.pack_into(
                self._map, target, key_hash, generation,
                max(exec_ms, 0.001), score, 0, len(payload),
            )
            start = target + _SLOT_HEADER_SIZE
            self._map[start:start + len(payload)] = payload
            self.stats.stores += 1
        return self._admitted(decision, key_hash, exec_ms)

    def _admitted(self, decision: str, key_hash: int, exec_ms: float) -> str:
        self.stats.admissions[decision] += 1
        if instrumentation_enabled():
            get_registry().counter(
                "xks_cache_admission_total",
                "Shared-cache admission decisions (cost-aware policy).",
                labelnames=("decision",),
            ).labels(decision=decision).inc()
        if decision != "admit" and _log.enabled_for("debug"):
            _log.debug(
                "shared_cache_admission",
                decision=decision,
                exec_ms=round(exec_ms, 3),
            )
        return decision

    def clear(self) -> None:
        with self._lock:
            for index in range(self.slot_count):
                self._clear_slot(self._slot_offset(index))

    def __len__(self) -> int:
        """Live entries (a linear scan; stats/debug use only)."""
        with self._lock:
            return sum(
                1
                for index in range(self.slot_count)
                if self._read_slot_header(self._slot_offset(index))[0] != 0
            )

    def stats_dict(self) -> dict:
        out = self.stats.as_dict()
        out["slots"] = self.slot_count
        out["slot_size"] = self.slot_size
        return out

    def close(self) -> None:
        self._map.close()

    def __enter__(self) -> "SharedResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

