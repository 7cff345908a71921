"""The generation registry: one mutation counter per index directory.

One monotonically increasing counter per index directory, shared by every
reader and writer in the process.  Writers
(:class:`~repro.index.updates.IndexUpdater`) bump it on mutation; cached
entries remember the generation they were computed under and are treated
as misses (and dropped) once the counters diverge.  The counter is also
persisted in the index manifest so that a new process starts from the
latest value rather than from zero.
"""

from __future__ import annotations

import os
import threading

_generation_lock = threading.Lock()
_generations: dict = {}


def _generation_key(index_dir) -> str:
    return os.path.realpath(os.fspath(index_dir))


def current_generation(index_dir) -> int:
    """The index directory's current generation (0 if never seen)."""
    with _generation_lock:
        return _generations.get(_generation_key(index_dir), 0)


def bump_generation(index_dir) -> int:
    """Record one mutation of the index directory; returns the new value."""
    key = _generation_key(index_dir)
    with _generation_lock:
        _generations[key] = _generations.get(key, 0) + 1
        return _generations[key]


def seed_generation(index_dir, generation: int) -> int:
    """Merge a persisted generation (from the manifest) into the registry.

    Max-merge, so an already-bumped in-process counter never goes
    backwards; returns the effective value.
    """
    key = _generation_key(index_dir)
    with _generation_lock:
        _generations[key] = max(_generations.get(key, 0), int(generation))
        return _generations[key]
