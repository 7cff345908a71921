"""Continuous profiling: thread-sampling CPU profiles.

:class:`SamplingProfiler` is cheap enough to run in production and sees
the serving process only, never the pool workers: a daemon thread wakes
``hz`` times per second, walks ``sys._current_frames()`` and folds each
thread's stack into the standard flamegraph *collapsed* format
(``root;caller;callee count``).  Counts are cumulative; a trailing window
is just two snapshots diffed, which is what ``GET /debug/pprof?seconds=N``
serves.  Every tick honors the instrumentation kill switch, so
``set_instrumentation_enabled(False)`` stops the cost without tearing the
thread down.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, get_registry, instrumentation_enabled

#: Default sampling frequency (samples per second per thread).
DEFAULT_HZ = 25.0
#: Default cap on distinct folded stacks retained (overflow folds into one).
DEFAULT_MAX_STACKS = 4096
#: Default cap on frames walked per stack.
DEFAULT_MAX_DEPTH = 48
#: Bucket that absorbs samples once ``max_stacks`` distinct stacks exist.
OVERFLOW_STACK = "_overflow_"


def _fold_stack(frame, max_depth: int) -> str:
    """One thread's stack as ``root;...;leaf`` (file:function per frame)."""
    parts: List[str] = []
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        filename = code.co_filename.rsplit("/", 1)[-1]
        parts.append(f"{filename}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    parts.reverse()
    return ";".join(parts) if parts else "(empty)"


def render_folded(counts: Dict[str, int]) -> str:
    """Collapsed flamegraph text: one ``stack count`` line, hottest first
    (feed straight to ``flamegraph.pl`` or speedscope)."""
    lines = [
        f"{stack} {count}"
        for stack, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if count > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


class SamplingProfiler:
    """Wall-clock thread sampler producing folded flamegraph stacks.

    One daemon thread, no signals (signal-based profilers and
    ``ThreadingHTTPServer`` don't mix), no per-sample allocations beyond
    the folded string.  ``snapshot()`` returns cumulative counts;
    ``collect_window(seconds)`` blocks and returns only the samples taken
    inside the window.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        max_depth: int = DEFAULT_MAX_DEPTH,
        max_stacks: int = DEFAULT_MAX_STACKS,
        registry: Optional[MetricsRegistry] = None,
    ):
        if hz <= 0:
            raise ValueError("hz must be positive")
        if max_depth < 1 or max_stacks < 1:
            raise ValueError("max_depth and max_stacks must be at least 1")
        self.hz = float(hz)
        self.max_depth = int(max_depth)
        self.max_stacks = int(max_stacks)
        self._interval = 1.0 / self.hz
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._samples = 0
        self._ticks = 0
        self._skipped_ticks = 0  # kill switch was off
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._samples_counter = (
            registry if registry is not None else get_registry()
        ).counter(
            "xks_profile_samples_total",
            "Stack samples taken by the in-process sampling profiler.",
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="xks-profiler", daemon=True
            )
            self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def close(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    # -- sampling loop -------------------------------------------------------

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self._interval):
            if not instrumentation_enabled():
                with self._lock:
                    self._skipped_ticks += 1
                continue
            self._sample_once(own_id)

    def _sample_once(self, own_id: int) -> int:
        """Take one sample of every live thread (except the profiler's own);
        returns how many stacks were recorded."""
        frames = sys._current_frames()
        taken = 0
        with self._lock:
            self._ticks += 1
            for thread_id, frame in frames.items():
                if thread_id == own_id:
                    continue
                stack = _fold_stack(frame, self.max_depth)
                if stack not in self._counts and len(self._counts) >= self.max_stacks:
                    stack = OVERFLOW_STACK
                self._counts[stack] = self._counts.get(stack, 0) + 1
                self._samples += 1
                taken += 1
        if taken:
            self._samples_counter.inc(taken)
        return taken

    # -- read side -----------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Cumulative folded-stack counts since start."""
        with self._lock:
            return dict(self._counts)

    def totals(self) -> dict:
        with self._lock:
            return {
                "running": self.running,
                "hz": self.hz,
                "samples": self._samples,
                "ticks": self._ticks,
                "skipped_ticks": self._skipped_ticks,
                "distinct_stacks": len(self._counts),
            }

    def collect_window(self, seconds: float) -> Dict[str, int]:
        """Folded counts for samples taken during the next *seconds*
        (blocks the calling thread; the sampler keeps running)."""
        if not self.running or seconds <= 0:
            return {}
        before = self.snapshot()
        time.sleep(seconds)
        after = self.snapshot()
        window: Dict[str, int] = {}
        for stack, count in after.items():
            delta = count - before.get(stack, 0)
            if delta > 0:
                window[stack] = delta
        return window

