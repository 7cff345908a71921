"""Continuous profiling: sampler, folded stacks, kill switch."""

import threading
import time

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    set_instrumentation_enabled,
)
from repro.obs.profiling import (
    OVERFLOW_STACK,
    SamplingProfiler,
    _fold_stack,
    render_folded,
)


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestFolding:
    def test_fold_stack_root_first(self):
        import sys

        frame = sys._current_frames()[threading.get_ident()]
        folded = _fold_stack(frame, max_depth=48)
        parts = folded.split(";")
        # The leaf (this test function) is last, the interpreter entry
        # point first — root-first is what flamegraph.pl expects.
        assert "test_fold_stack_root_first" in parts[-1]
        assert all(":" in part for part in parts)

    def test_max_depth_truncates(self):
        import sys

        frame = sys._current_frames()[threading.get_ident()]
        folded = _fold_stack(frame, max_depth=2)
        assert len(folded.split(";")) == 2

    def test_render_folded_hottest_first(self):
        text = render_folded({"cold;path": 1, "hot;path": 9, "zero": 0})
        lines = text.splitlines()
        assert lines[0] == "hot;path 9"
        assert lines[1] == "cold;path 1"
        assert "zero" not in text
        assert text.endswith("\n")

    def test_render_folded_empty(self):
        assert render_folded({}) == ""


class TestSamplingProfiler:
    def test_samples_accumulate_and_counter_tracks(self):
        registry = MetricsRegistry()
        profiler = SamplingProfiler(hz=200.0, registry=registry).start()
        try:
            assert profiler.running
            assert wait_until(lambda: profiler.totals()["samples"] >= 5)
            stacks = profiler.snapshot()
            assert stacks  # at least this test thread was sampled
            assert sum(stacks.values()) == profiler.totals()["samples"]
            metric = registry.get_metric("xks_profile_samples_total")
            assert metric.value == profiler.totals()["samples"]
        finally:
            profiler.close()
        assert not profiler.running

    def test_kill_switch_skips_ticks(self):
        registry = MetricsRegistry()
        profiler = SamplingProfiler(hz=200.0, registry=registry).start()
        try:
            assert wait_until(lambda: profiler.totals()["ticks"] >= 2)
            set_instrumentation_enabled(False)
            try:
                assert wait_until(
                    lambda: profiler.totals()["skipped_ticks"] >= 2
                )
                before = profiler.totals()["samples"]
                time.sleep(0.05)
                assert profiler.totals()["samples"] == before
            finally:
                set_instrumentation_enabled(True)
            # Re-enabled: sampling resumes without a restart.
            resumed = profiler.totals()["samples"]
            assert wait_until(lambda: profiler.totals()["samples"] > resumed)
        finally:
            profiler.close()

    def test_collect_window_diffs(self):
        registry = MetricsRegistry()
        profiler = SamplingProfiler(hz=200.0, registry=registry).start()
        try:
            assert wait_until(lambda: profiler.totals()["samples"] >= 1)
            window = profiler.collect_window(0.1)
            assert window
            assert sum(window.values()) <= profiler.totals()["samples"]
        finally:
            profiler.close()

    def test_collect_window_not_running(self):
        profiler = SamplingProfiler(hz=10.0, registry=MetricsRegistry())
        assert profiler.collect_window(0.01) == {}

    def test_max_stacks_overflow(self):
        registry = MetricsRegistry()
        profiler = SamplingProfiler(hz=10.0, max_stacks=1, registry=registry)
        # Drive _sample_once directly (no thread) with synthetic pressure:
        # first stack claims the only slot, every new one overflows.
        profiler._counts["existing;stack"] = 1
        own = -1  # keep every real thread
        taken = profiler._sample_once(own)
        assert taken >= 1
        stacks = profiler.snapshot()
        assert set(stacks) == {"existing;stack", OVERFLOW_STACK}

    def test_bad_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0.0)
