"""Thread-safe metrics registry with Prometheus text exposition.

Three metric kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (queries served,
  match operations, page reads);
* :class:`Gauge` — point-in-time values, either set directly or computed
  by a callback at collection time (cache entry counts, hit rates);
* :class:`Histogram` — log-bucketed distributions (latencies).  Buckets
  are geometric (:func:`exponential_buckets`), so relative error is
  bounded by the bucket factor at any scale; :meth:`Histogram.percentile`
  interpolates within a bucket for /statz-style summaries.

All metrics live in a :class:`MetricsRegistry`; the process-global default
is :func:`get_registry`.  Families may carry labels
(``registry.counter("xks_queries_total", labelnames=("algorithm",))``);
``family.labels(algorithm="il").inc()`` resolves the child once and the
hot path afterwards is one lock acquisition plus one addition.

Hot-path cost control: :func:`set_instrumentation_enabled` gates every
``Counter.inc``/``Histogram.observe`` behind a module-level flag, so the
instrumentation overhead can be measured as counters on vs. off.

Components that already keep their own counters (buffer pool, pager,
query cache) are exposed without double-counting via *collectors*:
callables registered with :meth:`MetricsRegistry.register_collector` that
yield :class:`Sample` objects at scrape time.
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

# Module-level instrumentation switch (see module docstring).  Read without
# a lock on every update — a plain attribute load, the cheapest gate Python
# offers; writes are rare (benchmarks, tests).
_enabled = True

#: Update-event tap (cross-process telemetry return-path).  When a capture
#: is active every ``Counter.inc`` / ``Histogram.observe`` on a registry-
#: stamped metric appends a self-describing event tuple here; a pool worker
#: wraps each task in ``start_capture()``/``stop_capture()`` and ships the
#: events back with the result so the parent can replay them into its own
#: registry (:meth:`MetricsRegistry.replay_events`).  ``None`` (the steady
#: state) keeps the hot path at a single global load + identity check.
_tap: Optional[List[tuple]] = None


def start_capture() -> None:
    """Begin capturing metric update events in this process.

    Intended for single-task worker processes (one capture at a time); a
    second ``start_capture`` simply restarts the buffer.
    """
    global _tap
    _tap = []


def stop_capture() -> List[tuple]:
    """Stop capturing and return the events recorded since
    :func:`start_capture` (empty when no capture was active)."""
    global _tap
    events = _tap if _tap is not None else []
    _tap = None
    return events


def set_instrumentation_enabled(flag: bool) -> None:
    """Globally enable/disable counter and histogram updates."""
    global _enabled
    _enabled = bool(flag)


def instrumentation_enabled() -> bool:
    return _enabled


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` geometric bucket upper bounds: start, start*factor, …"""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor ** i for i in range(count))


#: Default latency buckets (milliseconds): 0.05 ms … ~26 s, factor 2.
DEFAULT_LATENCY_BUCKETS_MS = exponential_buckets(0.05, 2.0, 20)


class Sample:
    """One exposition sample, as produced by collectors.

    ``kind`` is the Prometheus type advertised for the metric (``counter``
    or ``gauge``); collectors mirroring a component's monotonically
    increasing stats should say ``counter``.
    """

    __slots__ = ("name", "value", "labels", "kind", "help")

    def __init__(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, str]] = None,
        kind: str = "gauge",
        help: str = "",
    ):
        self.name = name
        self.value = value
        self.labels = labels or {}
        self.kind = kind
        self.help = help


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _format_exemplar(exemplar: Tuple[str, float, float]) -> str:
    """OpenMetrics exemplar suffix: ``# {trace_id="…"} value timestamp``."""
    trace_id, value, ts = exemplar
    return (
        f' # {{trace_id="{_escape_label_value(str(trace_id))}"}} '
        f"{_format_value(value)} {ts:.3f}"
    )


class Counter:
    """Monotonically increasing value (one lock, one addition per update)."""

    __slots__ = ("_lock", "_value", "_ident")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0
        self._ident = None  # (name, labelnames, labelvalues, help) once registered

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        if not _enabled:
            return
        with self._lock:
            self._value += amount
        tap = _tap
        if tap is not None and self._ident is not None:
            name, labelnames, labelvalues, help = self._ident
            tap.append(("c", name, labelnames, labelvalues, help, amount))

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _samples(self, name: str) -> Iterable[Tuple[str, Dict[str, str], float]]:
        yield name, {}, self.value


class Gauge:
    """Point-in-time value: set directly, or computed by a callback."""

    __slots__ = ("_lock", "_value", "_callback", "_ident")

    def __init__(self, callback: Optional[Callable[[], float]] = None):
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback
        self._ident = None  # gauges are point-in-time: stamped but never tapped

    def set(self, value: float) -> None:
        if self._callback is not None:
            raise ValueError("callback gauges cannot be set")
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._callback is not None:
            raise ValueError("callback gauges cannot be set")
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        with self._lock:
            return self._value

    def _samples(self, name: str) -> Iterable[Tuple[str, Dict[str, str], float]]:
        yield name, {}, self.value


class Histogram:
    """Log-bucketed distribution with exact count/sum and cumulative buckets.

    ``counts[i]`` counts observations ``<= bounds[i]`` exclusive of earlier
    buckets; the final slot is the ``+Inf`` overflow (anything strictly
    above the top finite bound, including ``inf``, lands there; ``NaN``
    observations are ignored).  ``observe`` is one ``bisect`` plus three
    additions under one lock, so 8 threads hammering the same histogram
    still produce exact totals (tested).

    **Exemplars**: ``observe(value, trace_id=...)`` additionally records a
    ``(trace_id, value, unix_ts)`` exemplar for the bucket the value lands
    in (latest per bucket wins — the cheapest sampling policy that still
    links every bucket to a recent, replayable trace).  The registry
    renders them in OpenMetrics exemplar syntax on ``/metrics``.
    """

    __slots__ = (
        "_lock", "bounds", "_counts", "_sum", "_count", "_min", "_max",
        "_le_strings", "_exemplars", "_ident",
    )

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate bucket bounds")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._le_strings = tuple(_format_value(b) for b in bounds) + ("+Inf",)
        self._exemplars: Dict[str, Tuple[str, float, float]] = {}
        self._ident = None  # (name, labelnames, labelvalues, help) once registered

    def observe(self, value: float, trace_id: Optional[str] = None) -> None:
        if not _enabled:
            return
        if value != value:  # NaN cannot be bucketed meaningfully
            return
        i = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if trace_id is not None:
                self._exemplars[self._le_strings[i]] = (
                    trace_id, value, time.time()
                )
        tap = _tap
        if tap is not None and self._ident is not None:
            name, labelnames, labelvalues, help = self._ident
            # Bounds ride along so a replaying registry that has never seen
            # this histogram creates it with identical buckets.
            tap.append(
                ("h", name, labelnames, labelvalues, help,
                 self.bounds, value, trace_id)
            )

    def exemplars(self) -> Dict[str, Tuple[str, float, float]]:
        """``le-string → (trace_id, value, unix_ts)``, latest per bucket."""
        with self._lock:
            return dict(self._exemplars)

    def exemplar_for(
        self, sample_name: str, labels: Dict[str, str]
    ) -> Optional[Tuple[str, float, float]]:
        """The exemplar for one exposition sample (``*_bucket`` lines only)."""
        if not sample_name.endswith("_bucket"):
            return None
        le = labels.get("le")
        if le is None:
            return None
        with self._lock:
            return self._exemplars.get(le)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1), interpolated within its bucket.

        The estimate lands in the same bucket as the exact order statistic,
        so the error is bounded by that bucket's width (geometric buckets →
        bounded relative error).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            lo_seen, hi_seen = self._min, self._max
        if total == 0:
            return 0.0
        rank = q * (total - 1) + 1  # 1-based order statistic, interpolated
        cumulative = 0
        for i, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                # Interpolation bounds: the bucket's range clamped to the
                # observed min/max, so the estimate never leaves
                # [min seen, max seen].  (The global min always lives in the
                # lowest non-empty bucket, so `lower = lo_seen` is exact
                # there; elsewhere lo_seen can only tighten the bound.)
                lower = lo_seen if i == 0 else max(self.bounds[i - 1], lo_seen)
                upper = hi_seen if i == len(self.bounds) else min(self.bounds[i], hi_seen)
                if math.isinf(upper):
                    # Observations at +Inf: clamp to the top finite bound.
                    if math.isinf(lower):
                        return self.bounds[-1]
                    return max(lower, self.bounds[-1])
                if upper <= lower:
                    return upper
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * min(1.0, fraction)
            cumulative += bucket_count
        return self.bounds[-1] if math.isinf(hi_seen) else hi_seen

    def summary(self) -> dict:
        """JSON-friendly p50/p90/p99/mean block for /statz-style output."""
        with self._lock:
            total, total_sum = self._count, self._sum
        return {
            "count": total,
            "p50": round(self.percentile(0.50), 3),
            "p90": round(self.percentile(0.90), 3),
            "p99": round(self.percentile(0.99), 3),
            "mean": round(total_sum / total, 3) if total else 0.0,
        }

    def _samples(self, name: str) -> Iterable[Tuple[str, Dict[str, str], float]]:
        with self._lock:
            counts = list(self._counts)
            total, total_sum = self._count, self._sum
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, counts):
            cumulative += bucket_count
            yield f"{name}_bucket", {"le": _format_value(bound)}, cumulative
        yield f"{name}_bucket", {"le": "+Inf"}, total
        yield f"{name}_sum", {}, total_sum
        yield f"{name}_count", {}, total


class _Family:
    """A labeled metric family: one child metric per label-value tuple."""

    def __init__(self, name: str, help: str, kind: str, labelnames: Tuple[str, ...], factory):
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = labelnames
        self._factory = factory
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labelvalues: str):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._factory()
                if hasattr(child, "_ident"):
                    child._ident = (self.name, self.labelnames, key, self.help)
                self._children[key] = child
            return child

    def items(self) -> List[Tuple[Dict[str, str], object]]:
        """``(labels dict, child metric)`` pairs — read-side introspection
        (the band-attribution report walks these)."""
        with self._lock:
            children = list(self._children.items())
        return [(dict(zip(self.labelnames, key)), child) for key, child in children]

    def exemplar_for(self, sample_name: str, labels: Dict[str, str]):
        """Dispatch an exemplar lookup to the child the labels identify."""
        key = tuple(labels.get(n) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
        lookup = getattr(child, "exemplar_for", None)
        return lookup(sample_name, labels) if lookup is not None else None

    def _samples(self, name: str) -> Iterable[Tuple[str, Dict[str, str], float]]:
        with self._lock:
            children = list(self._children.items())
        for key, child in children:
            labels = dict(zip(self.labelnames, key))
            for sample_name, sample_labels, value in child._samples(name):
                merged = dict(labels)
                merged.update(sample_labels)
                yield sample_name, merged, value


class MetricsRegistry:
    """Named metrics plus scrape-time collectors; renders Prometheus text.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name returns the same object, and asking with a conflicting
    kind or label set raises — the registry is the single source of truth
    for what a name means.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: "Dict[str, Tuple[str, object]]" = {}
        self._help: Dict[str, str] = {}
        self._collectors: List[Callable[[], Iterable[Sample]]] = []

    # -- registration --------------------------------------------------------

    def _get_or_create(self, name: str, help: str, kind: str, labelnames, factory):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                existing_kind, metric = existing
                existing_labels = (
                    metric.labelnames if isinstance(metric, _Family) else ()
                )
                if existing_kind != kind or existing_labels != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing_kind} "
                        f"with labels {existing_labels}"
                    )
                return metric
            if labelnames:
                metric = _Family(name, help, kind, labelnames, factory)
            else:
                metric = factory()
                if hasattr(metric, "_ident"):
                    metric._ident = (name, (), (), help)
            self._metrics[name] = (kind, metric)
            self._help[name] = help
            return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self._get_or_create(name, help, "counter", labelnames, Counter)

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ):
        if callback is not None and labelnames:
            raise ValueError("callback gauges cannot be labeled")
        return self._get_or_create(
            name, help, "gauge", labelnames, lambda: Gauge(callback)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ):
        return self._get_or_create(
            name, help, "histogram", labelnames, lambda: Histogram(buckets)
        )

    def register_collector(self, collector: Callable[[], Iterable[Sample]]) -> None:
        """Add a scrape-time sample source (component stats mirrors)."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def unregister_collector(self, collector: Callable[[], Iterable[Sample]]) -> None:
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)

    # -- cross-process replay ------------------------------------------------

    def replay_events(self, events: Iterable[tuple]) -> int:
        """Re-apply captured update events from another process's registry.

        Each event is self-describing (name, labelnames, labelvalues, help —
        histograms additionally carry their bucket bounds and the exemplar
        trace id), so replay is get-or-create: families the parent never
        registered are created with the worker's exact shape, families that
        already exist are simply incremented.  Malformed or conflicting
        events are skipped, never raised — the serving path must not fail
        on telemetry.  Returns the number of events applied.
        """
        applied = 0
        for event in events:
            try:
                kind = event[0]
                if kind == "c":
                    _, name, labelnames, labelvalues, help, amount = event
                    labelnames = tuple(labelnames)
                    metric = self.counter(name, help, labelnames=labelnames)
                    if labelnames:
                        metric = metric.labels(**dict(zip(labelnames, labelvalues)))
                    metric.inc(amount)
                elif kind == "h":
                    (_, name, labelnames, labelvalues, help,
                     bounds, value, trace_id) = event
                    labelnames = tuple(labelnames)
                    metric = self.histogram(
                        name, help, labelnames=labelnames, buckets=tuple(bounds)
                    )
                    if labelnames:
                        metric = metric.labels(**dict(zip(labelnames, labelvalues)))
                    metric.observe(value, trace_id=trace_id)
                else:
                    continue
                applied += 1
            except (ValueError, TypeError):
                continue
        return applied

    def reset(self) -> None:
        """Drop every metric and collector (tests and benchmarks only)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()
            self._help.clear()

    def get_metric(self, name: str):
        """The registered metric object (or family) for *name*, else None."""
        with self._lock:
            entry = self._metrics.get(name)
            return entry[1] if entry is not None else None

    def collect(self) -> List[Sample]:
        """Every current sample — registered metrics plus collector output.

        The flat-snapshot twin of :meth:`render`.
        """
        with self._lock:
            metrics = list(self._metrics.items())
            collectors = list(self._collectors)
        samples: List[Sample] = []
        for name, (kind, metric) in sorted(metrics):
            for sample_name, labels, value in metric._samples(name):
                samples.append(Sample(sample_name, value, dict(labels), kind=kind))
        for collector in collectors:
            samples.extend(collector())
        return samples

    # -- exposition ----------------------------------------------------------

    def render(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4),
        with OpenMetrics exemplar suffixes on histogram bucket lines that
        have one (see :meth:`Histogram.observe`)."""
        with self._lock:
            metrics = list(self._metrics.items())
            collectors = list(self._collectors)
            helps = dict(self._help)
        lines: List[str] = []
        for name, (kind, metric) in sorted(metrics):
            help_text = helps.get(name, "")
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            exemplar_for = getattr(metric, "exemplar_for", None)
            for sample_name, labels, value in metric._samples(name):
                line = f"{sample_name}{_format_labels(labels)} {_format_value(value)}"
                if exemplar_for is not None:
                    exemplar = exemplar_for(sample_name, labels)
                    if exemplar is not None:
                        line += _format_exemplar(exemplar)
                lines.append(line)
        # Samples of one name must be contiguous in the exposition, so
        # collector output is buffered and grouped before rendering.
        grouped: "Dict[str, Tuple[str, str, List[Sample]]]" = {}
        for collector in collectors:
            for sample in collector():
                if sample.name in helps:
                    raise ValueError(
                        f"collector sample {sample.name!r} collides with a "
                        f"registered metric"
                    )
                entry = grouped.get(sample.name)
                if entry is None:
                    grouped[sample.name] = (sample.kind, sample.help, [sample])
                else:
                    entry[2].append(sample)
        for name, (kind, help_text, samples) in grouped.items():
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            for sample in samples:
                lines.append(
                    f"{sample.name}{_format_labels(sample.labels)} "
                    f"{_format_value(sample.value)}"
                )
        return "\n".join(lines) + "\n"


#: The process-global default registry — what ``GET /metrics`` exposes.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
