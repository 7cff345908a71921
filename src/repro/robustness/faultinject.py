"""Deterministic, seeded fault injection.

Every degradation path in docs/ROBUSTNESS.md has an injection point so
tests and the CI chaos phase exercise it on every run instead of waiting
for real hardware to misbehave.  Faults are **off by default and free
when off**: each site calls :func:`fire`, which is a module-global
``None`` check until a plan is armed.

Activation
----------

``REPRO_FAULTS`` (environment) or ``serve --inject-fault SPEC``
(repeatable; the flag writes the env var before the worker pool forks,
so every worker inherits the same plan).  A plan is a comma-separated
list of specs::

    point[:every=N][:after=N][:times=M][:prob=P][:seed=S][:ms=D]

* ``point`` — one of :data:`POINTS` below;
* ``after=N`` — skip the first N arrivals at the site;
* ``every=N`` — then fire on every Nth arrival (default 1 = always);
* ``times=M`` — fire at most M times total (default unlimited);
* ``prob=P`` — fire with probability P instead of deterministically,
  from a private ``random.Random(seed)`` stream (``seed=S``, default 0)
  so a given plan replays identically;
* ``ms=D`` — site parameter for ``delay-io`` (sleep duration).

Counting is **per process**: a forked worker starts its own arrival
counters, so ``kill-worker:after=2`` kills each worker on its third
task, deterministically, regardless of scheduling in the parent.

Points
------

============== ==============================================================
kill-worker     pool worker calls ``os._exit`` instead of executing a task
delay-io        storage read paths sleep ``ms`` before returning
corrupt-block   a segment posting block's bytes are bit-flipped before decode
fail-export     the trace-file write raises instead of appending the trace
expired-deadline a request's deadline is already expired at admission
============== ==============================================================

Every firing increments ``xks_faults_injected_total{point}``.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Dict, List, Optional

#: Recognized injection points.
POINTS = (
    "kill-worker",
    "delay-io",
    "corrupt-block",
    "fail-export",
    "expired-deadline",
)

ENV_VAR = "REPRO_FAULTS"


class FaultSpec:
    """One armed injection point with its firing schedule."""

    __slots__ = ("point", "every", "after", "times", "prob", "seed", "ms",
                 "arrivals", "fired", "_rng")

    def __init__(
        self,
        point: str,
        every: int = 1,
        after: int = 0,
        times: Optional[int] = None,
        prob: Optional[float] = None,
        seed: int = 0,
        ms: float = 0.0,
    ):
        if point not in POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; expected one of {POINTS}"
            )
        if every < 1:
            raise ValueError("every must be at least 1")
        if after < 0:
            raise ValueError("after must be non-negative")
        if times is not None and times < 1:
            raise ValueError("times must be at least 1")
        if prob is not None and not (0.0 <= prob <= 1.0):
            raise ValueError("prob must be in [0, 1]")
        self.point = point
        self.every = every
        self.after = after
        self.times = times
        self.prob = prob
        self.seed = seed
        self.ms = ms
        self.arrivals = 0
        self.fired = 0
        self._rng = random.Random(seed) if prob is not None else None

    @classmethod
    def parse(cls, spec: str) -> "FaultSpec":
        parts = [part.strip() for part in spec.split(":") if part.strip()]
        if not parts:
            raise ValueError("empty fault spec")
        point, kwargs = parts[0], {}
        for part in parts[1:]:
            if "=" not in part:
                raise ValueError(f"bad fault option {part!r} (expected key=value)")
            key, value = part.split("=", 1)
            if key in ("every", "after", "times", "seed"):
                kwargs[key] = int(value)
            elif key == "prob":
                kwargs[key] = float(value)
            elif key == "ms":
                kwargs[key] = float(value)
            else:
                raise ValueError(f"unknown fault option {key!r}")
        return cls(point, **kwargs)

    def should_fire(self) -> bool:
        """Advance this site's arrival counter and decide (thread-unsafe
        by itself; :class:`FaultPlan` serializes calls)."""
        self.arrivals += 1
        if self.times is not None and self.fired >= self.times:
            return False
        if self.arrivals <= self.after:
            return False
        if self._rng is not None:
            decision = self._rng.random() < self.prob
        else:
            decision = (self.arrivals - self.after - 1) % self.every == 0
        if decision:
            self.fired += 1
        return decision

    def describe(self) -> str:
        opts = []
        if self.after:
            opts.append(f"after={self.after}")
        if self.every != 1:
            opts.append(f"every={self.every}")
        if self.times is not None:
            opts.append(f"times={self.times}")
        if self.prob is not None:
            opts.append(f"prob={self.prob}:seed={self.seed}")
        if self.ms:
            opts.append(f"ms={self.ms:g}")
        return ":".join([self.point] + opts)


class FaultPlan:
    """The set of armed specs for this process (thread-safe)."""

    def __init__(self, specs: List[FaultSpec]):
        self._specs: Dict[str, FaultSpec] = {spec.point: spec for spec in specs}
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = [
            FaultSpec.parse(part)
            for part in text.split(",")
            if part.strip()
        ]
        return cls(specs)

    def fire(self, point: str) -> Optional[FaultSpec]:
        """The spec when *point* fires this arrival, else None."""
        spec = self._specs.get(point)
        if spec is None:
            return None
        with self._lock:
            fired = spec.should_fire()
        if not fired:
            return None
        _count_fired(point)
        return spec

    def spec(self, point: str) -> Optional[FaultSpec]:
        return self._specs.get(point)

    def describe(self) -> str:
        return ",".join(spec.describe() for spec in self._specs.values())


# -- process-global plan ------------------------------------------------------

_plan: Optional[FaultPlan] = None
_plan_loaded = False
_plan_lock = threading.Lock()


def _count_fired(point: str) -> None:
    # Imported here so the metrics registry is only touched when a fault
    # actually fires (and never at import time from the storage layer).
    from repro.obs.metrics import get_registry, instrumentation_enabled

    if instrumentation_enabled():
        get_registry().counter(
            "xks_faults_injected_total",
            "Injected faults fired, by injection point.",
            labelnames=("point",),
        ).labels(point=point).inc()


def get_plan() -> Optional[FaultPlan]:
    """The process's armed plan (parsed from ``REPRO_FAULTS`` once)."""
    global _plan, _plan_loaded
    if not _plan_loaded:
        with _plan_lock:
            if not _plan_loaded:
                text = os.environ.get(ENV_VAR, "")
                _plan = FaultPlan.parse(text) if text.strip() else None
                _plan_loaded = True
    return _plan


def arm(specs: str) -> FaultPlan:
    """Arm a plan directly (used by ``serve --inject-fault`` and tests).

    Also writes ``REPRO_FAULTS`` so processes forked after this call
    inherit the plan and re-parse it with fresh per-process counters.
    """
    global _plan, _plan_loaded
    with _plan_lock:
        os.environ[ENV_VAR] = specs
        _plan = FaultPlan.parse(specs)
        _plan_loaded = True
    return _plan


def reset_plan() -> None:
    """Disarm (tests); also clears the environment hand-off."""
    global _plan, _plan_loaded
    with _plan_lock:
        os.environ.pop(ENV_VAR, None)
        _plan = None
        _plan_loaded = True


def fire(point: str) -> Optional[FaultSpec]:
    """Should *point* fire at this arrival?  None when off (the fast path)."""
    plan = get_plan()
    if plan is None:
        return None
    return plan.fire(point)


def maybe_delay(point: str = "delay-io") -> None:
    """Sleep the spec's ``ms`` when *point* fires (storage read paths)."""
    spec = fire(point)
    if spec is not None and spec.ms > 0:
        import time

        time.sleep(spec.ms / 1000.0)


def corrupt_bytes(data: bytes) -> bytes:
    """Flip one bit near the middle of *data* (the corrupt-block payload)."""
    if not data:
        return data
    out = bytearray(data)
    out[len(out) // 2] ^= 0x40
    return bytes(out)
