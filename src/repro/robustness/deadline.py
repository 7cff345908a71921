"""End-to-end request deadlines with cooperative checkpoints.

A :class:`Deadline` is an absolute point on the monotonic clock.  The
serving layer derives one per request (``X-Deadline-Ms`` header,
``?timeout_ms=`` parameter, or ``serve --default-timeout-ms``), binds it
to the handling thread with :func:`bind_deadline`, and everything
downstream — the engine, the algorithm loops, the worker-pool dispatch —
observes it through :func:`current_deadline` without any parameter
threading.

The hot loops (IL/Scan Eager's per-``S1``-entry iteration, the stack
merges) call :func:`checkpoint` once per iteration.  The common case —
no deadline bound — is a single contextvar read; with a deadline bound,
the clock is only consulted every :data:`CHECK_STRIDE` calls, so the
steady-state cost is amortized to a counter increment (this is what
keeps the ``robustness_overhead`` bench phase ≤ 3%).  On expiry the
checkpoint raises :class:`~repro.errors.DeadlineExceeded` carrying the
phase name, which the server turns into a structured 504.

Cross-process propagation: a monotonic clock is process-local, so the
task envelope carries the deadline as an **absolute wall-clock** expiry
(:meth:`Deadline.wall_expiry`); the worker reconstructs the remaining
budget against its own clocks (:meth:`Deadline.from_wall_expiry`).  The
two machines' wall clocks are the same machine here (fork), so the only
skew is the pipe latency the deadline is meant to cover anyway.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.errors import DeadlineExceeded

#: checkpoint() consults the clock once per this many calls.
CHECK_STRIDE = 256

_current: "ContextVar[Optional[Deadline]]" = ContextVar(
    "repro_deadline", default=None
)


class Deadline:
    """An absolute expiry on the monotonic clock, with amortized checks."""

    __slots__ = ("expires_at", "budget_ms", "_ticks")

    def __init__(self, expires_at: float, budget_ms: Optional[float] = None):
        self.expires_at = expires_at
        self.budget_ms = budget_ms
        self._ticks = 0

    @classmethod
    def after_ms(cls, budget_ms: float) -> "Deadline":
        """A deadline *budget_ms* from now."""
        return cls(time.monotonic() + budget_ms / 1000.0, budget_ms=budget_ms)

    @classmethod
    def from_wall_expiry(cls, wall_expiry: float) -> "Deadline":
        """Rebuild a deadline in another process from its wall-clock expiry."""
        remaining = wall_expiry - time.time()
        return cls(time.monotonic() + remaining, budget_ms=remaining * 1000.0)

    def wall_expiry(self) -> float:
        """The expiry as wall-clock epoch seconds (for task envelopes)."""
        return time.time() + self.remaining_s()

    def remaining_s(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def remaining_ms(self) -> float:
        return self.remaining_s() * 1000.0

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, phase: str = "execute") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired():
            raise DeadlineExceeded(
                f"deadline exceeded in {phase} "
                f"(budget {self.budget_ms:.0f} ms)" if self.budget_ms is not None
                else f"deadline exceeded in {phase}",
                phase=phase,
            )

    def tick(self, phase: str) -> None:
        """Amortized check: consult the clock every CHECK_STRIDE calls."""
        self._ticks += 1
        if self._ticks >= CHECK_STRIDE:
            self._ticks = 0
            self.check(phase)

    def __repr__(self) -> str:
        return f"Deadline(remaining_ms={self.remaining_ms():.1f})"


def current_deadline() -> Optional[Deadline]:
    """The deadline bound to this execution context, if any."""
    return _current.get()


@contextmanager
def bind_deadline(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Bind *deadline* for the duration of the block (None = unbind)."""
    token = _current.set(deadline)
    try:
        yield deadline
    finally:
        _current.reset(token)


def checkpoint(phase: str = "execute") -> None:
    """Cooperative cancellation point for hot loops.

    A no-op (one contextvar read) when no deadline is bound; with one
    bound, an amortized clock check that raises
    :class:`~repro.errors.DeadlineExceeded` once the budget is gone.
    """
    deadline = _current.get()
    if deadline is not None:
        deadline.tick(phase)
