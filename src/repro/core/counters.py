"""Operation counters for the Table 1 reproduction.

The paper analyzes three cost dimensions: main-memory operation counts,
number of ``lm``/``rm`` match operations, and disk accesses.  Physical I/O
is counted by the pager; this module counts the algorithm-level operations:

* ``lm_ops`` / ``rm_ops`` — match operations (IL performs ``O(k·|S1|)``,
  each costing a ``log`` lookup; Scan Eager performs the same number but
  implemented by cursor advances),
* ``cursor_advances`` — individual list steps taken by scan cursors
  (``O(Σ|Si|)`` total for Scan Eager),
* ``cursor_reseeks`` — the rare bounded binary searches a scan cursor falls
  back to when a probe regresses (see DESIGN.md §5.3),
* ``lca_ops`` — lowest-common-ancestor computations (each ``O(d)``),
* ``nodes_merged`` — nodes consumed by the Stack algorithm's sort-merge
  (``Σ|Si|``),
* ``candidates`` / ``results`` — SLCA candidates produced and survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class OpCounters:
    """Mutable operation counters shared across one query execution."""

    lm_ops: int = 0
    rm_ops: int = 0
    cursor_advances: int = 0
    cursor_reseeks: int = 0
    lca_ops: int = 0
    nodes_merged: int = 0
    candidates: int = 0
    results: int = 0

    @property
    def match_ops(self) -> int:
        """Total match operations (lm + rm)."""
        return self.lm_ops + self.rm_ops

    def reset(self) -> None:
        for name in _FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> "OpCounters":
        return OpCounters(**{name: getattr(self, name) for name in _FIELDS})

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    def add(self, other: "OpCounters") -> None:
        """Accumulate *other* into this instance in place."""
        self.lm_ops += other.lm_ops
        self.rm_ops += other.rm_ops
        self.cursor_advances += other.cursor_advances
        self.cursor_reseeks += other.cursor_reseeks
        self.lca_ops += other.lca_ops
        self.nodes_merged += other.nodes_merged
        self.candidates += other.candidates
        self.results += other.results

    def delta(self, before: "OpCounters") -> "OpCounters":
        """Counters accumulated since the *before* snapshot."""
        return OpCounters(
            **{name: getattr(self, name) - getattr(before, name) for name in _FIELDS}
        )

    def __add__(self, other: "OpCounters") -> "OpCounters":
        return OpCounters(
            **{name: getattr(self, name) + getattr(other, name) for name in _FIELDS}
        )


#: Counter names in declaration order, resolved once instead of per call.
_FIELDS = tuple(f.name for f in fields(OpCounters))
