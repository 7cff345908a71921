"""Reporting: render experiment sweeps as the paper's tables and series.

Every figure harness prints one table per panel: the x-axis values as rows,
the algorithms as columns, plus a ``stack/il`` ratio column that makes the
paper's "orders of magnitude" claim directly visible.  All output is plain
aligned text so ``bench_output.txt`` reads like the paper's figure data.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.workloads.runner import Measurement

ALGORITHM_LABELS = {"il": "IL", "scan": "Scan", "stack": "Stack"}


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
) -> str:
    """Aligned plain-text table with a title line."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    lines.append("  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt_ms(value: float) -> str:
    if value >= 100:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.3f}"


def sweep_table(
    title: str,
    x_label: str,
    sweep: Dict[int, Dict[str, Measurement]],
    algorithms: Sequence[str] = ("il", "scan", "stack"),
    value: Optional[Callable[[Measurement], float]] = None,
    value_label: str = "ms",
    ratio: bool = True,
) -> str:
    """One figure panel as a table: x → per-algorithm values."""
    value = value or (lambda m: m.total_ms)
    headers = [x_label] + [
        f"{ALGORITHM_LABELS.get(a, a)} ({value_label})" for a in algorithms
    ]
    if ratio and "il" in algorithms and "stack" in algorithms:
        headers.append("stack/il")
    rows: List[List[str]] = []
    for x in sorted(sweep):
        cells = [str(x)]
        by_alg = sweep[x]
        for algorithm in algorithms:
            cells.append(_fmt_ms(value(by_alg[algorithm])))
        if ratio and "il" in algorithms and "stack" in algorithms:
            il_value = value(by_alg["il"])
            stack_value = value(by_alg["stack"])
            cells.append(f"{stack_value / il_value:.1f}x" if il_value > 0 else "inf")
        rows.append(cells)
    return format_table(title, headers, rows)


def sweep_csv(
    x_label: str,
    sweep: Dict[int, Dict[str, Measurement]],
    algorithms: Sequence[str] = ("il", "scan", "stack"),
) -> str:
    """One figure panel as CSV: full measurement detail per algorithm.

    Columns per algorithm: total/wall/modeled-I/O milliseconds, page reads
    (random/sequential split), match operations and results — everything a
    plotting script needs to redraw the paper's figure.
    """
    fields = (
        ("total_ms", lambda m: f"{m.total_ms:.4f}"),
        ("wall_ms", lambda m: f"{m.wall_ms:.4f}"),
        ("io_ms", lambda m: f"{m.modeled_io_ms:.4f}"),
        ("reads", lambda m: str(m.page_reads)),
        ("rand", lambda m: str(m.random_reads)),
        ("seq", lambda m: str(m.sequential_reads)),
        ("match_ops", lambda m: str(m.counters.match_ops)),
        ("results", lambda m: str(m.n_results)),
    )
    header = [x_label.replace(" ", "_")]
    for algorithm in algorithms:
        header.extend(f"{algorithm}_{name}" for name, _ in fields)
    lines = [",".join(header)]
    for x in sorted(sweep):
        row = [str(x)]
        for algorithm in algorithms:
            m = sweep[x][algorithm]
            row.extend(fmt(m) for _, fmt in fields)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def io_table(
    title: str,
    x_label: str,
    sweep: Dict[int, Dict[str, Measurement]],
    algorithms: Sequence[str] = ("il", "scan", "stack"),
) -> str:
    """Page-access breakdown per algorithm (cold-cache evidence)."""
    headers = [x_label]
    for algorithm in algorithms:
        label = ALGORITHM_LABELS.get(algorithm, algorithm)
        headers.extend([f"{label} reads", f"{label} rand", f"{label} seq"])
    rows: List[List[str]] = []
    for x in sorted(sweep):
        cells = [str(x)]
        for algorithm in algorithms:
            m = sweep[x][algorithm]
            cells.extend(
                [str(m.page_reads), str(m.random_reads), str(m.sequential_reads)]
            )
        rows.append(cells)
    return format_table(title, headers, rows)


def band_attribution_table(
    registry=None,
    title: str = "Latency attribution by smallest-list frequency band",
) -> str:
    """Per-{band, algorithm} latency summary from ``xks_query_exec_ms``.

    The paper sweeps the smallest keyword list in decades (Figures 8-13);
    the engine labels its execution histogram the same way, so this table
    reads the live registry and answers "are we slow, or are the queries
    just big?" without re-running a sweep.
    """
    from repro.obs.metrics import get_registry
    from repro.xksearch.engine import FREQUENCY_BANDS

    headers = ["band", "algorithm", "queries", "mean ms", "p50 ms", "p99 ms"]
    registry = registry if registry is not None else get_registry()
    metric = registry.get_metric("xks_query_exec_ms")
    items = getattr(metric, "items", None) if metric is not None else None
    if not callable(items):
        return format_table(title, headers, [])
    band_order = {band: i for i, band in enumerate(FREQUENCY_BANDS)}
    rows: List[List[str]] = []
    entries = sorted(
        items(),
        key=lambda kv: (
            band_order.get(kv[0].get("band", ""), len(band_order)),
            kv[0].get("algorithm", ""),
        ),
    )
    for labels, child in entries:
        count = child.count
        if not count:
            continue
        rows.append(
            [
                labels.get("band", "?"),
                labels.get("algorithm", "?"),
                str(count),
                _fmt_ms(child.sum / count),
                _fmt_ms(child.percentile(0.50)),
                _fmt_ms(child.percentile(0.99)),
            ]
        )
    return format_table(title, headers, rows)


def ops_table(
    title: str,
    x_label: str,
    sweep: Dict[int, Dict[str, Measurement]],
    algorithms: Sequence[str] = ("il", "scan", "stack"),
) -> str:
    """Operation-count breakdown (the Table 1 evidence)."""
    headers = [x_label]
    for algorithm in algorithms:
        label = ALGORITHM_LABELS.get(algorithm, algorithm)
        headers.extend([f"{label} match", f"{label} adv", f"{label} merged"])
    rows: List[List[str]] = []
    for x in sorted(sweep):
        cells = [str(x)]
        for algorithm in algorithms:
            c = sweep[x][algorithm].counters
            cells.extend(
                [str(c.match_ops), str(c.cursor_advances), str(c.nodes_merged)]
            )
        rows.append(cells)
    return format_table(title, headers, rows)
