"""Command-line interface: ``xksearch build|search|stats``.

Examples::

    xksearch build school.xml school.index
    xksearch search school.index "John Ben"
    xksearch search school.index --algorithm stack --lca "John Ben"
    xksearch stats school.index
    xksearch fsck school.index
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.errors import ReproError
from repro.index.builder import build_index, load_manifest
from repro.xksearch.engine import ExecutionStats
from repro.xksearch.system import XKSearch
from repro.xmltree.parser import parse_file


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _cmd_build(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tree = parse_file(args.document)
    report = build_index(
        tree,
        args.index_dir,
        page_size=args.page_size,
        codec=args.codec,
        keep_document=not args.no_document,
    )
    elapsed = time.perf_counter() - started
    print(f"indexed {report.postings} postings for {report.keywords} keywords")
    print(
        f"{report.pages} pages of {report.page_size} B "
        f"({report.bytes_on_disk / 1024:.1f} KiB), codec={report.codec}, "
        f"B+tree heights il={report.il_height} scan={report.scan_height}"
    )
    print(f"build time: {elapsed:.2f}s")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    with XKSearch.open(args.index_dir, load_document=not args.ids_only) as system:
        if args.explain:
            return _search_explain(system, args)
        plan = system.explain(args.query, algorithm=args.algorithm)
        stats = ExecutionStats()
        started = time.perf_counter()
        if args.lca:
            results = system.search_all_lcas(args.query, stats=stats)
            kind = "LCA"
        elif args.elca:
            results = system.search_elcas(args.query, stats=stats)
            kind = "ELCA"
        else:
            results = system.search(args.query, algorithm=args.algorithm, limit=args.limit)
            kind = "SLCA"
        elapsed = (time.perf_counter() - started) * 1000
        print(
            f"plan: algorithm={plan.algorithm} keywords={plan.keywords} "
            f"frequencies={plan.frequencies}"
        )
        print(f"{len(results)} {kind} answer(s) in {elapsed:.2f} ms")
        for result in results:
            print(f"--- {result}")
            if result.snippet and not args.ids_only:
                print(result.snippet.rstrip())
    return 0


def _search_explain(system: XKSearch, args: argparse.Namespace) -> int:
    """EXPLAIN mode: run the query profiled, print the JSON breakdown.

    The answer is computed by the same engine path as a plain search (the
    breakdown is the query's cost record, ``stats``), so the printed ids
    are byte-identical to what the non-explain search returns.
    """
    import json

    stats = ExecutionStats()
    ids = list(
        system.search_ids(
            args.query, algorithm=args.algorithm, stats=stats, profile=True
        )
    )
    if args.limit is not None:
        ids = ids[: args.limit]
    dotted = [".".join(map(str, dewey)) for dewey in ids]
    print(f"{len(dotted)} SLCA answer(s): {dotted}")
    print(json.dumps(stats.as_dict(), indent=2))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.index_dir)
    print(f"index format version: {manifest['version']}")
    print(f"codec: {manifest['codec']}, page size: {manifest['page_size']} B")
    print(f"keywords: {manifest['keywords']}, postings: {manifest['postings']}")
    print(f"document stored: {'yes' if manifest.get('has_document') else 'no'}")
    if args.top:
        with XKSearch.open(args.index_dir, load_document=False) as system:
            pairs = sorted(
                system.index.frequency_table.items(), key=lambda kv: -kv[1]
            )[: args.top]
            print(f"top {len(pairs)} keywords by frequency:")
            for keyword, freq in pairs:
                print(f"  {keyword:24s} {freq}")
    return 0


def _cmd_group(args: argparse.Namespace) -> int:
    from repro.xmltree.dblp import group_by_venue_year
    from repro.xmltree.serialize import serialize

    flat = parse_file(args.document)
    grouped = group_by_venue_year(flat)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize(grouped.root))
    venues = len(grouped.root.children)
    print(
        f"grouped {len(flat)}-node flat file into {len(grouped)} nodes "
        f"({venues} venues, depth {grouped.depth}) -> {args.output}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.index.verify import verify_index

    report = verify_index(args.index_dir)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.xmltree.docstats import analyze, format_stats

    tree = parse_file(args.document)
    print(format_stats(analyze(tree, top=args.top)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.xksearch.server import serve

    serve(
        args.index_dir,
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        cache_size=args.cache_size,
        slow_ms=args.slow_ms,
        trace_sample=args.trace_sample,
        export_jsonl=args.export_jsonl,
        log_json=args.log_json,
        log_level=args.log_level,
        workers_proc=args.workers_proc,
        use_segments=not args.no_segments,
        profile_hz=args.profile_hz,
        default_timeout_ms=args.default_timeout_ms,
        verify_checksums=args.verify_checksums,
        admission_soft=args.admission_soft,
        admission_hard=args.admission_hard,
        p99_watermark_ms=args.p99_watermark_ms,
        inject_faults=args.inject_fault or None,
        drain_timeout_s=args.drain_timeout_s,
    )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Deep integrity check: structure + every stored checksum."""
    from repro.index.verify import fsck_index

    report = fsck_index(args.index_dir)
    print(report.summary())
    return 0 if report.ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xksearch",
        description="Keyword search for smallest LCAs in XML documents (SIGMOD 2005).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="index an XML document")
    p_build.add_argument("document", help="path to the XML document")
    p_build.add_argument("index_dir", help="directory to create the index in")
    p_build.add_argument("--page-size", type=int, default=4096)
    p_build.add_argument("--codec", choices=("packed", "varint"), default="packed")
    p_build.add_argument(
        "--no-document",
        action="store_true",
        help="do not store the document (results will be bare Dewey ids)",
    )
    p_build.set_defaults(func=_cmd_build)

    p_search = sub.add_parser("search", help="run a keyword query")
    p_search.add_argument("index_dir")
    p_search.add_argument("query", help="keywords, e.g. \"John Ben\"")
    p_search.add_argument(
        "--algorithm", choices=("auto", "il", "scan", "stack"), default="auto"
    )
    p_search.add_argument("--limit", type=_non_negative_int, default=None)
    p_search.add_argument(
        "--lca", action="store_true", help="return all LCAs instead of SLCAs"
    )
    p_search.add_argument(
        "--elca",
        action="store_true",
        help="return Exclusive LCAs (XRANK semantics) instead of SLCAs",
    )
    p_search.add_argument(
        "--ids-only", action="store_true", help="print Dewey ids without snippets"
    )
    p_search.add_argument(
        "--explain",
        action="store_true",
        help="print a per-phase timing/op-count/I-O breakdown as JSON",
    )
    p_search.set_defaults(func=_cmd_search)

    p_stats = sub.add_parser("stats", help="show index statistics")
    p_stats.add_argument("index_dir")
    p_stats.add_argument("--top", type=int, default=0, help="show N most frequent keywords")
    p_stats.set_defaults(func=_cmd_stats)

    p_group = sub.add_parser(
        "group", help="apply the paper's DBLP preprocessing to a flat file"
    )
    p_group.add_argument("document", help="flat DBLP-style XML input")
    p_group.add_argument("output", help="path for the grouped document")
    p_group.set_defaults(func=_cmd_group)

    p_verify = sub.add_parser("verify", help="check an index's integrity")
    p_verify.add_argument("index_dir")
    p_verify.set_defaults(func=_cmd_verify)

    p_analyze = sub.add_parser("analyze", help="profile a document before indexing")
    p_analyze.add_argument("document", help="path to the XML document")
    p_analyze.add_argument("--top", type=int, default=10, help="top keywords to list")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_serve = sub.add_parser("serve", help="run the web demo over an index")
    p_serve.add_argument("index_dir")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--workers",
        type=int,
        default=8,
        help="cap on concurrently executing requests (default 8)",
    )
    p_serve.add_argument(
        "--workers-proc",
        type=int,
        default=0,
        metavar="N",
        help="execute cache-miss queries in N forked worker processes over "
        "mmap'd indexes (0 = in-thread; falls back in-thread if fork is "
        "unavailable)",
    )
    p_serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="result-cache capacity in entries; 0 disables caching",
    )
    p_serve.add_argument(
        "--slow-ms",
        type=float,
        default=100.0,
        help="latency threshold for the /debug/slow log (default 100 ms)",
    )
    p_serve.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        help="fraction of requests to span-trace (0.0 = only forced traces)",
    )
    p_serve.add_argument(
        "--export-jsonl",
        default=None,
        metavar="FILE",
        help="append finished request traces to FILE as JSON lines",
    )
    p_serve.add_argument(
        "--no-segments",
        action="store_true",
        help="disable the packed posting-segment fast path; every keyword "
        "lookup descends the B+tree (answers are byte-identical)",
    )
    p_serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs to stderr (one object per line)",
    )
    p_serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="log level (default: REPRO_LOG_LEVEL, else info)",
    )
    p_serve.add_argument(
        "--profile-hz",
        type=float,
        default=0.0,
        metavar="HZ",
        help="sample thread stacks HZ times per second in the parent "
        "process; folded flamegraph stacks at GET /debug/pprof "
        "(0 = off)",
    )
    p_serve.add_argument(
        "--default-timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help="deadline every search request that does not carry its own "
        "X-Deadline-Ms / ?timeout_ms= budget; expiry answers 504",
    )
    p_serve.add_argument(
        "--verify-checksums",
        action="store_true",
        help="re-checksum every B+tree page and posting block read (in "
        "this process and every pool worker); a corrupt segment block "
        "quarantines the segment and re-answers from the B+tree tier",
    )
    p_serve.add_argument(
        "--admission-soft",
        type=int,
        default=None,
        metavar="N",
        help="in-flight depth past which expensive-|S1|-band queries are "
        "shed with 429 (default 2*workers)",
    )
    p_serve.add_argument(
        "--admission-hard",
        type=int,
        default=None,
        metavar="N",
        help="in-flight depth past which every search request is shed "
        "(default 4*workers)",
    )
    p_serve.add_argument(
        "--p99-watermark-ms",
        type=float,
        default=None,
        metavar="MS",
        help="shed expensive-band queries while the recent-window p99 "
        "exceeds MS (default: off)",
    )
    p_serve.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="arm a fault-injection spec (repeatable), e.g. "
        "'kill-worker:after=2:times=1' or 'delay-io:every=10:ms=50'; "
        "armed before the pool forks so workers inherit it "
        "(see docs/ROBUSTNESS.md)",
    )
    p_serve.add_argument(
        "--drain-timeout-s",
        type=float,
        default=5.0,
        metavar="SECS",
        help="on SIGTERM, wait up to SECS for in-flight requests before "
        "closing the trace file and the pool (default 5)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_fsck = sub.add_parser(
        "fsck",
        help="deep integrity check: structure plus every stored checksum",
    )
    p_fsck.add_argument("index_dir")
    p_fsck.set_defaults(func=_cmd_fsck)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
