"""The XKSearch system: query engine, result rendering, collections, CLI."""

from repro.xksearch.cache import CacheStats, LRUCache, QueryCache
from repro.xksearch.collection import CollectionResult, XMLCollection
from repro.xksearch.engine import (
    ExecutionStats,
    QueryEngine,
    QueryPlan,
    normalize_query,
)
from repro.xksearch.engine import QueryAtom, parse_query
from repro.xksearch.parallel import WorkerPool
from repro.xksearch.ranking import RankedResult, rank_results
from repro.xksearch.results import SearchResult, decorate_result
from repro.xksearch.system import XKSearch

__all__ = [
    "CacheStats",
    "CollectionResult",
    "ExecutionStats",
    "LRUCache",
    "QueryCache",
    "QueryEngine",
    "QueryAtom",
    "QueryPlan",
    "RankedResult",
    "SearchResult",
    "WorkerPool",
    "XKSearch",
    "XMLCollection",
    "decorate_result",
    "parse_query",
    "rank_results",
    "normalize_query",
]
