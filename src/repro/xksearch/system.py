"""The XKSearch facade — the system of Section 4, end to end.

Typical library use::

    from repro.xksearch import XKSearch

    system = XKSearch.build("school.xml", "school.index")   # build once
    system = XKSearch.open("school.index")                  # reopen later
    for result in system.search("John Ben"):
        print(result.id, result.path)
        print(result.snippet)

``search`` accepts free query text (tokenized exactly like document
labels), plans with the frequency table, runs one of the three algorithms
and returns decorated results.  ``search_in_tree`` is the no-disk variant
working over a parsed tree held in memory.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Union

from repro.index.builder import build_index
from repro.index.inverted import DiskKeywordIndex
from repro.index.memory import MemoryKeywordIndex
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.xksearch.cache import QueryCache
from repro.xksearch.engine import ExecutionStats, QueryEngine, QueryPlan
from repro.xksearch.results import SearchResult, decorate_result
from repro.xmltree.dewey import DeweyTuple
from repro.xmltree.parser import parse_file
from repro.xmltree.tree import XMLTree


def _check_limit(limit: Optional[int]) -> None:
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")


class XKSearch:
    """Keyword search for smallest LCAs over one XML document."""

    def __init__(
        self,
        index: Union[DiskKeywordIndex, MemoryKeywordIndex],
        tree: Optional[XMLTree] = None,
        skew_threshold: float = 10.0,
        cache: Optional[QueryCache] = None,
    ):
        self.index = index
        self.tree = tree
        self.engine = QueryEngine(index, skew_threshold=skew_threshold, cache=cache)
        self._keyword_postings = (
            tree.keyword_postings() if tree is not None else None
        )

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        document: Union[str, os.PathLike, XMLTree],
        index_dir: Union[str, os.PathLike],
        page_size: int = DEFAULT_PAGE_SIZE,
        codec: str = "packed",
        keep_document: bool = True,
    ) -> "XKSearch":
        """Parse (if needed) and index a document, then open the system."""
        tree = document if isinstance(document, XMLTree) else parse_file(document)
        build_index(
            tree,
            index_dir,
            page_size=page_size,
            codec=codec,
            keep_document=keep_document,
        )
        return cls(DiskKeywordIndex(index_dir), tree=tree)

    @classmethod
    def open(
        cls,
        index_dir: Union[str, os.PathLike],
        load_document: bool = True,
        pool_capacity: int = 4096,
        cache: Optional[QueryCache] = None,
        mmap_mode: bool = False,
        use_segments: bool = True,
        verify_checksums: bool = False,
    ) -> "XKSearch":
        """Open an existing index directory.

        With ``load_document`` (and a stored document) results carry paths
        and snippets; otherwise they are bare Dewey numbers.  Pass a
        :class:`QueryCache` to memoize repeated queries (the serving path
        does; see docs/PERFORMANCE.md).  ``mmap_mode`` opens the index
        read-only over a shared memory map (what pool workers use);
        ``use_segments=False`` forces every read onto the B+tree tier
        (byte-identical answers, used by A/B checks and benchmarks);
        ``verify_checksums`` re-checksums every page and posting block
        read (see docs/ROBUSTNESS.md).
        """
        index = DiskKeywordIndex(
            index_dir,
            pool_capacity=pool_capacity,
            mmap_mode=mmap_mode,
            use_segments=use_segments,
            verify_checksums=verify_checksums,
        )
        tree = None
        if load_document:
            path = index.document_path()
            if path is not None:
                tree = parse_file(path)
        return cls(index, tree=tree, cache=cache)

    @classmethod
    def from_tree(cls, tree: XMLTree) -> "XKSearch":
        """Disk-free system over a parsed tree (in-memory index)."""
        return cls(MemoryKeywordIndex.from_tree(tree), tree=tree)

    # -- queries ----------------------------------------------------------------

    def search(
        self,
        query: Union[str, Sequence[str]],
        algorithm: str = "auto",
        limit: Optional[int] = None,
    ) -> List[SearchResult]:
        """SLCAs of the query as decorated results (document order),
        at most *limit* of them."""
        _check_limit(limit)
        ids = self.search_ids(query, algorithm=algorithm)
        return [self._decorate(dewey, query) for dewey in islice(ids, limit)]

    def search_ids(
        self,
        query: Union[str, Sequence[str]],
        algorithm: str = "auto",
        stats: Optional[ExecutionStats] = None,
        profile: bool = False,
    ) -> Iterator[DeweyTuple]:
        """SLCAs as raw Dewey tuples, streamed (the pipelined answer).

        ``stats`` receives the query's cost record; with ``profile=True``
        (EXPLAIN mode) the run is materialized and the record also gets the
        plan summary and I/O attribution.  The answer is byte-identical.
        """
        return self.engine.execute(
            query, algorithm=algorithm, stats=stats, profile=profile
        )

    def storage_stats(self) -> Optional[dict]:
        """Buffer-pool/pager/B+tree stats (None for in-memory indexes)."""
        stats = getattr(self.index, "stats", None)
        return stats() if callable(stats) else None

    def search_all_lcas(
        self,
        query: Union[str, Sequence[str]],
        stats: Optional[ExecutionStats] = None,
    ) -> List[SearchResult]:
        """Every LCA (Section 5), sorted in document order."""
        ids = sorted(self.engine.execute_all_lca(query, stats=stats))
        return [self._decorate(dewey, query) for dewey in ids]

    def search_ranked(
        self,
        query: Union[str, Sequence[str]],
        algorithm: str = "auto",
        limit: Optional[int] = None,
    ) -> List["RankedResult"]:
        """SLCAs ordered best-first by the specificity ranking.

        Requires the document to be loaded (witness features need it);
        falls back to depth-only ranking otherwise.
        """
        from repro.xksearch.ranking import rank_results

        _check_limit(limit)
        results = self.search(query, algorithm=algorithm)
        ranked = rank_results(results)
        return ranked[:limit] if limit is not None else ranked

    def search_elcas(
        self,
        query: Union[str, Sequence[str]],
        stats: Optional[ExecutionStats] = None,
    ) -> List[SearchResult]:
        """Exclusive LCAs (XRANK semantics), sorted in document order.

        SLCA ⊆ ELCA ⊆ LCA: an ELCA additionally keeps ancestors that have
        their own keyword occurrences not swallowed by a satisfied
        descendant.
        """
        ids = sorted(self.engine.execute_elca(query, stats=stats))
        return [self._decorate(dewey, query) for dewey in ids]

    def explain(self, query: Union[str, Sequence[str]], algorithm: str = "auto") -> QueryPlan:
        """The engine's plan for a query, without executing it."""
        return self.engine.plan(query, algorithm=algorithm)

    def _decorate(self, dewey: DeweyTuple, query: Union[str, Sequence[str]]) -> SearchResult:
        from repro.xksearch.engine import parse_query

        atoms = parse_query(query)
        witness_lists = None
        if self._keyword_postings is not None:
            witness_lists = {}
            for atom in atoms:
                postings = self._keyword_postings.get(atom.keyword, [])
                witness_lists[atom.display] = [
                    d for d, tag in postings if atom.tag is None or tag == atom.tag
                ]
        return decorate_result(
            dewey,
            self.tree,
            keywords=[atom.display for atom in atoms],
            keyword_lists=witness_lists,
        )

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        if isinstance(self.index, DiskKeywordIndex):
            self.index.close()

    def __enter__(self) -> "XKSearch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
