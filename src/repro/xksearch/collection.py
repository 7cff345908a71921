"""Keyword search over a *collection* of XML documents.

The paper (and its demo) search one document; real deployments hold many.
This extension models a collection as a forest grafted under a synthetic
``collection`` root: document ``i`` becomes child ``i`` of the root, every
Dewey number gains the document ordinal as its second component, and the
single-document machinery — index, algorithms, engine — runs unchanged.

Semantics: an SLCA that lands *on the collection root* would mean "the
keywords only co-occur across different documents"; such an answer is
meaningless to a user and is filtered out, so results always identify one
document plus the answer node inside it (with Dewey numbers translated
back to the document's own numbering).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import QueryError
from repro.xksearch.engine import ExecutionStats, QueryPlan
from repro.xksearch.results import SearchResult
from repro.xksearch.system import XKSearch, _check_limit
from repro.xmltree.dewey import DeweyTuple
from repro.xmltree.parser import parse_file
from repro.xmltree.tree import Node, XMLTree, copy_subtree, renumber_subtree

COLLECTION_TAG = "collection"


@dataclass
class CollectionResult:
    """One answer: the owning document plus the in-document result."""

    document: str
    result: SearchResult

    @property
    def dewey(self) -> DeweyTuple:
        """The answer's Dewey number *within its document*."""
        return self.result.dewey

    def __str__(self) -> str:
        return f"{self.document}: {self.result}"


class XMLCollection:
    """A searchable set of XML documents."""

    def __init__(self, documents: Mapping[str, XMLTree], copy_documents: bool = True):
        """Build the collection forest.

        Grafting re-roots every document at ``(0, i)``, which rewrites all
        Dewey numbers; by default each document is deep-copied first so the
        caller's trees stay valid.  Pass ``copy_documents=False`` to donate
        the trees (halves memory for large corpora — the originals must not
        be used afterwards).
        """
        if not documents:
            raise QueryError("a collection needs at least one document")
        self._names: List[str] = list(documents)
        root = Node(COLLECTION_TAG)
        root.dewey = (0,)
        for name, tree in documents.items():
            doc_root = copy_subtree(tree.root) if copy_documents else tree.root
            root.children.append(doc_root)
            doc_root.parent = root
            renumber_subtree(doc_root, (0, len(root.children) - 1))
        self.tree = XMLTree(root)
        self._system = XKSearch.from_tree(self.tree)

    @classmethod
    def from_files(
        cls, paths: Sequence[Union[str, os.PathLike]]
    ) -> "XMLCollection":
        """Parse each file; documents are named by their base filename."""
        documents: Dict[str, XMLTree] = {}
        for path in paths:
            name = os.path.basename(os.fspath(path))
            if name in documents:
                name = os.fspath(path)
            documents[name] = parse_file(path)
        return cls(documents)

    def __len__(self) -> int:
        return len(self._names)

    @property
    def documents(self) -> List[str]:
        return list(self._names)

    # -- dewey translation ------------------------------------------------------

    def _to_local(self, dewey: DeweyTuple) -> Optional[Tuple[str, DeweyTuple]]:
        """Global (collection) Dewey → (document name, document Dewey).

        Returns ``None`` for the collection root itself — a cross-document
        pseudo-answer.
        """
        if len(dewey) < 2:
            return None
        return self._names[dewey[1]], (0,) + dewey[2:]

    # -- queries ------------------------------------------------------------------

    def search(
        self,
        query: Union[str, Sequence[str]],
        algorithm: str = "auto",
        limit: Optional[int] = None,
    ) -> List[CollectionResult]:
        """SLCAs across the collection, each attributed to its document."""
        _check_limit(limit)
        out: List[CollectionResult] = []
        for dewey in self.search_ids(query, algorithm=algorithm):
            if limit is not None and len(out) >= limit:
                break
            located = self._to_local(dewey)
            if located is None:
                continue
            name, _ = located
            decorated = self._system._decorate(dewey, query)
            out.append(self._relocate(name, decorated))
        return out

    def search_ids(
        self,
        query: Union[str, Sequence[str]],
        algorithm: str = "auto",
        stats: Optional[ExecutionStats] = None,
    ) -> Iterator[DeweyTuple]:
        """Raw global Dewey stream (cross-document root included)."""
        return self._system.search_ids(query, algorithm=algorithm, stats=stats)

    def _relocate(self, name: str, decorated: SearchResult) -> CollectionResult:
        """Rewrite a decorated result's Dewey numbers into document space."""
        located = self._to_local(decorated.dewey)
        assert located is not None
        _, local = located
        witnesses = {
            kw: [(0,) + w[2:] for w in nodes]
            for kw, nodes in decorated.witnesses.items()
        }
        path = decorated.path
        if path and path.startswith(COLLECTION_TAG + "/"):
            path = path[len(COLLECTION_TAG) + 1:]
        relocated = SearchResult(
            local, path=path, snippet=decorated.snippet, witnesses=witnesses
        )
        return CollectionResult(document=name, result=relocated)

    def explain(
        self, query: Union[str, Sequence[str]], algorithm: str = "auto"
    ) -> QueryPlan:
        return self._system.explain(query, algorithm=algorithm)

    def documents_matching(self, query: Union[str, Sequence[str]]) -> List[str]:
        """Names of the documents containing at least one answer."""
        seen: List[str] = []
        for result in self.search(query):
            if result.document not in seen:
                seen.append(result.document)
        return seen
