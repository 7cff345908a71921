"""Keyword frequency table.

The paper's index builder "generates a frequency table, which records the
frequencies of keywords, is read into memory by the initializer, and is
stored as a hash table.  The query engine ... uses the frequency hash table
to locate the smallest keyword list."  This module is exactly that: a dict
with JSON persistence and the query-planning helper.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.storage.pager import write_json_atomic


class FrequencyTable:
    """keyword → number of nodes whose label contains the keyword."""

    def __init__(self, counts: Dict[str, int] = None):
        self._counts: Dict[str, int] = dict(counts or {})

    @classmethod
    def from_lists(cls, keyword_lists: Dict[str, Sequence]) -> "FrequencyTable":
        return cls({kw: len(lst) for kw, lst in keyword_lists.items()})

    def frequency(self, keyword: str) -> int:
        """List length for *keyword* (0 when absent from the document)."""
        return self._counts.get(keyword.lower(), 0)

    def __contains__(self, keyword: str) -> bool:
        return keyword.lower() in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def keywords(self) -> Iterable[str]:
        return self._counts.keys()

    def set_count(self, keyword: str, count: int) -> None:
        """Record *keyword*'s list length in place; 0 drops the keyword."""
        if count:
            self._counts[keyword] = count
        else:
            self._counts.pop(keyword, None)

    def order_by_frequency(self, keywords: Sequence[str]) -> List[str]:
        """Query keywords sorted rarest first.

        The paper always takes the smallest list as ``S1``: the complexity of
        the Eager algorithms is driven by ``|S1|``, so the rarest keyword
        leads.  Ties keep query order (stable sort).  Keywords absent from
        the document sort first with frequency 0, letting the engine
        short-circuit to an empty result.
        """
        return sorted(keywords, key=lambda kw: self.frequency(kw))

    # -- persistence ---------------------------------------------------------

    def save(self, path: Union[str, os.PathLike]) -> None:
        write_json_atomic(path, self._counts)

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "FrequencyTable":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def items(self) -> Iterable[Tuple[str, int]]:
        return self._counts.items()
