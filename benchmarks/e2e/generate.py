"""Seeded workload generators and the in-memory oracle.

Everything the server sees is generated here from ``--seed``: the corpus,
the pool of distinct queries, the non-cycling request sequence and the
write batches.  The oracle answers a query with ``eager_slca`` over
``SortedListSource``s built from the generated keyword lists, so it
shares neither the disk index nor the XML parser with the program under
test.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.indexed_lookup import eager_slca
from repro.core.sources import SortedListSource
from repro.workloads.datasets import PlantedCorpus, keyword_name
from repro.xmltree.generate import dblp_like_tree
from repro.xmltree.serialize import serialize

Dewey = Tuple[int, ...]
#: A write batch in ``IndexUpdater.add_postings`` form: keyword → postings.
Batch = Dict[str, List[Tuple[Dewey, str]]]
#: One step of a request sequence: ("read" | "probe", query index) or
#: ("write", write index).  Write *w* removes batch ``w // 2`` when *w* is
#: even and adds the same batch back when it is odd.
Op = Tuple[str, int]

PLANTED_FREQUENCIES = [(10, 8), (100, 8), (1000, 8), (3000, 10), (10000, 6), (100000, 3)]
DBLP_SHAPE = dict(venues=20, years_per_venue=10, papers_per_year=100)
ZIPF_SKEW = 1.1
#: Requests generated per connection and second of window.  The sequence
#: never cycles; a server faster than this ends the window early instead.
MAX_RATE = 2000
BATCH_POSTINGS = 20  # papers (or planted postings) per write batch
#: Vocabulary classes of the write mix's queries, by Zipf rank modulo 10:
#: title words and author names (~3.5k postings), element tags (20-40k),
#: page numbers and years (20-70), so IL and Scan plans both occur.
QUERY_SHAPES = (
    ("word", "word"), ("word", "word", "word"), ("word", "rare"), ("tag", "rare"),
    ("word", "word"), ("tag", "word"), ("rare", "word", "word"), ("word", "word"),
    ("rare", "tag", "word"), ("word", "word", "word"),
)
WARMUP_READS = 20


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    corpus: str  # "planted" or "dblp"
    cache_size: int
    connections: int
    seconds: float
    cycle_reads: int = 0  # > 0: reads between two write batches


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "zipf_hot",
            "working set fits the result cache, so server, cache and per-request "
            "bookkeeping do all the work and core/index do none",
            "planted", cache_size=1024, connections=2, seconds=30.0,
        ),
        Spec(
            "miss_skewed",
            "cache off, one rare keyword against large lists: the planner picks IL "
            "and the cost is random lm/rm probes into the segments (Figures 8/9)",
            "planted", cache_size=0, connections=1, seconds=30.0,
        ),
        Spec(
            "miss_balanced",
            "cache off, equal 3000-entry lists: the planner picks Scan Eager, blocks "
            "are read sequentially and the core candidate loop carries the cost (Figure 10)",
            "planted", cache_size=0, connections=1, seconds=30.0,
        ),
        Spec(
            "doc_update_mix",
            "parsed document, working set larger than the cache, a write batch every "
            "50 reads: invalidation, segment rewrite and read-your-writes all show",
            "dblp", cache_size=64, connections=1, seconds=40.0, cycle_reads=50,
        ),
    )
}


def zipf_weights(n: int, skew: float = ZIPF_SKEW) -> List[float]:
    return [1.0 / rank ** skew for rank in range(1, n + 1)]


@dataclass
class Workload:
    """One workload's generated inputs plus the oracle over them."""

    spec: Spec
    seed: int
    lists: Dict[str, List[Dewey]]
    queries: List[str]
    ops: List[Op]
    warmup: List[int]
    batches: List[Batch]
    xml_text: Optional[str] = None  # dblp only: the document to parse and index
    _expected: Dict[Tuple[int, Optional[int]], Tuple[str, ...]] = field(default_factory=dict)

    def shards(self) -> List[List[Op]]:
        """The sequence dealt round-robin, one shard per connection."""
        n = self.spec.connections
        return [self.ops[i::n] for i in range(n)]

    def expected_ids(self, qidx: int, removed: Optional[int] = None) -> Tuple[str, ...]:
        """Oracle answer while batch *removed* is out of the index."""
        words = self.queries[qidx].split()
        if removed is not None and not set(words) & set(self.batches[removed]):
            removed = None
        key = (qidx, removed)
        if key not in self._expected:
            gone = self.batches[removed] if removed is not None else {}
            lists = []
            for word in words:
                lst = self.lists[word]
                if word in gone:
                    drop = {dewey for dewey, _ in gone[word]}
                    lst = [dewey for dewey in lst if dewey not in drop]
                lists.append(lst)
            lists.sort(key=len)
            ids = eager_slca([SortedListSource(lst) for lst in lists])
            self._expected[key] = tuple(".".join(map(str, dewey)) for dewey in ids)
        return self._expected[key]

    def write_source(self, work_dir: str):
        """What ``build_index`` consumes: keyword lists, or an XML file path."""
        if self.xml_text is None:
            return self.lists
        path = os.path.join(work_dir, f"{self.spec.name}.xml")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.xml_text)
        return path


def _read_ops(rng: random.Random, weights: Sequence[float], count: int, block: int) -> List[Op]:
    """*count* reads drawn from *weights* by stratified sampling.

    Each block of *block* draws takes one point from every 1/block stratum
    of the distribution and shuffles them, so every block holds nearly the
    same mix of queries (for uniform weights and ``block == len(weights)``:
    a fresh permutation) and runs differ in order, not in luck of the draw.
    """
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]
    ops: List[Op] = []
    while len(ops) < count:
        points = [(j + rng.random()) / block * total for j in range(block)]
        drawn = [min(bisect.bisect_right(cumulative, u), len(weights) - 1) for u in points]
        rng.shuffle(drawn)
        ops.extend(("read", q) for q in drawn)
    return ops[:count]


def _planted(spec: Spec, seed: int, seconds: float) -> Workload:
    corpus = PlantedCorpus.for_frequencies(PLANTED_FREQUENCIES, seed=seed)
    rng = random.Random(f"{seed}:{spec.name}")
    mid = [keyword_name(3000, v) for v in range(10)]
    if spec.name == "zipf_hot":
        queries = [" ".join(pair) for pair in itertools.combinations(mid, 2)][:40]
        warmup = list(range(len(queries)))  # one pass fills the result cache
    elif spec.name == "miss_skewed":
        # The same query shapes for every seed (the seed moves the postings
        # and the order): 16 rare keywords x 9 single + 7 paired large lists.
        small = [keyword_name(f, v) for f in (10, 100) for v in range(8)]
        big = [keyword_name(10000, v) for v in range(6)]
        huge = [keyword_name(100000, v) for v in range(3)]
        tails = [(a,) for a in big + huge]
        tails += [(big[0], big[1]), (big[2], big[3]), (big[4], big[5])]
        tails += [(big[0], huge[0]), (big[2], huge[1]), (big[4], huge[2]), (huge[0], huge[1])]
        queries = [" ".join((s,) + tail) for s in small for tail in tails]
        warmup = list(range(WARMUP_READS))
    else:
        queries = [
            " ".join(group)
            for k in (2, 3)
            for group in itertools.combinations(mid, k)
        ]
        warmup = list(range(WARMUP_READS))
    weights = zipf_weights(len(queries)) if spec.name == "zipf_hot" else [1.0] * len(queries)
    count = int(seconds * MAX_RATE) * spec.connections
    ops = _read_ops(rng, weights, count, block=len(queries))
    # The write probe after the window: seeded postings of the mid-size lists.
    batch: Batch = {}
    for _ in range(BATCH_POSTINGS):
        keyword = rng.choice(mid)
        posting = (rng.choice(corpus.lists[keyword]), "")
        if posting not in batch.setdefault(keyword, []):
            batch[keyword].append(posting)
    return Workload(spec, seed, corpus.lists, queries, ops, warmup, [batch])


def _dblp(spec: Spec, seed: int, seconds: float) -> Workload:
    tree = dblp_like_tree(seed, **DBLP_SHAPE)
    lists = tree.keyword_lists()
    rng = random.Random(f"{seed}:{spec.name}")
    # Vocabulary classes by list size: element tags, title words and author
    # names, page numbers and years.
    by_class: Dict[str, List[str]] = {"tag": [], "word": [], "rare": []}
    for keyword in sorted(lists):
        size = len(lists[keyword])
        if size >= 10000:
            by_class["tag"].append(keyword)
        elif size >= 1000:
            by_class["word"].append(keyword)
        elif size >= 20:
            by_class["rare"].append(keyword)
    seen = set()
    queries: List[str] = []
    while len(queries) < 300:
        # Rank i always has the same shape, so the hot set costs the same
        # for every seed; the seed picks the title words, names and numbers.
        rank = len(queries)
        classes = QUERY_SHAPES[rank % len(QUERY_SHAPES)]
        # A 40k tag list costs twice a 20k one, so the rank fixes the tag too.
        tag = by_class["tag"][rank // len(QUERY_SHAPES) % len(by_class["tag"])]
        words = tuple(sorted({tag if c == "tag" else rng.choice(by_class[c]) for c in classes}))
        if len(words) == len(classes) and words not in seen:
            seen.add(words)
            queries.append(" ".join(words))
    weights = zipf_weights(len(queries))
    papers = [node for node in tree if node.tag == "paper"]
    # A commit takes about a second, so this many cycles outlast the window.
    cycles = 2 * int(seconds) + 2
    batches: List[Batch] = []
    ops: List[Op] = []
    for write in range(cycles):
        ops.extend(_read_ops(rng, weights, spec.cycle_reads, block=spec.cycle_reads))
        if write % 2 == 0:
            batch: Batch = {}
            chosen = rng.sample(papers, BATCH_POSTINGS)
            for paper in chosen:
                for node in paper.iter_subtree():
                    if node.is_text:
                        for word in dict.fromkeys(node.keywords()):
                            batch.setdefault(word, []).append((node.dewey, node.parent.tag.lower()))
            batches.append(batch)
            # Read-your-writes probe: a title word and an author of one
            # removed paper, so the paper leaves the answer with the batch.
            first = chosen[0]
            title = first.children[0].children[0].keywords()[0]
            author = first.children[1].children[0].keywords()[0]
            queries.append(f"{title} {author}")
            probe = len(queries) - 1
        ops.append(("write", write))
        ops.append(("probe", probe))
    return Workload(
        spec, seed, lists, queries, ops, list(range(WARMUP_READS)), batches,
        xml_text=serialize(tree.root),
    )


def make_workload(name: str, seed: int, seconds: float) -> Workload:
    spec = SPECS[name]
    build = _planted if spec.corpus == "planted" else _dblp
    return build(spec, seed, seconds)


def removed_after(commits: int) -> Optional[int]:
    """Which batch is out of the index once *commits* writes have committed."""
    return (commits - 1) // 2 if commits % 2 else None
