"""Packed posting segments (v3): writer/reader, source conformance, the
integer SLCA kernel, tier selection and invalidation.

The packed-segment tier must be indistinguishable from the B+tree tier in
every answer it produces *and* in every operation it counts — these tests
pin that down against the in-memory sources (randomized and
hypothesis-driven, indexed and cursor mode, regressing probes included),
against the brute-force oracle on random documents (integer kernel vs
tuple loop; all-LCA / ELCA / Stack through the tuple protocol), through
the full engine (segments on vs off across all three algorithms and all
three semantics), and across the generation protocol (an updater bump
stales segments instantly; close rebuilds them).
"""

import json
import multiprocessing
import os
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.all_lca import find_all_lcas
from repro.core.brute import all_lca_by_containment, slca_by_containment
from repro.core.counters import OpCounters
from repro.core.elca import elca_by_containment, stack_elca
from repro.core.indexed_lookup import eager_slca
from repro.core.sources import CursorListSource, SortedListSource
from repro.core.stack import stack_slca
from repro.errors import DeadlineExceeded, DeweyError, IndexFormatError
from repro.index.builder import build_index
from repro.index.inverted import DiskKeywordIndex
from repro.index.segments import (
    CHUNK_ENTRIES,
    PackedListSource,
    SegmentReader,
    open_index_segments,
    segments_path,
    write_segments,
)
from repro.index.updates import IndexUpdater
from repro.robustness.deadline import Deadline, bind_deadline
from repro.index.generation import bump_generation, current_generation
from repro.xksearch.system import XKSearch
from repro.xmltree.codec import KeyLayout
from repro.xmltree.generate import random_labeled_tree
from repro.xmltree.level_table import LevelTable

from tests.conftest import dewey_st, keyword_list_st

#: The level table of ``tests.conftest.dewey_st`` (four levels, ordinals
#: 0..3) with room for an uncle probe at every level.
SMALL_TABLE = LevelTable([4, 4, 4, 4])


def write_lists(path, lists, table=SMALL_TABLE, generation=0):
    """A segment file over ``{keyword: sorted Dewey tuples}``; returns its reader."""
    layout = KeyLayout(table)
    write_segments(
        str(path),
        ((kw, map(layout.pack, nodes)) for kw, nodes in lists.items()),
        generation,
        layout,
    )
    return SegmentReader(str(path), layout)


# -- writer / reader ------------------------------------------------------------


class TestWriterReader:
    def test_round_trip(self, tmp_path):
        rng = random.Random(3)
        lists = {
            "alpha": sorted({(0, rng.randrange(4), rng.randrange(4)) for _ in range(12)}),
            "big": sorted(
                {(0,) + tuple(rng.randrange(4) for _ in range(4)) for _ in range(400)}
            ),
            "one": [(0,)],
            "empty": [],
        }
        with write_lists(tmp_path / "seg", lists, generation=7) as reader:
            assert reader.version == 3 and reader.generation == 7
            assert reader.keywords() == ["alpha", "big", "one"]  # empty lists skipped
            assert "empty" not in reader and reader.count("empty") == 0
            for kw in reader.keywords():
                assert reader.count(kw) == len(lists[kw])
                assert list(reader.scan(kw)) == lists[kw]
            assert len(lists["big"]) > CHUNK_ENTRIES  # more than one CRC chunk
            assert all(reader.corrupt_chunks(kw) == [] for kw in reader.keywords())
            with pytest.raises(KeyError):
                reader.keys("empty")

    def test_keys_are_zero_copy_typed_views(self, tmp_path):
        with write_lists(tmp_path / "seg", {"kw": [(0, 1), (0, 1, 2), (0, 3)]}) as reader:
            keys = reader.keys("kw")
            assert isinstance(keys, memoryview) and keys.readonly
            assert keys.format == "I" and keys.itemsize == 4
            assert list(keys) == sorted(keys)

    def test_wide_table_uses_64_bit_keys(self, tmp_path):
        table = LevelTable([200] * 6)  # 48 bits
        nodes = [(0, 5), (0, 5, 199, 0), (0, 5, 200), (0, 199, 199, 199, 199, 199, 199)]
        with write_lists(tmp_path / "seg", {"kw": nodes}, table=table) as reader:
            assert reader.keys("kw").format == "Q"
            assert list(reader.scan("kw")) == nodes
            assert reader.stats_dict()["key_bits"] == 64

    def test_truncated_file_raises(self, tmp_path):
        write_lists(tmp_path / "seg", {"kw": [(0, 1)]}).close()
        with open(tmp_path / "seg", "r+b") as fh:
            fh.truncate(10)
        with pytest.raises(IndexFormatError, match="truncated"):
            SegmentReader(str(tmp_path / "seg"), KeyLayout(SMALL_TABLE))

    def test_bad_magic_raises(self, tmp_path):
        write_lists(tmp_path / "seg", {"kw": [(0, 1)]}).close()
        with open(tmp_path / "seg", "r+b") as fh:
            fh.write(b"NOPE")
        with pytest.raises(IndexFormatError, match="magic"):
            SegmentReader(str(tmp_path / "seg"), KeyLayout(SMALL_TABLE))

    def test_older_versions_are_refused(self, tmp_path):
        write_lists(tmp_path / "seg", {"kw": [(0, 1)]}).close()
        with open(tmp_path / "seg", "r+b") as fh:
            fh.seek(4)
            fh.write(struct.pack(">H", 2))
        with pytest.raises(IndexFormatError, match="obsolete"):
            SegmentReader(str(tmp_path / "seg"), KeyLayout(SMALL_TABLE))

    def test_key_width_must_match_the_layout(self, tmp_path):
        write_lists(tmp_path / "seg", {"kw": [(0, 1)]}).close()
        with pytest.raises(IndexFormatError):
            SegmentReader(str(tmp_path / "seg"), KeyLayout(LevelTable([200] * 6)))

    def test_close_with_a_live_view_does_not_raise(self, tmp_path):
        # mmap.close() would raise BufferError here; the reader only drops
        # its own reference and the last view's release unmaps.
        reader = write_lists(tmp_path / "seg", {"kw": [(0, 1), (0, 2)]})
        stream = reader.scan("kw")
        assert next(stream) == (0, 1)
        reader.close()
        assert next(stream) == (0, 2)


# -- MatchSource conformance ------------------------------------------------------


def probe_sequence(rng, nodes, n=60):
    """Probes around the list: hits, gaps, ancestors, uncles, both ends,
    in random (so frequently regressing) order."""
    pool = [(0,), (0, 3, 3, 3, 3), (0, 4)]
    for node in nodes:
        pool.append(node)
        if len(node) > 1:
            pool += [node[:-1], node[:-1] + (node[-1] + 1,)]
        if len(node) < 5:
            pool.append(node + (0,))
    return [rng.choice(pool) for _ in range(n)]


def drive(source, calls):
    return [getattr(source, op)(v) for op, v in calls]


class TestSourceConformance:
    @pytest.mark.parametrize("cursor", [False, True])
    def test_randomized_against_memory_sources(self, tmp_path, cursor):
        rng = random.Random(17 + cursor)
        reference_cls = CursorListSource if cursor else SortedListSource
        for round_ in range(40):
            nodes = sorted(
                {(0,) + tuple(rng.randrange(4) for _ in range(rng.randrange(5)))
                 for _ in range(rng.choice([1, 2, 9, 200]))}
            )
            calls = [
                (rng.choice(("lm", "rm")), v) for v in probe_sequence(rng, nodes)
            ]
            if round_ % 2:
                # The eager loop's pattern: lm then rm at the same probe,
                # probes mostly ascending.
                ordered = sorted(v for _, v in calls)
                calls = [(op, v) for v in ordered for op in ("lm", "rm")]
            with write_lists(tmp_path / "seg", {"kw": nodes}) as reader:
                want_counters, got_counters = OpCounters(), OpCounters()
                want = drive(reference_cls(nodes, want_counters), calls)
                packed = PackedListSource(reader, "kw", got_counters, cursor=cursor)
                assert drive(packed, calls) == want
                assert got_counters == want_counters
                assert list(packed.scan()) == nodes and len(packed) == len(nodes)

    @given(
        nodes=keyword_list_st,
        probes=st.lists(st.tuples(st.sampled_from(("lm", "rm")), dewey_st), max_size=40),
        cursor=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_oracle(self, tmp_path_factory, nodes, probes, cursor):
        path = tmp_path_factory.mktemp("seg") / "seg"
        reference_cls = CursorListSource if cursor else SortedListSource
        with write_lists(path, {"kw": nodes}) as reader:
            want_counters, got_counters = OpCounters(), OpCounters()
            want = drive(reference_cls(nodes, want_counters), probes)
            got = drive(PackedListSource(reader, "kw", got_counters, cursor=cursor), probes)
            assert got == want and got_counters == want_counters

    def test_probe_outside_the_level_table_raises(self, tmp_path):
        with write_lists(tmp_path / "seg", {"kw": [(0, 1)]}) as reader:
            source = PackedListSource(reader, "kw")
            with pytest.raises(DeweyError):
                source.rm((0, 1, 1, 1, 1, 1))


# -- the integer kernel ---------------------------------------------------------------


class TupleOnly:
    """Hides a packed source's keys, forcing ``eager_slca`` onto its tuple loop."""

    def __init__(self, inner):
        self.lm, self.rm, self.scan = inner.lm, inner.rm, inner.scan
        self._inner = inner

    def __len__(self):
        return len(self._inner)


def run_slca(reader, keywords, cursor, tuple_loop=False):
    counters = OpCounters()
    sources = [PackedListSource(reader, kw, counters, cursor=cursor) for kw in keywords]
    if tuple_loop:
        sources = [TupleOnly(source) for source in sources]
    return list(eager_slca(sources, counters)), counters


def memory_slca(lists, cursor):
    counters = OpCounters()
    cls = CursorListSource if cursor else SortedListSource
    return list(eager_slca([cls(lst, counters) for lst in lists], counters)), counters


class TestIntegerKernel:
    @pytest.mark.parametrize("cursor", [False, True])
    def test_random_documents_against_brute_force(self, tmp_path, cursor):
        """Kernel == tuple loop == in-memory sources (answers and
        OpCounters) == brute force, for every keyword subset order."""
        rng = random.Random(5)
        for seed in range(25):
            tree = random_labeled_tree(seed, n_nodes=rng.choice([8, 40, 120]))
            lists = tree.keyword_lists()
            layout = KeyLayout(LevelTable.from_tree(tree))
            write_segments(
                str(tmp_path / "seg"),
                ((kw, map(layout.pack, nodes)) for kw, nodes in lists.items()),
                0, layout,
            )
            with SegmentReader(str(tmp_path / "seg"), layout) as reader:
                for _ in range(6):
                    query = rng.sample(sorted(lists), k=min(len(lists), rng.randint(1, 4)))
                    wanted = [lists[kw] for kw in query]
                    kernel, kernel_counters = run_slca(reader, query, cursor)
                    looped, loop_counters = run_slca(reader, query, cursor, tuple_loop=True)
                    memory, memory_counters = memory_slca(wanted, cursor)
                    assert kernel == looped == memory
                    assert kernel == sorted(slca_by_containment(wanted))
                    assert kernel_counters == loop_counters == memory_counters

    @given(lists=st.lists(keyword_list_st, min_size=1, max_size=4), cursor=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_property_kernel_equals_tuple_loop(self, tmp_path_factory, lists, cursor):
        path = tmp_path_factory.mktemp("seg") / "seg"
        named = {f"k{i}": lst for i, lst in enumerate(lists)}
        with write_lists(path, named) as reader:
            kernel, kernel_counters = run_slca(reader, list(named), cursor)
            memory, memory_counters = memory_slca(lists, cursor)
            assert kernel == memory == sorted(slca_by_containment(lists))
            assert kernel_counters == memory_counters

    def test_other_semantics_through_the_tuple_protocol(self, tmp_path):
        rng = random.Random(11)
        for seed in range(15):
            tree = random_labeled_tree(100 + seed, n_nodes=60)
            lists = tree.keyword_lists()
            layout = KeyLayout(LevelTable.from_tree(tree))
            write_segments(
                str(tmp_path / "seg"),
                ((kw, map(layout.pack, nodes)) for kw, nodes in lists.items()),
                0, layout,
            )
            with SegmentReader(str(tmp_path / "seg"), layout) as reader:
                query = sorted(rng.sample(sorted(lists), k=3), key=lambda kw: len(lists[kw]))
                wanted = [lists[kw] for kw in query]
                sources = [PackedListSource(reader, kw) for kw in query]
                assert set(find_all_lcas(sources)) == all_lca_by_containment(wanted)
                scans = [reader.scan(kw) for kw in query]
                assert sorted(stack_slca(scans)) == sorted(slca_by_containment(wanted))
                scans = [reader.scan(kw) for kw in query]
                assert set(stack_elca(scans)) == elca_by_containment(wanted)

    def test_counters_are_current_at_every_yield(self, tmp_path):
        lists = {"a": [(0, 0, 1), (0, 1, 1), (0, 2, 1)], "b": [(0, 0, 2), (0, 1, 2), (0, 2, 2)]}
        with write_lists(tmp_path / "seg", lists) as reader:
            counters = OpCounters()
            sources = [PackedListSource(reader, kw, counters) for kw in ("a", "b")]
            reference = OpCounters()
            tuples = eager_slca(
                [SortedListSource(lists[kw], reference) for kw in ("a", "b")], reference
            )
            for got in eager_slca(sources, counters):
                assert got == next(tuples)
                assert counters == reference
            assert next(tuples, None) is None and counters == reference

    def test_deadline_is_checked_per_candidate(self, tmp_path):
        # More candidates than the checkpoint stride (256), so the clock is read.
        nodes = sorted({(0, a, b, c) for a in range(8) for b in range(8) for c in range(8)})
        table = LevelTable([8, 8, 8])
        with write_lists(tmp_path / "seg", {"a": nodes, "b": nodes}, table=table) as reader:
            counters = OpCounters()
            sources = [PackedListSource(reader, kw, counters) for kw in ("a", "b")]
            with bind_deadline(Deadline(0.0)):
                with pytest.raises(DeadlineExceeded):
                    list(eager_slca(sources, counters))
            # Aborted at a candidate boundary, counts flushed on the way out.
            assert 0 < counters.candidates < len(nodes)
            assert counters.lm_ops == counters.rm_ops == counters.candidates

    def test_mixed_sources_take_the_tuple_loop(self, tmp_path):
        lists = {"a": [(0, 0, 1), (0, 1, 1)], "b": [(0, 0, 2), (0, 1, 2)]}
        with write_lists(tmp_path / "seg", lists) as reader:
            counters = OpCounters()
            sources = [
                PackedListSource(reader, "a", counters),
                SortedListSource(lists["b"], counters),
            ]
            assert list(eager_slca(sources, counters)) == [(0, 0), (0, 1)]
            assert counters.lm_ops == 2
            three = [
                PackedListSource(reader, "a"),
                PackedListSource(reader, "b"),
                SortedListSource(lists["a"]),
            ]
            assert list(eager_slca(three)) == [(0, 0), (0, 1)]
            modes = [
                PackedListSource(reader, "a"),
                PackedListSource(reader, "b", cursor=True),
                PackedListSource(reader, "b"),
            ]
            assert list(eager_slca(modes)) == [(0, 0), (0, 1)]


# -- tier selection over a real index -----------------------------------------


@pytest.fixture
def built(tmp_path, planted_dblp):
    build_index(planted_dblp, tmp_path / "idx", page_size=1024)
    index = DiskKeywordIndex(tmp_path / "idx", pool_capacity=512)
    yield index, planted_dblp, tmp_path / "idx"
    index.close()


class TestTierSelection:
    def test_builder_emits_segments(self, built):
        index, _, index_dir = built
        assert os.path.exists(segments_path(index_dir))
        assert index.segments_active()
        assert index.posting_tier() == "segment"
        assert "segments" in index.manifest

    def test_sources_are_packed_in_both_modes(self, built):
        index, _, _ = built
        for mode, cursor in (("indexed", False), ("scan", True)):
            sources = index.sources_for(["xkrare", "xkbig"], mode=mode)
            assert all(isinstance(s, PackedListSource) for s in sources)
            assert all(s.cursor is cursor for s in sources)
            assert sources[0].layout is sources[1].layout  # the kernel's condition
        with pytest.raises(ValueError):
            index.sources_for(["xkrare"], mode="bogus")

    def test_manifest_records_the_version_written(self, built):
        index, _, index_dir = built
        assert index.manifest["segments"]["version"] == 3
        assert index.manifest["segments"]["key_bits"] in (32, 64)
        with open_index_segments(index_dir) as reader:
            assert reader.version == 3

    def test_opt_out_forces_bptree(self, built):
        _, _, index_dir = built
        index = DiskKeywordIndex(index_dir, use_segments=False)
        try:
            assert not index.segments_active()
            assert index.posting_tier() == "bptree"
            sources = index.sources_for(["xkrare"], mode="indexed")
            assert not isinstance(sources[0], PackedListSource)
        finally:
            index.close()

    def test_scan_matches_bptree_scan(self, built):
        index, tree, _ = built
        lists = tree.keyword_lists()
        for kw in ("xkrare", "xkmid", "xkbig"):
            assert list(index.scan(kw)) == lists[kw]
            assert index.keyword_list(kw) == lists[kw]

    def test_stats_expose_segment_section(self, built):
        index, _, _ = built
        stats = index.stats()
        assert stats["posting_tier"] == "segment"
        assert stats["segments"]["keywords"] > 0
        assert stats["segments"]["version"] == 3
        assert set(stats["segments"]) >= {
            "generation", "version", "verify_checksums", "quarantined"
        }


# -- generation protocol ------------------------------------------------------


class TestGenerationInvalidation:
    def test_bump_stales_segments_instantly(self, built):
        index, _, index_dir = built
        assert index.segments_active()
        bump_generation(index_dir)
        assert not index.segments_active()
        assert index.posting_tier() == "bptree"
        # The fallback still answers correctly.
        sources = index.sources_for(["xkrare"], mode="indexed")
        assert not isinstance(sources[0], PackedListSource)

    def test_updater_close_rebuilds_segments(self, built):
        index, tree, index_dir = built
        new_posting = ((0, 0, 0, 0, 0, 0), "title")
        with IndexUpdater(index_dir) as updater:
            assert updater.add_postings({"xkfresh": [new_posting]}) == 1
            # Mid-update: segments are stale, B+tree serves reads.
            assert not index.segments_active()
        # Close rebuilt segments.dat at the new generation; the reader
        # handle notices through the usual generation machinery.
        index.generation()
        assert index.segments_active()
        assert list(index.scan("xkfresh")) == [new_posting[0]]
        sources = index.sources_for(["xkfresh"], mode="indexed")
        assert isinstance(sources[0], PackedListSource)
        # Pre-existing lists survived the rebuild byte-identically.
        assert list(index.scan("xkrare")) == tree.keyword_lists()["xkrare"]

    def test_updater_stamps_the_version_it_wrote(self, built):
        index, _, index_dir = built
        # A manifest stamped by an older build (which recorded version 1
        # whatever it wrote) is corrected by the next commit.
        manifest_path = os.path.join(index_dir, "manifest.json")
        manifest = dict(index.manifest, segments=dict(index.manifest["segments"], version=1))
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with IndexUpdater(index_dir) as updater:
            updater.add_postings({"xkfresh": [((0, 0, 0, 0, 0, 0), "title")]})
        with open(manifest_path) as fh:
            assert json.load(fh)["segments"]["version"] == 3

    def test_refresh_during_an_in_flight_scan(self, built):
        """A refresh closes the old reader while a query still iterates a
        view of it: no BufferError, the old scan finishes on the old
        contents, new scans see the new ones."""
        index, tree, index_dir = built
        want = tree.keyword_lists()["xkbig"]
        in_flight = index.scan("xkbig")
        head = [next(in_flight) for _ in range(3)]
        source = index.sources_for(["xkbig"], mode="scan")[0]
        with IndexUpdater(index_dir) as updater:
            updater.remove_postings({"xkbig": want[:2]})
        index.generation()  # notices the bump: refresh() reopens the segments
        assert index.segments_active()
        assert head + list(in_flight) == want
        assert list(source.scan()) == want and source.rm(want[0]) == want[0]
        assert list(index.scan("xkbig")) == want[2:]

    def test_stamped_generation_matches_registry(self, built):
        index, _, index_dir = built
        reader = index._segments
        assert reader is not None
        assert reader.generation == current_generation(index_dir)


# -- end-to-end: segments on vs off must be byte-identical --------------------


QUERIES = ["xkrare xkbig", "xkmid xkbig", "xkrare xkmid xkbig", "xkmid", "smith"]


class TestEngineByteIdentical:
    @pytest.fixture
    def systems(self, tmp_path, planted_dblp):
        build_index(planted_dblp, tmp_path / "idx", page_size=1024)
        on = XKSearch.open(tmp_path / "idx", load_document=False)
        off = XKSearch.open(tmp_path / "idx", load_document=False, use_segments=False)
        assert on.index.posting_tier() == "segment"
        assert off.index.posting_tier() == "bptree"
        yield on, off
        on.close()
        off.close()

    def test_slca_all_algorithms(self, systems):
        on, off = systems
        for query in QUERIES:
            for algorithm in ("auto", "il", "scan", "stack"):
                got = list(on.search_ids(query, algorithm=algorithm))
                want = list(off.search_ids(query, algorithm=algorithm))
                assert got == want, (query, algorithm)

    def test_elca_and_all_lca(self, systems):
        on, off = systems
        for query in QUERIES:
            assert list(on.engine.execute_elca(query)) == list(
                off.engine.execute_elca(query)
            ), ("elca", query)
            assert list(on.engine.execute_all_lca(query)) == list(
                off.engine.execute_all_lca(query)
            ), ("lca", query)

    def test_explain_reports_tier(self, systems):
        from repro.xksearch.engine import ExecutionStats

        on, off = systems
        for system, tier in ((on, "segment"), (off, "bptree")):
            stats = ExecutionStats()
            list(system.search_ids("xkrare xkbig", algorithm="il", stats=stats, profile=True))
            assert stats.plan["posting_tier"] == tier


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process pool requires the fork start method",
)
class TestPoolWorkers:
    def test_workers_use_segments_and_match(self, tmp_path, planted_dblp):
        from repro.xksearch.parallel import WorkerPool

        build_index(planted_dblp, tmp_path / "idx", page_size=1024)
        pool = WorkerPool(tmp_path / "idx", workers=2)
        system = XKSearch.open(tmp_path / "idx", load_document=False)
        system.engine.attach_pool(pool)
        reference = XKSearch.open(
            tmp_path / "idx", load_document=False, use_segments=False
        )
        try:
            for query in QUERIES:
                got = list(system.search_ids(query, algorithm="il"))
                want = list(reference.search_ids(query, algorithm="il"))
                assert got == want, query
            assert sum(w["tasks"] for w in pool.stats_dict()["workers"]) > 0
        finally:
            pool.close()
            system.close()
            reference.close()


# -- indexes without segments: old files, wide tables, the varint codec -------


def answers(system):
    return {
        (query, algorithm): list(system.search_ids(query, algorithm=algorithm))
        for query in QUERIES
        for algorithm in ("il", "scan", "stack")
    }


class TestNoSegmentFallbacks:
    def test_v2_file_is_ignored_then_rewritten_by_the_next_commit(
        self, tmp_path, planted_dblp
    ):
        index_dir = tmp_path / "idx"
        build_index(planted_dblp, index_dir, page_size=1024)
        with XKSearch.open(index_dir, load_document=False) as system:
            want = answers(system)
        with open(segments_path(index_dir), "r+b") as fh:  # pose as a v2 file
            fh.seek(4)
            fh.write(struct.pack(">H", 2))
        with XKSearch.open(index_dir, load_document=False) as system:
            assert system.index.posting_tier() == "bptree"
            assert answers(system) == want
        with pytest.raises(IndexFormatError):
            open_index_segments(index_dir)
        with IndexUpdater(index_dir) as updater:
            updater.add_postings({"xkfresh": [((0, 0, 0, 0, 0, 0), "title")]})
        with XKSearch.open(index_dir, load_document=False) as system:
            assert system.index.posting_tier() == "segment"
            assert system.index.manifest["segments"]["version"] == 3
            assert answers(system) == want

    @pytest.mark.parametrize("codec", ["varint", "packed-too-wide"])
    def test_no_layout_means_no_segment_file(self, tmp_path, planted_dblp, codec):
        reference_dir, index_dir = tmp_path / "ref", tmp_path / "idx"
        build_index(planted_dblp, reference_dir, page_size=1024)
        if codec == "varint":
            build_index(planted_dblp, index_dir, page_size=1024, codec="varint")
        else:
            # The document's own fanouts, then levels nothing uses: 77 bits.
            wide = LevelTable(LevelTable.from_tree(planted_dblp).fanouts + [1000] * 6)
            assert wide.max_dewey_bits > 64
            build_index(planted_dblp, index_dir, page_size=1024, level_table=wide)
        assert not os.path.exists(segments_path(index_dir))
        assert open_index_segments(index_dir) is None
        with XKSearch.open(reference_dir, load_document=False) as reference:
            with XKSearch.open(index_dir, load_document=False) as system:
                assert "segments" not in system.index.manifest
                assert system.index.posting_tier() == "bptree"
                assert answers(system) == answers(reference)
                for query in QUERIES:
                    assert list(system.engine.execute_all_lca(query)) == list(
                        reference.engine.execute_all_lca(query)
                    )
        # An update keeps it that way.
        with IndexUpdater(index_dir) as updater:
            updater.add_postings({"xkfresh": [((0, 0, 0, 0, 0, 0), "title")]})
        assert not os.path.exists(segments_path(index_dir))

    def test_rebuild_without_segments_removes_a_stale_file(self, tmp_path, planted_dblp):
        index_dir = tmp_path / "idx"
        build_index(planted_dblp, index_dir, page_size=1024)
        assert os.path.exists(segments_path(index_dir))
        build_index(planted_dblp, index_dir, page_size=1024, segments=False)
        assert not os.path.exists(segments_path(index_dir))
