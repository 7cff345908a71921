"""What a commit costs and what it leaves on disk.

``IndexUpdater`` edits, per changed posting, the IL leaf, the one scan
block the posting falls in and the keyword's segment keys (lifted from
the previous ``segments.dat``); ``close()`` copies every untouched
keyword's keys and stored CRC words out of that file.  The full rebuild
from the IL tree is its cold path, the pass over one keyword's IL run its
repair for a call that raised half-way.  These tests pin the contract:

* after any commit sequence the segment file is **byte-identical** to a
  full rebuild from the IL tree at the same generation, ``fsck`` (which
  cross-checks segment keys against the IL tree and every scan block's
  key against its postings) is clean, and answers equal the brute-force
  oracle;
* after every call — blocks split over and over, first/middle/last
  blocks emptied, keywords dropped and re-created, postings put below a
  list's first, tags rewritten — the scan blocks hold exactly the IL run,
  which is exactly the model;
* a base that cannot be trusted — stale stamp, old format, truncated,
  missing, or left behind by an updater that never closed — sends the
  next commit down the cold path, with the same bytes as the result;
* copied CRCs are copied, not recomputed: damage in an untouched list of
  the base is still caught after the commit, and damage in a touched one
  condemns the base rather than being checksummed afresh;
* noise-free cost guards: a commit reads and writes tree nodes in
  proportion to the postings it changes, whatever the length of their
  lists, and opening or refreshing a reader reads the inner nodes plus
  one leaf per tree;
* between a mutation and ``close()`` an in-process reader answers from
  the B+tree tier, scan tree included.
"""

import itertools
import json
import os
import random
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.index.updates as updates_module
from repro.core.brute import slca_by_containment
from repro.core.indexed_lookup import eager_slca
from repro.errors import CorruptionError, IndexFormatError
from repro.index.builder import build_index, key_layout, load_level_table, load_manifest
from repro.index.inverted import DiskKeywordIndex
from repro.index.segments import open_index_segments, segments_path, write_segments
from repro.index.updates import IndexUpdater
from repro.index.verify import fsck_index
from repro.storage.bptree import BPlusTree
from repro.storage.pager import Pager
from repro.storage.records import keyword_range, split_posting_key, unpack_tagged_block
from repro.index.generation import current_generation
from repro.xmltree.level_table import LevelTable

#: Four levels of ordinals 0..3 (``tests.conftest.dewey_st``'s shape):
#: every node of the universe fits, so any add is legal.
TABLE = LevelTable([4, 4, 4, 4])
UNIVERSE = [(0,)] + [
    (0,) + tuple(path)
    for depth in range(1, 5)
    for path in itertools.product(range(4), repeat=depth)
]
#: Listed at build time / only ever added later.  "né" sorts after every
#: ASCII keyword as UTF-8; "a0" before all of them.
BUILT = ("ka", "kb", "kc")
VOCABULARY = BUILT + ("a0", "né", "zz")


def initial_lists(seed=5):
    rng = random.Random(seed)
    # "kb" spans more than one 128-key CRC chunk.
    return {
        kw: sorted(rng.sample(UNIVERSE, size))
        for kw, size in zip(BUILT, (40, 200, 90))
    }


def build(tmp_path):
    index_dir = tmp_path / "idx"
    build_index(initial_lists(), index_dir, page_size=256, level_table=TABLE)
    return index_dir


def il_lists(index_dir):
    """``{keyword: [segment key, ...]}`` straight from the IL tree."""
    manifest = load_manifest(index_dir)
    layout = key_layout(manifest["codec"], load_level_table(index_dir))
    lists = {}
    with DiskKeywordIndex(index_dir, use_segments=False) as index:
        for key, _ in index.il_tree.scan():
            keyword, encoded = split_posting_key(key)
            lists.setdefault(keyword, []).append(layout.key_of_encoding(encoded))
    return lists, manifest["generation"], layout


def full_rebuild(index_dir, tmp_path):
    """The bytes a from-scratch segment write over the IL tree produces."""
    lists, generation, layout = il_lists(index_dir)
    out = tmp_path / "rebuilt.dat"
    write_segments(
        str(out), sorted(lists.items(), key=lambda kv: kv[0].encode("utf-8")),
        generation, layout,
    )
    return out.read_bytes()


def segment_bytes(index_dir):
    with open(segments_path(index_dir), "rb") as fh:
        return fh.read()


def apply_calls(updater, calls, model):
    """Run ``[(op, keyword, deweys)]`` on *updater* and on the model."""
    for op, keyword, deweys in calls:
        have = model.setdefault(keyword, set())
        if op == "add":
            updater.add_postings({keyword: [(dewey, "") for dewey in deweys]})
            have.update(deweys)
        elif op == "remove":
            updater.remove_postings({keyword: deweys})
            have.difference_update(deweys)
        else:  # "drop": the keyword's last posting goes
            updater.remove_postings({keyword: sorted(have)})
            have.clear()


def assert_committed(index_dir, tmp_path, model):
    assert segment_bytes(index_dir) == full_rebuild(index_dir, tmp_path)
    assert not os.path.exists(segments_path(index_dir) + ".base")
    report = fsck_index(index_dir)
    assert report.ok, report.summary()
    live = sorted(kw for kw, nodes in model.items() if nodes)
    with DiskKeywordIndex(index_dir) as index:
        assert index.segments_active()
        assert index.keywords() == live
        for a, b in zip(live, live[1:] + live[:1]):
            want = sorted(slca_by_containment([sorted(model[a]), sorted(model[b])]))
            for mode in ("indexed", "scan"):
                assert list(eager_slca(index.sources_for((a, b), mode))) == want


@pytest.fixture
def write_paths(monkeypatch):
    """Records, per segment write of an updater, whether it copied from a base."""
    seen = []
    real = updates_module.write_index_segments

    def spy(index_dir, keyword_keys, generation, layout, base=None):
        seen.append(base is not None)
        return real(index_dir, keyword_keys, generation, layout, base)

    monkeypatch.setattr(updates_module, "write_index_segments", spy)
    return seen


# -- byte identity across commit sequences --------------------------------------

call_st = st.tuples(
    st.sampled_from(("add", "add", "remove", "drop")),
    st.sampled_from(VOCABULARY),
    st.lists(st.sampled_from(UNIVERSE), min_size=1, max_size=6, unique=True),
)
commit_st = st.lists(call_st, min_size=2, max_size=5)


class TestCopyThrough:
    def test_every_shape_of_change(self, tmp_path, write_paths):
        index_dir = build(tmp_path)
        model = {kw: set(nodes) for kw, nodes in initial_lists().items()}
        free = [node for node in UNIVERSE if node not in model["ka"]]
        commits = [
            # add to and remove from existing lists; "ka" touched twice
            [("add", "ka", free[:3]), ("remove", "kc", sorted(model["kc"])[:5]),
             ("remove", "ka", free[:1])],
            # new keywords on either side of the directory, one non-ASCII
            [("add", "zz", UNIVERSE[5:9]), ("add", "a0", UNIVERSE[:2]),
             ("add", "né", UNIVERSE[40:43])],
            # a keyword's last posting goes, another comes back the same commit
            [("drop", "zz", []), ("drop", "kb", []), ("add", "kb", UNIVERSE[100:103])],
            # re-adding what is there changes no key (and no generation)
            [("add", "a0", UNIVERSE[:2])],
        ]
        for calls in commits:
            with IndexUpdater(index_dir) as updater:
                apply_calls(updater, calls, model)
            assert_committed(index_dir, tmp_path, model)
        assert write_paths == [True] * len(commits)  # never the cold path

    @settings(max_examples=15, deadline=None)
    @given(commits=st.lists(commit_st, min_size=1, max_size=4))
    def test_random_commit_sequences(self, tmp_path_factory, commits):
        tmp_path = tmp_path_factory.mktemp("seq")
        index_dir = build(tmp_path)
        model = {kw: set(nodes) for kw, nodes in initial_lists().items()}
        for calls in commits:
            with IndexUpdater(index_dir) as updater:
                apply_calls(updater, calls, model)
            assert_committed(index_dir, tmp_path, model)

    def test_call_that_failed_half_way_is_completed_by_close(self, tmp_path):
        """The tree write that fails leaves earlier ones of the same call
        in the IL tree; ``close()`` (run by ``__exit__``) must still commit
        a scan tree, counts and segments that agree with it."""
        index_dir = build(tmp_path)
        model = {kw: set(nodes) for kw, nodes in initial_lists().items()}
        first, second = [node for node in UNIVERSE if node not in model["ka"]][:2]
        with pytest.raises(OSError, match="disk full"):
            with IndexUpdater(index_dir) as updater:
                real = updater._il.insert

                def insert_once_then_fail(key, value):
                    real(key, value)
                    raise OSError("disk full")

                updater._il.insert = insert_once_then_fail
                updater.add_postings({"ka": [(first, ""), (second, "")]})
        model["ka"].add(first)
        assert load_manifest(index_dir)["generation"] == 1  # readers must refresh
        # (The manifest's posting total is the caller's to repair; every
        # structure derived from the IL tree must agree with it.)
        assert segment_bytes(index_dir) == full_rebuild(index_dir, tmp_path)
        assert fsck_index(index_dir).ok
        with DiskKeywordIndex(index_dir) as index:
            assert index.keyword_list("ka") == sorted(model["ka"])
            assert index.frequency("ka") == len(model["ka"])

    def test_scan_tree_out_of_step_is_reported_then_repaired_by_close(self, tmp_path):
        """An updater that died between an IL write and its block edit
        leaves a posting without a record; the next edit of that posting
        must not guess, and ``close()`` re-derives the keyword's blocks."""
        index_dir = build(tmp_path)
        posting = initial_lists()["ka"][0]
        with pytest.raises(IndexFormatError, match="out of step"):
            with IndexUpdater(index_dir) as updater:
                assert updater._scan.delete(keyword_range("ka")[0])  # the list's first block
                updater.remove_postings({"ka": [posting]})
        assert fsck_index(index_dir).ok
        assert segment_bytes(index_dir) == full_rebuild(index_dir, tmp_path)
        with DiskKeywordIndex(index_dir) as index:
            assert index.keyword_list("ka") == initial_lists()["ka"][1:]

    def test_updater_without_changes_leaves_the_same_file(self, tmp_path, write_paths):
        index_dir = build(tmp_path)
        before = segment_bytes(index_dir)
        with IndexUpdater(index_dir):
            pass
        assert segment_bytes(index_dir) == before
        assert write_paths == [True]


# -- block edits, call by call ---------------------------------------------------

TAGS = ("", "title", "author")


class BlockEdits(RuleBasedStateMachine):
    """One index under a sequence of updater calls and commits, against a
    model ``{keyword: {dewey: tag}}``.  Pages are 256 bytes, so a scan
    block holds about twenty postings and "kb" starts with ten blocks."""

    def __init__(self):
        super().__init__()
        self.tmp_path = Path(tempfile.mkdtemp(prefix="block-edits-"))
        self.index_dir = build(self.tmp_path)
        self.model = {kw: dict.fromkeys(nodes, "") for kw, nodes in initial_lists().items()}
        self.model.update((kw, {}) for kw in VOCABULARY if kw not in self.model)
        self.updater = IndexUpdater(self.index_dir)
        # Every tag is in the dictionary before the first check: a reader
        # loads tags.json, which only close() rewrites.
        self.call("add", "zz", dict(zip(UNIVERSE[:3], TAGS)))
        self.commit()
        self.reader = DiskKeywordIndex(self.index_dir, use_segments=False)

    def teardown(self):
        self.reader.close()
        self.updater.close()
        shutil.rmtree(self.tmp_path, ignore_errors=True)

    def call(self, op, keyword, postings):
        """One updater call; *postings* is ``{dewey: tag}`` (tags ignored
        by a remove).  Its count and its generation bump must match what
        the model says changed."""
        have = self.model[keyword]
        generation = current_generation(self.index_dir)
        if op == "add":
            fresh = sum(1 for dewey in postings if dewey not in have)
            changed = any(have.get(dewey) != tag for dewey, tag in postings.items())
            assert self.updater.add_postings({keyword: list(postings.items())}) == fresh
            have.update(postings)
        else:
            doomed = [dewey for dewey in postings if dewey in have]
            changed = bool(doomed)
            assert self.updater.remove_postings({keyword: list(postings)}) == len(doomed)
            for dewey in doomed:
                del have[dewey]
        assert current_generation(self.index_dir) == generation + changed

    def blocks(self, keyword):
        """The keyword's scan blocks as lists of Dewey numbers."""
        self.reader.generation()
        decode = self.reader.codec.decode
        return [
            [decode(encoded) for encoded, _ in unpack_tagged_block(value)]
            for _, value in self.reader.scan_tree.scan(*keyword_range(keyword))
        ]

    keywords = st.sampled_from(VOCABULARY)
    nodes = st.lists(st.sampled_from(UNIVERSE), min_size=1, max_size=6, unique=True)

    @rule(keyword=keywords, nodes=nodes, tag=st.sampled_from(TAGS))
    def add(self, keyword, nodes, tag):
        self.call("add", keyword, dict.fromkeys(nodes, tag))

    @rule(keyword=keywords, nodes=nodes)
    def remove(self, keyword, nodes):
        self.call("remove", keyword, dict.fromkeys(nodes))

    @rule(keyword=keywords, start=st.integers(0, len(UNIVERSE) - 80))
    def split_a_block_repeatedly(self, keyword, start):
        """Eighty neighbours land in the same block or two, four blocks'
        worth; the second call lands inside what the first one split."""
        for run in (UNIVERSE[start:start + 80:2], UNIVERSE[start + 1:start + 80:2]):
            self.call("add", keyword, dict.fromkeys(run, "title"))
        assert len(self.blocks(keyword)) >= 4

    @rule(keyword=st.sampled_from(BUILT), which=st.sampled_from((0, 0.5, 1)))
    def empty_a_block(self, keyword, which):
        blocks = self.blocks(keyword)
        if blocks:
            self.call("remove", keyword, dict.fromkeys(blocks[int(which * (len(blocks) - 1))]))
            assert len(self.blocks(keyword)) == len(blocks) - 1

    @rule(keyword=keywords, nodes=nodes)
    def empty_and_recreate_a_keyword(self, keyword, nodes):
        self.call("remove", keyword, dict(self.model[keyword]))
        assert self.blocks(keyword) == []
        self.call("add", keyword, dict.fromkeys(nodes, "author"))

    @rule(keyword=st.sampled_from(BUILT))
    def insert_below_the_first_posting(self, keyword):
        """With the first block gone, nothing in the keyword's range is
        below the document root's key: a block keyed by the lower bound
        is created again, in front of blocks keyed by their postings."""
        blocks = self.blocks(keyword)
        if len(blocks) > 1:
            self.call("remove", keyword, dict.fromkeys(blocks[0]))
            self.call("add", keyword, {UNIVERSE[0]: ""})
            assert self.blocks(keyword)[:2] == [[UNIVERSE[0]], blocks[1]]

    @rule(keyword=keywords, tag=st.sampled_from(TAGS), step=st.integers(1, 7))
    def change_tags_only(self, keyword, tag, step):
        self.call("add", keyword, dict.fromkeys(sorted(self.model[keyword])[::step], tag))

    @rule()
    def commit(self):
        self.updater.close()
        assert_committed(self.index_dir, self.tmp_path, self.model)
        self.updater = IndexUpdater(self.index_dir)

    @invariant()
    def trees_agree_with_the_model(self):
        reader = self.reader
        reader.generation()  # an in-process bump reloads the handle
        for keyword, have in self.model.items():
            lo, hi = keyword_range(keyword)
            il_run = [
                (key[len(lo):], int.from_bytes(tag, "big"))
                for key, tag in reader.il_tree.scan(lo, hi)
            ]
            scan_run = [
                posting
                for _, value in reader.scan_tree.scan(lo, hi)
                for posting in unpack_tagged_block(value)
            ]
            assert scan_run == il_run
            assert list(reader.scan_tagged(keyword)) == sorted(have.items())
        # Scan Eager mid-update reads the blocks just edited.  (The handle
        # sizes its cursors from frequency.json, which close() rewrites.)
        for pair in (("ka", "kb"), ("kb", "kc")):
            if all(self.model[kw] and reader.frequency(kw) for kw in pair):
                want = sorted(slca_by_containment([sorted(self.model[kw]) for kw in pair]))
                assert list(eager_slca(reader.sources_for(pair, "scan"))) == want


TestBlockEdits = BlockEdits.TestCase
#: An eighth of the active profile's examples: a dozen by default, fifty
#: under the ``ci`` profile (``tests/conftest.py``) the CI tests job selects.
TestBlockEdits.settings = settings(
    max_examples=settings.default.max_examples // 8, stateful_step_count=12, deadline=None
)


# -- the cold path: bases that must not be copied from --------------------------


def stale_stamp(index_dir):
    """Replace the file with one stamped a generation behind the manifest."""
    with IndexUpdater(index_dir) as updater:  # generation 0 -> 1
        updater.add_postings({"ka": [((0, 3, 3, 3, 3), "")]})
    lists, generation, layout = il_lists(index_dir)
    assert generation == 1
    write_segments(segments_path(index_dir), sorted(lists.items()), generation - 1, layout)


def older_format(index_dir):
    with open(segments_path(index_dir), "r+b") as fh:
        fh.seek(4)
        fh.write(struct.pack(">H", 2))


def truncated(index_dir):
    with open(segments_path(index_dir), "r+b") as fh:
        fh.truncate(10)


def emptied(index_dir):
    with open(segments_path(index_dir), "r+b") as fh:
        fh.truncate(0)


def missing(index_dir):
    os.remove(segments_path(index_dir))


def foreign_order(index_dir):
    """A well-formed, correctly stamped file whose lists are not in the
    writer's keyword order: copying runs of it would not reproduce a
    rebuild."""
    lists, generation, layout = il_lists(index_dir)
    write_segments(
        segments_path(index_dir), sorted(lists.items(), reverse=True), generation, layout
    )


class TestColdPath:
    @pytest.mark.parametrize(
        "damage", [stale_stamp, older_format, truncated, emptied, missing, foreign_order]
    )
    def test_untrusted_base_is_rebuilt_in_full(self, tmp_path, write_paths, damage):
        index_dir = build(tmp_path)
        damage(index_dir)
        del write_paths[:]
        with IndexUpdater(index_dir) as updater:
            assert updater.add_postings({"kc": [((0, 2, 2, 2, 2), "")]}) == 1
        assert write_paths[-1] is False
        assert segment_bytes(index_dir) == full_rebuild(index_dir, tmp_path)
        assert not os.path.exists(segments_path(index_dir) + ".base")
        assert fsck_index(index_dir).ok
        # The rebuilt file is a good base again.
        with IndexUpdater(index_dir) as updater:
            updater.remove_postings({"kc": [(0, 2, 2, 2, 2)]})
        assert write_paths[-1] is True
        assert segment_bytes(index_dir) == full_rebuild(index_dir, tmp_path)

    def test_empty_segment_file_downgrades_a_reader(self, tmp_path):
        index_dir = build(tmp_path)
        emptied(index_dir)
        with DiskKeywordIndex(index_dir) as index:  # logged, not raised
            assert index.posting_tier() == "bptree"
            assert index.keyword_list("ka") == initial_lists()["ka"]

    def test_abandoned_updater_poisons_the_base(self, tmp_path, write_paths):
        """Another process changed the trees and died before ``close()``:
        its stamp-correct base no longer reflects the IL tree, so the next
        commit may not copy "ka" from it even though it never touches it."""
        index_dir = build(tmp_path)
        script = (
            "import os, sys\n"
            "from repro.index.updates import IndexUpdater\n"
            "updater = IndexUpdater(sys.argv[1])\n"
            "assert updater.add_postings({'ka': [((0, 3, 3, 3, 3), '')]}) == 1\n"
            "updater._pager.close()  # its page writes reached the file ...\n"
            "os._exit(0)             # ... its close() never ran\n"
        )
        subprocess.run([sys.executable, "-c", script, str(index_dir)], check=True, timeout=60)
        assert not os.path.exists(segments_path(index_dir))  # out of service
        assert current_generation(index_dir) == load_manifest(index_dir)["generation"]
        with IndexUpdater(index_dir) as updater:
            updater.add_postings({"kc": [((0, 2, 2, 2, 2), "")]})
        assert write_paths == [False]
        rebuilt = full_rebuild(index_dir, tmp_path)
        assert segment_bytes(index_dir) == rebuilt
        assert not os.path.exists(segments_path(index_dir) + ".base")
        with open_index_segments(index_dir) as reader:
            assert (0, 3, 3, 3, 3) in set(reader.scan("ka"))

    def test_copied_crcs_still_expose_damage_in_the_base(self, tmp_path, write_paths):
        index_dir = build(tmp_path)
        with open_index_segments(index_dir) as reader:
            offset = reader.byte_offset("kb")
        with open(segments_path(index_dir), "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)[0]
            fh.seek(offset)
            fh.write(bytes([byte ^ 0x40]))
        with IndexUpdater(index_dir) as updater:
            updater.add_postings({"ka": [((0, 3, 3, 3, 3), "")]})
        assert write_paths == [True]  # "kb" was copied, flipped bit and all
        with DiskKeywordIndex(index_dir, verify_checksums=True) as index:
            index.sources_for(("ka",), "indexed")  # a re-derived list verifies
            with pytest.raises(CorruptionError):
                index.sources_for(("kb",), "indexed")
            assert not index.segments_active()  # quarantined
        errors = fsck_index(index_dir).errors
        assert any("segment block 'kb'#0" in error for error in errors)
        assert any("segment/il divergence for 'kb'" in error for error in errors)


    def test_damage_in_a_touched_list_condemns_the_base(self, tmp_path, write_paths):
        """A touched list's keys are lifted from the base and written with
        fresh CRCs, so they are checked against the stored ones first."""
        index_dir = build(tmp_path)
        with open_index_segments(index_dir) as reader:
            offset = reader.byte_offset("kb")
        with open(segments_path(index_dir), "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)[0]
            fh.seek(offset)
            fh.write(bytes([byte ^ 0x40]))
        with IndexUpdater(index_dir) as updater:
            updater.add_postings({"ka": [((0, 3, 3, 3, 3), "")], "kb": [((0, 3, 3, 3, 3), "")]})
        assert write_paths == [False]
        assert segment_bytes(index_dir) == full_rebuild(index_dir, tmp_path)
        assert fsck_index(index_dir).ok


# -- publish order ---------------------------------------------------------------


class TestPublishOrder:
    def test_manifest_is_swapped_in_last_over_a_complete_index(self, tmp_path, monkeypatch):
        """Other processes watch ``manifest.json``: when it changes, the
        pages, segments and metadata it describes must already be in
        place, and it must never be seen half-written."""
        index_dir = build(tmp_path)
        posting = (0, 3, 3, 3, 3)
        swapped = []
        real = os.replace

        def recording(src, dst):
            name = os.path.basename(dst)
            swapped.append(name)
            if name == "manifest.json":
                with open(src, encoding="utf-8") as fh:
                    pending = json.load(fh)  # whole, parseable
                assert pending["generation"] == 1
                assert load_manifest(index_dir)["generation"] == 0  # old one intact
                with open_index_segments(index_dir) as reader:
                    assert reader.generation == 1 and posting in set(reader.scan("ka"))
                with DiskKeywordIndex(index_dir, use_segments=False) as index:
                    assert index.frequency("ka") == 41
                    assert posting in index.keyword_list("ka")
                    assert "fresh" in index.tags
            return real(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        with IndexUpdater(index_dir) as updater:
            updater.add_postings({"ka": [(posting, "fresh")]})
        monkeypatch.undo()
        assert swapped[-1] == "manifest.json"
        assert set(swapped[:-1]) == {
            "index.db.crc", "segments.dat.base", "segments.dat", "frequency.json", "tags.json",
        }
        assert load_manifest(index_dir)["generation"] == 1


# -- cost guards (counts, not clocks) -------------------------------------------


@pytest.fixture(scope="module")
def big_index(tmp_path_factory):
    """>= 80k postings in small pages: a 300-entry and a 30 000-entry list
    among 50 of 1000."""
    rng = random.Random(9)
    nodes = [(0, a, b, c) for a in range(40) for b in range(40) for c in range(40)]
    lists = {"short": sorted(rng.sample(nodes, 300)), "long": sorted(rng.sample(nodes, 30_000))}
    lists.update((f"w{i:02d}", sorted(rng.sample(nodes, 1000))) for i in range(50))
    index_dir = tmp_path_factory.mktemp("big") / "idx"
    report = build_index(
        lists, index_dir, page_size=512, level_table=LevelTable([64, 64, 64])
    )
    assert report.postings >= 80_000
    return index_dir


class TestCost:
    def test_commit_cost_follows_the_changed_postings_not_the_list_length(
        self, big_index, monkeypatch
    ):
        """The same two-posting change against a 300-entry and a
        30 000-entry list touches the same number of IL and scan nodes,
        give or take a tree height (a leaf split, a floor found one leaf
        to the left) — and the pass over a run is never made."""
        written = []
        real = BPlusTree._write_node

        def counting(self, pid, node):
            written.append(self.name)
            return real(self, pid, node)

        def no_repair(self, keyword):
            raise AssertionError(f"a successful call repaired {keyword!r}")

        monkeypatch.setattr(BPlusTree, "_write_node", counting)
        monkeypatch.setattr(IndexUpdater, "_repair", no_repair)
        change = [(0, 63, 63, 62), (0, 63, 63, 63)]  # fit the table, in no list
        cost = {}
        for keyword in ("short", "long"):
            del written[:]
            updater = IndexUpdater(big_index)
            assert updater.add_postings({keyword: [(dewey, "") for dewey in change]}) == 2
            assert updater.remove_postings({keyword: change}) == 2
            reads = updater._il.node_reads + updater._scan.node_reads
            height = updater._il.height + updater._scan.height
            updater.close()  # reads no node: untouched lists are copied
            assert updater._il.node_reads + updater._scan.node_reads == reads + height
            cost[keyword] = (reads, len(written))
        (short_reads, short_writes), (long_reads, long_writes) = cost["short"], cost["long"]
        assert abs(long_reads - short_reads) <= height
        assert abs(long_writes - short_writes) <= height
        # Per changed posting: a descent of each tree (the scan tree's twice,
        # to find the block and to store it) and a leaf written in each.
        assert long_reads <= 4 * 2 * height and long_writes <= 4 * 3
        monkeypatch.undo()
        assert fsck_index(big_index).ok

    def test_open_and_refresh_read_inner_nodes_plus_one_leaf_per_tree(
        self, big_index, monkeypatch
    ):
        reads = []
        real = Pager.read_page

        def counting(self, pid):
            reads.append(pid)
            return real(self, pid)

        monkeypatch.setattr(Pager, "read_page", counting)
        with DiskKeywordIndex(big_index) as index:
            opened = len(reads)
            del reads[:]
            index.refresh()
            refreshed = len(reads)
            monkeypatch.undo()
            inner = len(index.il_tree.internal_page_ids())
            inner += len(index.scan_tree.internal_page_ids())
            assert index.pool.pinned_pages and len(index.pool.pinned_pages) == inner
            assert inner + 2 < index.pager.num_pages // 10
        assert opened == refreshed == inner + 2


# -- semantics between a mutation and close() -----------------------------------


class TestMidUpdate:
    def test_in_process_reader_serves_both_trees_current(self, tmp_path):
        index_dir = build(tmp_path)
        model = {kw: set(nodes) for kw, nodes in initial_lists().items()}
        free = [node for node in UNIVERSE if node not in model["kb"]]
        with DiskKeywordIndex(index_dir) as index:
            assert index.segments_active()
            updater = IndexUpdater(index_dir)
            apply_calls(
                updater,
                [("add", "kb", free[:40]), ("remove", "ka", sorted(model["ka"])[::2]),
                 ("remove", "kb", free[:3])],
                model,
            )
            index.generation()  # the bump is visible in-process at once
            assert index.posting_tier() == "bptree"
            for pair in (("ka", "kb"), ("kb", "kc"), ("ka", "kc")):
                want = sorted(slca_by_containment([sorted(model[kw]) for kw in pair]))
                for mode in ("indexed", "scan"):
                    assert list(eager_slca(index.sources_for(pair, mode))) == want
            updater.close()
        assert_committed(index_dir, tmp_path, model)
