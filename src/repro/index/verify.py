"""Index integrity verification — ``xksearch verify`` / ``xksearch fsck``.

Walks an index directory end to end and cross-checks every redundant
structure against the others:

* both B+trees satisfy their structural invariants (key order, subtree
  bounds, leaf-chain consistency);
* every IL posting parses — valid composite key, decodable Dewey number
  that fits the level table, in-range tag id — and keys ascend globally;
* the scan tree's blocks, decoded, reproduce *exactly* the IL tree's
  postings per keyword (same Dewey numbers, same tags, same order), and
  — in an index that keys them by their first posting, the scheme
  :class:`~repro.index.updates.IndexUpdater` edits in place — every
  block is non-empty, fits a page, and sits under a key that is at most
  its first posting and above the previous block's last;
* the frequency table matches the actual list lengths, with no phantom or
  missing keywords.

Returns a :class:`VerifyReport`; a non-empty ``errors`` list means the
index should be rebuilt from the source document.

``fsck_index`` (``xksearch fsck``) runs all of the above **plus** the
stored-checksum sweeps from docs/ROBUSTNESS.md: every B+tree page is
re-checksummed against the pager's ``.crc`` sidecar and every chunk of
every keyword's packed keys against the segment file's CRC table — the
offline counterpart of ``serve --verify-checksums`` — the segment
file's format version is compared with the one the manifest records, and
a segment file stamped with the manifest's generation (the only kind
readers use) must hold, keyword for keyword, exactly the keys of the IL
tree's postings: the oracle for commits that copy untouched lists from
the previous file instead of re-deriving them
(:mod:`repro.index.updates`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.errors import ReproError
from repro.index.builder import load_manifest
from repro.index.inverted import DiskKeywordIndex
from repro.storage.records import keyword_range, split_posting_key, unpack_tagged_block
from repro.xmltree.dewey import DeweyTuple


@dataclass
class VerifyReport:
    """Outcome of one verification run."""

    checks: int = 0
    postings: int = 0
    keywords: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def _fail(self, message: str) -> None:
        if len(self.errors) < 50:  # cap noise on badly damaged indexes
            self.errors.append(message)

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAILED ({len(self.errors)} error(s))"
        lines = [
            f"verification {status}: {self.checks} checks over "
            f"{self.postings} postings / {self.keywords} keywords"
        ]
        lines.extend(f"  - {error}" for error in self.errors)
        return "\n".join(lines)


def verify_index(index_dir: Union[str, os.PathLike]) -> VerifyReport:
    """Run all integrity checks over an index directory."""
    report = VerifyReport()
    try:
        load_manifest(index_dir)
    except ReproError as exc:
        report._fail(f"manifest: {exc}")
        return report
    try:
        index = DiskKeywordIndex(index_dir)
    except ReproError as exc:
        report._fail(f"open: {exc}")
        return report
    with index:
        _check_btree_structure(index, report)
        il_postings = _check_il_postings(index, report)
        _check_scan_blocks(index, report, il_postings)
        _check_frequencies(index, report, il_postings)
    return report


def fsck_index(index_dir: Union[str, os.PathLike]) -> VerifyReport:
    """``verify_index`` plus the stored-checksum sweeps (``xksearch fsck``)."""
    report = verify_index(index_dir)
    _check_page_checksums(index_dir, report)
    _check_segments(index_dir, report)
    return report


def _check_page_checksums(
    index_dir: Union[str, os.PathLike], report: VerifyReport
) -> None:
    """Re-checksum every B+tree page against the ``.crc`` sidecar."""
    from repro.errors import CorruptionError
    from repro.index.builder import INDEX_FILE_NAME
    from repro.storage.pager import Pager, crc_sidecar_path

    index_file = os.path.join(os.fspath(index_dir), INDEX_FILE_NAME)
    if not os.path.exists(crc_sidecar_path(index_file)):
        report._fail(
            f"no page-checksum sidecar at {crc_sidecar_path(index_file)} "
            "(index predates checksummed storage; rebuild to create one)"
        )
        return
    try:
        pager = Pager(index_file, readonly=True, verify_checksums=True)
    except ReproError as exc:
        report._fail(f"pager open for checksum sweep: {exc}")
        return
    with pager:
        covered = len(getattr(pager, "_page_crcs", {}))
        if covered == 0:
            report._fail("page-checksum sidecar holds no checksums")
        # Page 0 is the header (parsed and validated at open); data pages
        # start at 1.
        for pid in range(1, pager.num_pages):
            try:
                pager.read_page(pid)
            except CorruptionError as exc:
                report._fail(f"page {pid}: {exc}")
            except ReproError as exc:
                report._fail(f"page {pid} unreadable: {exc}")
    report.checks += 1


def _check_segments(
    index_dir: Union[str, os.PathLike], report: VerifyReport
) -> None:
    """Re-checksum every chunk of the packed posting segments, and compare
    a current file's keys with the IL tree's."""
    from repro.index.segments import (
        open_index_segments,
        segments_path,
        stored_version,
    )

    path = segments_path(index_dir)
    if not os.path.exists(path):
        return  # segments are optional; nothing to sweep
    manifest = load_manifest(index_dir)
    recorded = (manifest.get("segments") or {}).get("version")
    on_disk = stored_version(path)
    if recorded != on_disk:
        report._fail(
            f"manifest records segments version {recorded}, "
            f"{path} is version {on_disk}"
        )
    try:
        reader = open_index_segments(index_dir)
    except ReproError as exc:
        report._fail(f"segments open for checksum sweep: {exc} (rebuild to upgrade)")
        return
    if reader is None:
        report._fail("segments file present but this index has no integer-key layout")
        return
    with reader:
        for keyword in reader.keywords():
            for chunk in reader.corrupt_chunks(keyword):
                report._fail(
                    f"segment block {keyword!r}#{chunk}: checksum mismatch"
                )
        report.checks += 1
        if reader.generation == manifest.get("generation", 0):
            _check_segment_keys(index_dir, reader, report)


def _check_segment_keys(index_dir, reader, report: VerifyReport) -> None:
    """The segment file must hold exactly the IL tree's postings: the
    same keywords, and per keyword the keys of its IL key suffixes."""
    key_of = reader.layout.key_of_encoding
    derived: Dict[str, List[int]] = {}
    try:
        with DiskKeywordIndex(index_dir, use_segments=False) as index:
            for key, _ in index.il_tree.scan():
                keyword, encoded = split_posting_key(key)
                derived.setdefault(keyword, []).append(key_of(encoded))
    except (ReproError, ValueError) as exc:
        report._fail(f"segment/il cross-check aborted: {exc}")
        return
    report.checks += 1
    for keyword in sorted(derived.keys() | set(reader.keywords())):
        want = derived.get(keyword, [])
        have = list(reader.keys(keyword)) if keyword in reader else []
        if have != want:
            at = next(
                (i for i, (a, b) in enumerate(zip(have, want)) if a != b),
                min(len(have), len(want)),
            )
            report._fail(
                f"segment/il divergence for {keyword!r}: {len(have)} keys vs "
                f"{len(want)} postings, first difference at position {at}"
            )


def _check_btree_structure(index: DiskKeywordIndex, report: VerifyReport) -> None:
    for name, tree in (("il", index.il_tree), ("scan", index.scan_tree)):
        try:
            problems = tree.check_invariants()
        except ReproError as exc:
            report._fail(f"{name} tree unreadable: {exc}")
            continue
        report.checks += 1
        for problem in problems:
            report._fail(f"{name} tree: {problem}")


def _check_il_postings(
    index: DiskKeywordIndex, report: VerifyReport
) -> Dict[str, List[Tuple[DeweyTuple, int]]]:
    """Validate and collect every IL posting, grouped by keyword."""
    postings: Dict[str, List[Tuple[DeweyTuple, int]]] = {}
    previous_key = None
    try:
        for key, value in index.il_tree.scan():
            report.postings += 1
            if previous_key is not None and key <= previous_key:
                report._fail(f"il tree: keys not strictly ascending at {key!r}")
            previous_key = key
            try:
                keyword, encoded = split_posting_key(key)
                dewey = index.codec.decode(encoded)
                index.level_table.check_fits(dewey)
            except ReproError as exc:
                report._fail(f"il posting {key!r}: {exc}")
                continue
            if len(value) != 2:
                report._fail(f"il posting {keyword}/{dewey}: bad tag payload")
                continue
            tag_id = int.from_bytes(value, "big")
            if tag_id >= len(index.tags):
                report._fail(
                    f"il posting {keyword}/{dewey}: tag id {tag_id} out of range"
                )
            postings.setdefault(keyword, []).append((dewey, tag_id))
    except ReproError as exc:
        report._fail(f"il tree scan aborted: {exc}")
    report.checks += 1
    report.keywords = len(postings)
    return postings


def _check_scan_blocks(
    index: DiskKeywordIndex,
    report: VerifyReport,
    il_postings: Dict[str, List[Tuple[DeweyTuple, int]]],
) -> None:
    """The scan tree must reproduce the IL tree's contents exactly."""
    seen_keywords = set()
    for keyword in il_postings:
        seen_keywords.add(keyword)
        try:
            scanned = [
                (dewey, index._tag_ids.get(tag, -1))
                for dewey, tag in index.scan_tagged(keyword)
            ]
        except ReproError as exc:
            report._fail(f"scan blocks for {keyword!r} unreadable: {exc}")
            continue
        report.checks += 1
        if scanned != il_postings[keyword]:
            report._fail(
                f"scan/il divergence for {keyword!r}: "
                f"{len(scanned)} vs {len(il_postings[keyword])} postings"
            )
        deweys = [dewey for dewey, _ in scanned]
        if deweys != sorted(set(deweys)):
            report._fail(f"scan blocks for {keyword!r} not strictly sorted")
        problem = _block_key_violation(index, keyword)
        if problem:
            report._fail(f"scan block keys for {keyword!r}: {problem}")


def _block_key_violation(index: DiskKeywordIndex, keyword: str) -> str:
    """The first breach of the separator invariant among *keyword*'s
    blocks ("" if none): what lets the updater find a posting's block by
    the floor of its IL key."""
    lo, hi = keyword_range(keyword)
    last = None  # IL key of the previous block's last posting
    for number, (key, value) in enumerate(index.scan_tree.scan(lo, hi)):
        encodings = [encoded for encoded, _ in unpack_tagged_block(value)]
        if not encodings:
            return f"block {number} is empty"
        if len(key) + len(value) > index.scan_tree.page_capacity:
            return f"block {number} does not fit a page"
        if key > lo + encodings[0]:
            return f"block {number} is keyed above its first posting"
        if last is not None and key <= last:
            return f"block {number} is keyed at or below the previous block's last posting"
        last = lo + encodings[-1]
    return ""


def _check_frequencies(
    index: DiskKeywordIndex,
    report: VerifyReport,
    il_postings: Dict[str, List[Tuple[DeweyTuple, int]]],
) -> None:
    table = dict(index.frequency_table.items())
    report.checks += 1
    for keyword, plist in il_postings.items():
        recorded = table.pop(keyword, None)
        if recorded != len(plist):
            report._fail(
                f"frequency table says {recorded} for {keyword!r}, "
                f"index holds {len(plist)}"
            )
    for keyword, recorded in table.items():
        report._fail(f"frequency table lists absent keyword {keyword!r} ({recorded})")
