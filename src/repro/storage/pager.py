"""Page-oriented file storage.

The disk substrate under the B+tree indexes: a file divided into fixed-size
pages with explicit physical-I/O accounting.  The paper's experiments hinge
on counting disk accesses (Table 1 and the cold-cache Figures 11-13), so the
pager records every physical read and write and classifies reads as
*sequential* (the page immediately after the previously read one) or
*random* — the distinction the disk cost model charges differently.

Page 0 is a header page owned by the pager itself: it stores a magic
number, the page size, and a small JSON metadata dictionary used by higher
layers (the B+tree keeps its root pointer there).

**Read-only mmap mode** (``Pager(path, readonly=True)``) maps the file
instead of streaming it through a seekable descriptor.  Page reads slice
the mapping, so the bytes come straight out of the OS page cache — one
physical copy of the index shared by every process that maps it — and the
pager carries no file-offset state, which makes a handle safe to use after
``fork()`` (a plain ``seek``/``read`` pager shares its offset with the
child and the two interleave destructively).  This is the read path the
process-pool workers use (:mod:`repro.xksearch.parallel`): N workers cost
one buffer pool's worth of physical memory, not N.  All mutating
operations raise :class:`~repro.errors.StorageError` in this mode, and
``stats.reads`` counts page *touches* rather than physical I/O (the page
cache makes true disk reads unobservable through a mapping).

**Page checksums.**  Every writable pager records a 32-bit checksum of
each page it writes into a JSON sidecar (``<path>.crc``, written
atomically on ``sync``/``close``), so write-time checksumming is always
on and costs nothing on the read path.  A pager opened with
``verify_checksums=True`` re-checksums every page it reads and raises
:class:`~repro.errors.CorruptionError` (counting
``xks_corruption_detected_total{tier="bptree"}``) on a mismatch.  Unlike
the posting segments there is no quarantine-and-retry here: the B+trees
*are* the ground truth, so a bad tree page is an unrecoverable error,
surfaced loudly rather than served silently.  Pages absent from the
sidecar (pre-sidecar files, or pages written by a crashed process) are
served unverified.
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.errors import CorruptionError, PageError, StorageError
from repro.robustness import faultinject
from repro.robustness.checksum import ALGORITHM, checksum, count_corruption

DEFAULT_PAGE_SIZE = 4096
_MAGIC = b"XKPG"
_FORMAT_VERSION = 1


def crc_sidecar_path(path: Union[str, os.PathLike]) -> str:
    """The page-checksum sidecar next to a pager file."""
    return os.fspath(path) + ".crc"


def open_readonly_mmap(path: Union[str, os.PathLike]) -> mmap.mmap:
    """Map *path* read-only and return the mapping.

    The readonly-mmap discipline factored out of ``Pager(readonly=True)``
    so other immutable on-disk structures (the packed posting segments of
    :mod:`repro.index.segments`) share it: the mapping serves bytes from
    the OS page cache — one physical copy per machine, shared across
    threads and forked workers — and holds no descriptor offset state, so
    it is safe to use after ``fork()``.  The underlying descriptor is
    closed before returning; the mapping keeps the file alive.
    """
    fh = open(os.fspath(path), "rb")
    try:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    finally:
        fh.close()


def write_json_atomic(path: Union[str, os.PathLike], payload, **dump_kwargs) -> None:
    """Publish *payload* as JSON at *path* in one step.

    Written to a temporary sibling, flushed to disk, then renamed over
    *path*: a reader in another process sees the old file or the whole
    new one, never a partial write.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, **dump_kwargs)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


@dataclass
class IOStats:
    """Physical I/O counters maintained by the pager."""

    reads: int = 0
    writes: int = 0
    sequential_reads: int = 0
    random_reads: int = 0

    def snapshot(self) -> "IOStats":
        """An independent copy (for before/after deltas)."""
        return IOStats(self.reads, self.writes, self.sequential_reads, self.random_reads)

    def delta(self, before: "IOStats") -> "IOStats":
        """Counters accumulated since *before*."""
        return IOStats(
            self.reads - before.reads,
            self.writes - before.writes,
            self.sequential_reads - before.sequential_reads,
            self.random_reads - before.random_reads,
        )

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.sequential_reads = 0
        self.random_reads = 0

    def as_dict(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "sequential_reads": self.sequential_reads,
            "random_reads": self.random_reads,
        }


@dataclass
class CostModel:
    """Charges counted page accesses as modeled I/O time.

    Defaults approximate the paper's setting — a 2005 laptop disk holding a
    BerkeleyDB-style B-tree file: ~5 ms for a random page access (seek +
    rotation) and ~2.5 ms for a page whose predecessor was just read
    (B-tree leaf chains are only approximately physically contiguous, so
    "sequential" reads still pay short seeks).  The experiment harness
    reports modeled time = CPU time + charged I/O so the cold-cache figures
    have the paper's shape without needing a spinning disk; both constants
    are configurable, and the harness also prints raw page-access counts,
    which are model-free.
    """

    random_ms: float = 5.0
    sequential_ms: float = 2.5

    def charge(self, stats: IOStats) -> float:
        """Modeled milliseconds for the read pattern in *stats*."""
        return stats.random_reads * self.random_ms + stats.sequential_reads * self.sequential_ms


class Pager:
    """Fixed-size-page file with allocation, metadata and I/O counters."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        page_size: int = DEFAULT_PAGE_SIZE,
        create: bool = False,
        readonly: bool = False,
        verify_checksums: bool = False,
    ):
        self.path = os.fspath(path)
        self.page_size = page_size
        self.readonly = readonly
        self.verify_checksums = verify_checksums
        self.stats = IOStats()
        self._meta: Dict[str, object] = {}
        self._last_read_pid: Optional[int] = None
        self._map: Optional[mmap.mmap] = None
        self._page_crcs: Dict[int, int] = {}
        self._crc_algorithm = ALGORITHM
        self._crc_dirty = False
        self._load_crc_sidecar()
        if readonly:
            if create:
                raise StorageError("cannot create a pager file in readonly mode")
            if not os.path.exists(self.path):
                raise PageError(f"{self.path}: no such pager file")
            self._file = open(self.path, "rb")
            self._read_header()
            size = os.fstat(self._file.fileno()).st_size
            if size % self.page_size:
                raise PageError(f"file size {size} is not a multiple of page size")
            self._num_pages = max(1, size // self.page_size)
            self._remap()
            return
        if create or not os.path.exists(self.path):
            self._file = open(self.path, "w+b")
            self._num_pages = 1
            # A fresh file invalidates any sidecar left by a previous one.
            self._page_crcs = {}
            self._crc_dirty = True
            self._write_header()
        else:
            self._file = open(self.path, "r+b")
            self._read_header()
            size = os.fstat(self._file.fileno()).st_size
            if size % self.page_size:
                raise PageError(f"file size {size} is not a multiple of page size")
            self._num_pages = max(1, size // self.page_size)

    def _remap(self) -> None:
        """(Re)map the whole file for the readonly read path."""
        if self._map is not None:
            self._map.close()
        self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)

    # -- checksum sidecar ----------------------------------------------------

    def _load_crc_sidecar(self) -> None:
        sidecar = crc_sidecar_path(self.path)
        if not os.path.exists(sidecar):
            return
        try:
            with open(sidecar, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            self._crc_algorithm = payload.get("algorithm", ALGORITHM)
            self._page_crcs = {
                int(pid): int(crc) for pid, crc in payload.get("crcs", {}).items()
            }
        except (ValueError, OSError):
            # An unreadable sidecar only loses verification, never data;
            # a writable pager rewrites it wholesale on the next sync.
            self._page_crcs = {}

    def _save_crc_sidecar(self) -> None:
        if not self._crc_dirty:
            return
        payload = {
            "algorithm": self._crc_algorithm,
            "page_size": self.page_size,
            "crcs": {str(pid): crc for pid, crc in sorted(self._page_crcs.items())},
        }
        write_json_atomic(crc_sidecar_path(self.path), payload, separators=(",", ":"))
        self._crc_dirty = False

    def _note_write(self, pid: int, padded: bytes) -> None:
        self._page_crcs[pid] = checksum(padded, self._crc_algorithm)
        self._crc_dirty = True

    def _verify_page(self, pid: int, data: bytes) -> None:
        expected = self._page_crcs.get(pid)
        if expected is None:
            return
        if checksum(data, self._crc_algorithm) != expected:
            count_corruption("bptree")
            raise CorruptionError(
                f"{self.path}: page {pid} failed checksum verification",
                tier="bptree",
            )

    # -- header ------------------------------------------------------------

    def _write_header(self) -> None:
        self._check_writable()
        meta_bytes = json.dumps(self._meta).encode("utf-8")
        header = (
            _MAGIC
            + _FORMAT_VERSION.to_bytes(2, "big")
            + self.page_size.to_bytes(4, "big")
            + len(meta_bytes).to_bytes(4, "big")
            + meta_bytes
        )
        if len(header) > self.page_size:
            raise StorageError("pager metadata does not fit in the header page")
        padded = header.ljust(self.page_size, b"\x00")
        self._file.seek(0)
        self._file.write(padded)
        self.stats.writes += 1
        self._note_write(0, padded)

    def _read_header(self) -> None:
        # os.pread carries no file-offset state, so re-reading the header
        # (generation refresh) stays safe for handles shared across fork.
        raw = os.pread(self._file.fileno(), self.page_size or DEFAULT_PAGE_SIZE, 0)
        if raw[:4] != _MAGIC:
            raise PageError(f"{self.path}: not a pager file (bad magic)")
        version = int.from_bytes(raw[4:6], "big")
        if version != _FORMAT_VERSION:
            raise PageError(f"{self.path}: unsupported format version {version}")
        self.page_size = int.from_bytes(raw[6:10], "big")
        if len(raw) < self.page_size:
            raw = os.pread(self._file.fileno(), self.page_size, 0)
        meta_len = int.from_bytes(raw[10:14], "big")
        self._meta = json.loads(raw[14:14 + meta_len].decode("utf-8"))

    def reload_header(self) -> None:
        """Re-read the header page (and file size) from disk.

        Used when another pager instance — e.g. an
        :class:`~repro.index.updates.IndexUpdater` — has modified the same
        file: picks up the new metadata (B+tree root pointers) and any
        pages appended since this pager was opened.
        """
        self._read_header()
        # A seek from the end also drops the file object's read-ahead
        # buffer (one inside the buffer would keep it), which may hold
        # neighbours of the last page read as they were before the change.
        size = self._file.seek(0, os.SEEK_END)
        self._num_pages = max(1, size // self.page_size)
        self._last_read_pid = None
        # The writer that changed the file also rewrote the sidecar.
        self._load_crc_sidecar()
        if self.readonly:
            self._remap()

    def get_meta(self, key: str, default=None):
        """Read a metadata entry from the header page."""
        return self._meta.get(key, default)

    def set_meta(self, key: str, value) -> None:
        """Write a metadata entry (persisted immediately)."""
        self._meta[key] = value
        self._write_header()

    # -- pages -------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return self._num_pages

    def allocate(self) -> int:
        """Reserve a fresh page id (contents undefined until written)."""
        self._check_writable()
        pid = self._num_pages
        self._num_pages += 1
        return pid

    def read_page(self, pid: int) -> bytes:
        """Physically read page *pid*, updating the I/O counters."""
        self._check_pid(pid)
        if self._map is not None:
            offset = pid * self.page_size
            if offset + self.page_size > len(self._map):
                # The file grew since the mapping was made (an updater
                # appended pages); remap to cover the new tail.
                self._remap()
            data = self._map[offset:offset + self.page_size]
        else:
            self._file.seek(pid * self.page_size)
            data = self._file.read(self.page_size)
        if len(data) < self.page_size:
            data = data.ljust(self.page_size, b"\x00")
        faultinject.maybe_delay("delay-io")
        if self.verify_checksums:
            self._verify_page(pid, data)
        self.stats.reads += 1
        if self._last_read_pid is not None and pid == self._last_read_pid + 1:
            self.stats.sequential_reads += 1
        else:
            self.stats.random_reads += 1
        self._last_read_pid = pid
        return data

    def write_page(self, pid: int, data: bytes) -> None:
        """Physically write page *pid* (data padded/validated to page size)."""
        self._check_writable()
        self._check_pid(pid)
        if len(data) > self.page_size:
            raise PageError(
                f"page image of {len(data)} bytes exceeds page size {self.page_size}"
            )
        padded = data.ljust(self.page_size, b"\x00")
        self._file.seek(pid * self.page_size)
        self._file.write(padded)
        self.stats.writes += 1
        self._note_write(pid, padded)

    def _check_pid(self, pid: int) -> None:
        if pid < 1 or pid >= self._num_pages:
            raise PageError(f"page id {pid} out of range [1, {self._num_pages})")

    def _check_writable(self) -> None:
        if self.readonly:
            raise StorageError(f"{self.path}: pager opened readonly (mmap mode)")

    def reset_read_sequence(self) -> None:
        """Forget the last-read page so the next read counts as random."""
        self._last_read_pid = None

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        """Hand buffered page writes to the OS, so that other handles on
        the file (readers in this or another process) see them; durability
        is :meth:`sync`'s job."""
        self._check_writable()
        self._file.flush()

    def sync(self) -> None:
        self.flush()
        os.fsync(self._file.fileno())
        self._save_crc_sidecar()

    def close(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None
        if not self._file.closed:
            if not self.readonly:
                self._file.flush()
                self._save_crc_sidecar()
            self._file.close()

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
