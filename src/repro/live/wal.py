"""Durable write-ahead log for streamed weight updates (``repro.live.wal``).

The :class:`~repro.live.coordinator.UpdateCoordinator` keeps the current
weights and the overlay in process memory only — a ``kill -9`` silently
reverts a server to the weights its index was built from.  This module
makes every acknowledged batch durable: the coordinator appends each
batch here (fsync'd) *before* publishing the overlay, so an HTTP 200
on ``/admin/update`` always implies the batch survives a crash.

On-disk layout — one file per base epoch in the WAL directory::

    wal-000001.log            epoch-1 log (initial base)
    wal-000002.log            epoch-2 log (after one rebuild-and-swap)

Each file starts with the 8-byte magic ``RSPCWAL1`` followed by
length-prefixed records::

    u32-le payload length | u32-le CRC32(payload) | JSON payload

The first record of a file is always a **base** record pinning the
epoch's starting point: the base index path, the ``(epoch, seqno)``
watermark, the cumulative weight of every edge ever changed, and the
post-snapshot batches still in the overlay.  Every subsequent record is
a **batch** record carrying one normalized update batch.  Because the
base record is self-contained, rotation at a rebuild *compacts* the
log: older epoch files are deleted.

Crash semantics:

* an append that dies mid-write leaves a **torn tail** — a final record
  whose header, payload, or CRC is incomplete.  Recovery truncates the
  tail and replays the good prefix: acknowledged batches are never
  lost (the acknowledgement happens after the fsync), unacknowledged
  partial writes are dropped;
* a CRC mismatch *before* the final record is corruption, not a torn
  tail — :func:`recover_coordinator` and ``repro-spc wal-verify``
  refuse it rather than silently dropping acknowledged batches;
* rotation writes the new epoch file to a temporary name, fsyncs it,
  and renames it into place before deleting predecessors, so a crash
  mid-rotation recovers at the previous epoch.

:func:`recover_coordinator` is the startup/respawn entry point: it
reconstructs a coordinator whose graph, overlay, and ``(epoch, seqno)``
watermark are bit-identical to the pre-crash state, then reopens the
log for appending.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.dynamic import affected_nodes
from repro.core.serialize import load_index
from repro.exceptions import LiveUpdateError, ReproError
from repro.live.coordinator import UpdateCoordinator
from repro.live.overlay import OverlayState
from repro.obs import NULL_RECORDER
from repro.types import Vertex

PathLike = Union[str, Path]

#: File-start magic of a WAL epoch file.
WAL_MAGIC = b"RSPCWAL1"

#: Record framing: payload length, CRC32 of the payload (little-endian).
_HEADER = struct.Struct("<II")


class WalCorruptError(LiveUpdateError):
    """A WAL record before the torn tail failed its integrity checks."""

    def __init__(self, path, offset: int, detail: str) -> None:
        super().__init__(f"{path}: corrupt WAL record at byte {offset}: {detail}")
        self.path = str(path)
        self.offset = offset
        self.detail = detail


@dataclass(frozen=True)
class WalRecord:
    """One decoded record plus where it sits in the file."""

    offset: int
    length: int
    kind: str
    epoch: int
    seqno: int
    payload: dict


@dataclass(frozen=True)
class WalScan:
    """Low-level framing scan of one epoch file."""

    records: Tuple[WalRecord, ...]
    #: Byte offset just past the last good record (the truncate point).
    good_bytes: int
    #: Human description of a torn final record, or ``None``.
    torn: Optional[str]


def scan_wal(path: PathLike) -> WalScan:
    """Frame-scan a WAL file, tolerating a torn final record.

    Raises :class:`WalCorruptError` on a CRC or decode failure that is
    *followed by more data* — only the last record may be damaged.
    """
    data = Path(path).read_bytes()
    if len(data) < len(WAL_MAGIC):
        return WalScan((), 0, f"short magic ({len(data)} bytes)")
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WalCorruptError(path, 0, "bad magic")
    records: List[WalRecord] = []
    at = len(WAL_MAGIC)
    while at < len(data):
        if at + _HEADER.size > len(data):
            return WalScan(tuple(records), at, "torn record header")
        length, crc = _HEADER.unpack_from(data, at)
        start = at + _HEADER.size
        if start + length > len(data):
            return WalScan(tuple(records), at, "torn record payload")
        payload_bytes = data[start:start + length]
        tail = start + length == len(data)
        if zlib.crc32(payload_bytes) != crc:
            if tail:
                return WalScan(tuple(records), at, "CRC mismatch on tail")
            raise WalCorruptError(path, at, "CRC mismatch")
        try:
            payload = json.loads(payload_bytes)
            kind = payload["kind"]
            epoch = int(payload["epoch"])
            seqno = int(payload["seqno"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            if tail:
                return WalScan(tuple(records), at, "undecodable tail record")
            raise WalCorruptError(path, at, "undecodable payload") from None
        records.append(WalRecord(at, length, kind, epoch, seqno, payload))
        at = start + length
    return WalScan(tuple(records), at, None)


def _structure_problem(records: Sequence[WalRecord]) -> Optional[str]:
    """Epoch/seqno-continuity check over a good record prefix."""
    if not records:
        return "no complete records"
    base = records[0]
    if base.kind != "base":
        return f"first record is {base.kind!r}, expected 'base'"
    seqno = base.seqno
    for record in records[1:]:
        if record.kind != "batch":
            return f"unexpected {record.kind!r} record at byte {record.offset}"
        if record.epoch != base.epoch:
            return (
                f"epoch jump {base.epoch} -> {record.epoch} "
                f"at byte {record.offset}"
            )
        if record.seqno != seqno + 1:
            return (
                f"seqno gap {seqno} -> {record.seqno} "
                f"at byte {record.offset}"
            )
        seqno = record.seqno
    return None


@dataclass
class WalVerifyReport:
    """Standalone validation of one WAL file (``repro-spc wal-verify``)."""

    path: str
    size: int = 0
    #: Per-record rows: offset, kind, epoch, seqno, payload length.
    records: List[dict] = field(default_factory=list)
    torn_tail: Optional[str] = None
    problem: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.problem is None

    @property
    def watermark(self) -> Tuple[int, int, int]:
        """``(epoch, first seqno, last seqno)`` of the good prefix."""
        if not self.records:
            return (0, 0, 0)
        return (
            self.records[0]["epoch"],
            self.records[0]["seqno"],
            self.records[-1]["seqno"],
        )


def verify_wal(path: PathLike) -> WalVerifyReport:
    """Validate one WAL file: framing, CRCs, and watermark continuity.

    A torn final record is reported but does not fail the check —
    recovery tolerates it.  Corruption *before* the tail does.
    """
    report = WalVerifyReport(path=str(path))
    try:
        report.size = Path(path).stat().st_size
        scan = scan_wal(path)
    except OSError as exc:
        report.problem = f"unreadable: {exc}"
        return report
    except WalCorruptError as exc:
        report.problem = exc.detail + f" at byte {exc.offset}"
        return report
    report.torn_tail = scan.torn
    report.records = [
        {
            "offset": record.offset,
            "kind": record.kind,
            "epoch": record.epoch,
            "seqno": record.seqno,
            "length": record.length,
        }
        for record in scan.records
    ]
    report.problem = _structure_problem(scan.records)
    return report


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover_coordinator` reconstructed."""

    path: Optional[str]
    epoch: int
    seqno: int
    base_seqno: int
    #: Post-snapshot batches re-derived from the base record.
    pending_batches: int
    #: Batch records replayed through ``apply_batch``.
    replayed_batches: int
    #: Cumulative dirty-edge weights written into the graph.
    weights_applied: int
    torn_tail: bool
    #: The rotated base index could not be loaded; patches were
    #: re-derived against the caller's default index instead.
    base_fallback: bool
    #: No usable WAL existed; a fresh log was started.
    fresh: bool
    #: The rotated base the overlay now sits on, or ``None`` when it
    #: sits on the caller's cold-start index.
    base_path: Optional[str] = None


class WriteAheadLog:
    """Appender over the current epoch file of a WAL directory."""

    def __init__(
        self,
        directory: PathLike,
        *,
        recorder=NULL_RECORDER,
        fault_plan=None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.recorder = recorder
        self.fault_plan = fault_plan
        self._handle = None
        self._path: Optional[Path] = None
        self._failed = False
        self.appends = 0
        self.rotations = 0

    # ------------------------------------------------------------------
    # directory layout
    # ------------------------------------------------------------------
    @staticmethod
    def epoch_files(directory: PathLike) -> List[Tuple[int, Path]]:
        """``(epoch, path)`` pairs in the directory, ascending by epoch."""
        found: List[Tuple[int, Path]] = []
        for path in Path(directory).glob("wal-*.log"):
            stem = path.stem[len("wal-"):]
            try:
                found.append((int(stem), path))
            except ValueError:
                continue
        found.sort()
        return found

    @property
    def path(self) -> Optional[Path]:
        return self._path

    @property
    def size_bytes(self) -> int:
        if self._handle is None:
            return 0
        return self._handle.tell()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        *,
        epoch: int = 1,
        seqno: int = 0,
        base_seqno: int = 0,
        base_path: Optional[str] = None,
        weights: Sequence[Tuple[Vertex, Vertex, float]] = (),
        pending: Sequence[Tuple[int, Sequence[Tuple[Vertex, Vertex]]]] = (),
        full_diff: bool = False,
    ) -> None:
        """Write a fresh epoch file (magic + base record) and append to it.

        Also used by :meth:`rotate`; the base record makes the file
        self-contained, which is what lets rotation delete predecessors.
        """
        record = {
            "kind": "base",
            "epoch": int(epoch),
            "seqno": int(seqno),
            "base_seqno": int(base_seqno),
            "base_path": None if base_path is None else str(base_path),
            "weights": [[a, b, w] for a, b, w in weights],
            "pending": [
                [int(s), [[a, b] for a, b in edges]] for s, edges in pending
            ],
            "full_diff": bool(full_diff),
        }
        path = self.directory / f"wal-{int(epoch):06d}.log"
        tmp = path.with_suffix(".log.tmp")
        with open(tmp, "wb") as handle:
            handle.write(WAL_MAGIC + self._frame(record))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._fsync_directory()
        self._close_handle()
        self._handle = open(path, "ab")
        self._path = path
        self._failed = False

    def open_existing(self, path: PathLike, good_bytes: int) -> None:
        """Reopen a recovered epoch file, truncating any torn tail.

        Every other ``wal-*.log`` (older epochs, or newer files that
        held no complete records) and leftover temporaries are deleted:
        ``path`` is self-contained.
        """
        path = Path(path)
        handle = open(path, "r+b")
        handle.truncate(good_bytes)
        handle.seek(0, os.SEEK_END)
        os.fsync(handle.fileno())
        self._close_handle()
        self._handle = handle
        self._path = path
        self._failed = False
        for other in self.directory.glob("wal-*.log"):
            if other != path:
                other.unlink(missing_ok=True)
        for leftover in self.directory.glob("*.tmp"):
            leftover.unlink(missing_ok=True)
        self._fsync_directory()

    def close(self) -> None:
        self._close_handle()

    def _close_handle(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds; rename is still atomic
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    @staticmethod
    def _frame(payload: dict) -> bytes:
        body = json.dumps(payload, separators=(",", ":")).encode()
        return _HEADER.pack(len(body), zlib.crc32(body)) + body

    def append_batch(self, epoch: int, seqno: int, updates) -> None:
        """Durably append one normalized batch; returns after fsync.

        The coordinator calls this *before* publishing the overlay, so
        an acknowledged batch is always on disk.  A failed append
        poisons the log: later appends raise rather than leave a gap.
        """
        if self._handle is None:
            raise LiveUpdateError("write-ahead log is not open")
        if self._failed:
            raise LiveUpdateError(
                "write-ahead log failed on a previous append; "
                "restart to recover"
            )
        frame = self._frame({
            "kind": "batch",
            "epoch": int(epoch),
            "seqno": int(seqno),
            "updates": [[a, b, w] for a, b, w in updates],
        })
        plan = self.fault_plan
        if plan is not None and plan.should_fire("wal.torn_write"):
            # Model a crash mid-write: half the payload reaches disk,
            # then the "process" dies.  The log is poisoned so the
            # torn tail stays final, exactly as recovery expects.
            from repro.faults import InjectedFault

            torn = frame[: _HEADER.size + max(1, (len(frame) - _HEADER.size) // 2)]
            self._handle.write(torn)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._failed = True
            raise InjectedFault("wal.torn_write")
        self._handle.write(frame)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.appends += 1
        self.recorder.incr("live.wal.appends")
        self.recorder.incr("live.wal.bytes", len(frame))

    def rotate(
        self,
        *,
        epoch: int,
        seqno: int,
        base_seqno: int,
        base_path: Optional[str],
        weights,
        pending,
        full_diff: bool = False,
    ) -> None:
        """Compact at a rebuild: start the new epoch file, drop the rest."""
        old = [p for _, p in self.epoch_files(self.directory)]
        self.start(
            epoch=epoch,
            seqno=seqno,
            base_seqno=base_seqno,
            base_path=base_path,
            weights=weights,
            pending=pending,
            full_diff=full_diff,
        )
        for path in old:
            if path != self._path:
                path.unlink(missing_ok=True)
        self.rotations += 1
        self.recorder.incr("live.wal.rotations")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "path": None if self._path is None else str(self._path),
            "size_bytes": self.size_bytes,
            "appends": self.appends,
            "rotations": self.rotations,
            "failed": self._failed,
        }


def recover_coordinator(
    wal_dir: PathLike,
    graph,
    index,
    *,
    overlay_threshold: int = 0,
    recorder=NULL_RECORDER,
    build_params: Optional[dict] = None,
    fault_plan=None,
) -> Tuple[UpdateCoordinator, RecoveryReport]:
    """Reconstruct a WAL-backed coordinator from ``wal_dir``.

    ``graph``/``index`` are the *cold-start* state (the original graph
    file and the index the server just mapped).  The highest usable
    epoch file decides everything else: its base record rebuilds the
    current-weights graph and the post-snapshot overlay, and its batch
    records replay through :meth:`UpdateCoordinator.apply_batch` — a
    deterministic pipeline, so the recovered overlay is bit-identical
    to the pre-crash one.  Returns the coordinator (log attached, open
    for append) plus a :class:`RecoveryReport`.
    """
    wal = WriteAheadLog(wal_dir, recorder=recorder, fault_plan=fault_plan)
    chosen: Optional[Tuple[Path, WalScan]] = None
    for _epoch, path in reversed(WriteAheadLog.epoch_files(wal_dir)):
        scan = scan_wal(path)  # raises WalCorruptError on a bad prefix
        if scan.records:
            chosen = (path, scan)
            break
    if chosen is None:
        coordinator = UpdateCoordinator(
            graph,
            index,
            overlay_threshold=overlay_threshold,
            recorder=recorder,
            build_params=build_params,
        )
        wal.start(epoch=1)
        coordinator.attach_wal(wal)
        return coordinator, RecoveryReport(
            path=str(wal.path),
            epoch=1,
            seqno=0,
            base_seqno=0,
            pending_batches=0,
            replayed_batches=0,
            weights_applied=0,
            torn_tail=False,
            base_fallback=False,
            fresh=True,
        )
    path, scan = chosen
    problem = _structure_problem(scan.records)
    if problem is not None:
        raise WalCorruptError(path, scan.records[0].offset, problem)
    base_record = scan.records[0].payload
    epoch = int(base_record["epoch"])
    rotation_seqno = int(base_record["seqno"])
    base_seqno = int(base_record["base_seqno"])
    weights = [(int(a), int(b), w) for a, b, w in base_record["weights"]]
    pending = [
        (int(s), tuple((int(a), int(b)) for a, b in edges))
        for s, edges in base_record["pending"]
    ]

    base_index = index
    base_fallback = False
    saved_base = False
    base_path = base_record.get("base_path")
    if base_path:
        try:
            candidate = load_index(base_path, verify=True)
            if type(candidate).name != "CTL":
                raise LiveUpdateError(
                    f"rotated base {base_path} is not a CTL index"
                )
            base_index = candidate
            saved_base = True
        except (OSError, ReproError):
            base_fallback = True
            recorder.incr("live.wal.base_fallbacks")

    coordinator = UpdateCoordinator(
        graph,
        base_index,
        overlay_threshold=overlay_threshold,
        recorder=recorder,
        build_params=build_params,
    )
    for a, b, w in weights:
        coordinator.graph.add_edge(a, b, w, coordinator.graph.count(a, b))

    # Re-derive the overlay at the rotation point.  Against the rotated
    # on-disk base only post-snapshot batches can differ from the base
    # labels; against the caller's default index (no saved base, or the
    # saved one failed to load) every dirty edge can.
    if saved_base and not base_record.get("full_diff"):
        repair_edges = [edge for _, edges in pending for edge in edges]
    else:
        repair_edges = [(a, b) for a, b, _ in weights]
    affected = affected_nodes(base_index.tree, repair_edges)
    nodes = [affected[i] for i in sorted(affected)]
    patches = coordinator.swept_overlay(base_index, nodes)
    coordinator.live_index.swap(
        base_index, OverlayState(epoch, rotation_seqno, patches)
    )
    coordinator._batch_log = list(pending)
    coordinator._log_floor = base_seqno
    for a, b, w in weights:
        key = (a, b) if a <= b else (b, a)
        coordinator._dirty_edges[key] = (a, b, w)

    # Replay post-rotation batches through the normal apply pipeline.
    replayed = 0
    for record in scan.records[1:]:
        coordinator.apply_batch(
            [(int(a), int(b), w) for a, b, w in record.payload["updates"]]
        )
        replayed += 1

    wal.open_existing(path, scan.good_bytes)
    wal.appends = replayed
    coordinator.attach_wal(wal)
    state = coordinator.live_index.state
    recorder.incr("live.wal.recoveries")
    return coordinator, RecoveryReport(
        path=str(path),
        epoch=state.epoch,
        seqno=state.seqno,
        base_seqno=base_seqno,
        pending_batches=len(pending),
        replayed_batches=replayed,
        weights_applied=len(weights),
        torn_tail=scan.torn is not None,
        base_fallback=base_fallback,
        fresh=False,
        base_path=base_path if saved_base else None,
    )
