"""Live updates: streaming edge-weight deltas onto a serving index.

The live tier lets a read-only (often mmap'd) CTL index absorb batched
edge-weight deltas without blocking readers:

* :class:`~repro.live.overlay.OverlayState` /
  :class:`~repro.live.overlay.LiveIndex` — immutable patch-table
  snapshots over the base arena; patched vertices' rows are copied
  into a side arena that the one arena kernel reads beside the base;
  :func:`patch_rows` and :func:`read_patch_rows` carry a patch table or
  a batch diff as JSON.
* :class:`~repro.live.coordinator.UpdateCoordinator` — atomic batch
  application (epoch/seqno versioning) and overlay-threshold rebuild
  snapshots.
* :mod:`~repro.live.wal` — the durable write-ahead log: every accepted
  batch is fsync'd (length-prefixed, CRC32-per-record) before it is
  acknowledged, :func:`~repro.live.wal.recover_coordinator` replays it
  on startup/respawn to the exact pre-crash overlay, and
  rebuild-and-swap compacts it by rotating at the new base epoch.
* :mod:`~repro.live.replay` — the timestamped JSON-lines delta file
  format plus the ``repro-spc update-replay`` streaming client.

See ``docs/serving.md`` ("Live updates") for the wire format and
``docs/operations.md`` for the replay and crash-recovery runbooks.
"""

from repro.live.coordinator import (
    MAX_BATCH_LOG,
    UpdateCoordinator,
    UpdateReport,
)
from repro.live.overlay import (
    LiveIndex,
    OverlayState,
    patch_rows,
    patched_scan,
    read_patch_rows,
)
from repro.live.replay import (
    DeltaBatch,
    UpdateStreamReport,
    read_delta_file,
    stream_deltas,
    synthesize_deltas,
    write_delta_file,
)
from repro.live.wal import (
    WAL_MAGIC,
    RecoveryReport,
    WalCorruptError,
    WalRecord,
    WalVerifyReport,
    WriteAheadLog,
    recover_coordinator,
    scan_wal,
    verify_wal,
)

__all__ = [
    "DeltaBatch",
    "LiveIndex",
    "MAX_BATCH_LOG",
    "OverlayState",
    "RecoveryReport",
    "UpdateCoordinator",
    "UpdateReport",
    "UpdateStreamReport",
    "WAL_MAGIC",
    "WalCorruptError",
    "WalRecord",
    "WalVerifyReport",
    "WriteAheadLog",
    "patch_rows",
    "patched_scan",
    "read_delta_file",
    "read_patch_rows",
    "recover_coordinator",
    "scan_wal",
    "stream_deltas",
    "synthesize_deltas",
    "verify_wal",
    "write_delta_file",
]
