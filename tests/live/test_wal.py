"""Write-ahead log: durability ordering, crash recovery, compaction."""

import json
import os
import random
import struct
import zlib

import pytest

from repro.core.ctl import CTLIndex
from repro.cli import main
from repro.core.serialize import save_index
from repro.exceptions import LiveUpdateError
from repro.faults import FaultPlan, InjectedFault
from repro.graph.generators import road_network
from repro.live import (
    WAL_MAGIC,
    UpdateCoordinator,
    WalCorruptError,
    WriteAheadLog,
    recover_coordinator,
    scan_wal,
    verify_wal,
)
from repro.search.pairwise import spc_query


@pytest.fixture()
def graph():
    return road_network(36, seed=11)


@pytest.fixture()
def index(graph):
    return CTLIndex.build(graph)


@pytest.fixture()
def recover():
    """:func:`recover_coordinator`, with every WAL it opens closed at
    teardown."""
    opened = []

    def run(*args, **kwargs):
        coordinator, report = recover_coordinator(*args, **kwargs)
        opened.append(coordinator.wal)
        return coordinator, report

    yield run
    for wal in opened:
        wal.close()


def _random_batches(graph, *, rounds, per_batch=3, seed=0):
    rng = random.Random(seed)
    edges = [(u, v, w) for u, v, w, _ in graph.edges()]
    return [
        [
            (u, v, rng.randint(1, 2 * max(w, 1)))
            for u, v, w in rng.sample(edges, per_batch)
        ]
        for _ in range(rounds)
    ]


def _apply(coordinator, mirror, batch):
    coordinator.apply_batch(batch)
    for a, b, w in batch:
        mirror.add_edge(a, b, w, mirror.count(a, b))


def _assert_parity(coordinator, mirror, *, seed=1, samples=60):
    rng = random.Random(seed)
    vertices = sorted(mirror.vertices())
    pairs = [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(samples)
    ]
    got = coordinator.live_index.query_batch(pairs)
    for (s, t), result in zip(pairs, got):
        assert tuple(result) == tuple(spc_query(mirror, s, t)), (s, t)


def _overlay_key(coordinator):
    """Full overlay identity: compare with ``==`` for bit-identical."""
    state = coordinator.live_index.state
    return (
        state.epoch,
        state.seqno,
        {v: dict(p) for v, p in state.patches.items()},
    )


class TestAppend:
    def test_fresh_start_creates_epoch_file(
        self, recover, tmp_path, graph, index
    ):
        coordinator, report = recover(tmp_path, graph, index)
        assert report.fresh
        assert coordinator.wal is not None
        path = coordinator.wal.path
        assert path is not None and path.name == "wal-000001.log"
        assert path.read_bytes().startswith(WAL_MAGIC)
        scan = scan_wal(path)
        assert [r.kind for r in scan.records] == ["base"]
        assert scan.torn is None

    def test_every_batch_appends_one_record(
        self, recover, tmp_path, graph, index
    ):
        coordinator, _ = recover(tmp_path, graph, index)
        batches = _random_batches(graph, rounds=4, seed=3)
        for batch in batches:
            coordinator.apply_batch(batch)
        # A no-op batch (same weights again) still gets a record: the
        # seqno bumps unconditionally, and recovery must see it.
        coordinator.apply_batch(batches[-1])
        scan = scan_wal(coordinator.wal.path)
        kinds = [r.kind for r in scan.records]
        assert kinds == ["base"] + ["batch"] * 5
        assert [r.seqno for r in scan.records] == [0, 1, 2, 3, 4, 5]
        assert coordinator.live_index.state.seqno == 5

    def test_record_framing_is_crc_checked(
        self, recover, tmp_path, graph, index
    ):
        coordinator, _ = recover(tmp_path, graph, index)
        coordinator.apply_batch(next(iter(_random_batches(graph, rounds=1))))
        report = verify_wal(coordinator.wal.path)
        assert report.ok
        assert report.torn_tail is None
        assert report.watermark == (1, 0, 1)
        assert all(row["length"] > 0 for row in report.records)


class TestRecovery:
    def test_round_trip_is_bit_identical(
        self, recover, tmp_path, graph, index
    ):
        coordinator, _ = recover(tmp_path, graph, index)
        mirror = graph.copy()
        for batch in _random_batches(graph, rounds=4, seed=5):
            _apply(coordinator, mirror, batch)
        recovered, report = recover(tmp_path, graph, index)
        assert not report.fresh
        assert report.replayed_batches == 4
        assert not report.torn_tail
        assert _overlay_key(recovered) == _overlay_key(coordinator)
        _assert_parity(recovered, mirror, seed=6)
        # The reopened log keeps accepting appends with seqno continuity.
        _apply(recovered, mirror, _random_batches(graph, rounds=1, seed=8)[0])
        assert recovered.live_index.state.seqno == 5
        assert verify_wal(recovered.wal.path).ok

    def test_truncation_at_every_byte_recovers_a_prefix(
        self, recover, tmp_path, graph, index
    ):
        """Satellite 3: cut the log anywhere, recovery is exact.

        For every byte length L of the WAL file, a copy truncated to L
        must recover to the longest acknowledged prefix: the overlay is
        bit-identical to a coordinator that applied exactly the batches
        whose records survived intact, and the epoch/seqno watermark is
        continuous (never skips, never invents).
        """
        source_dir = tmp_path / "source"
        coordinator, _ = recover(source_dir, graph, index)
        mirror = graph.copy()
        reference = [_overlay_key(coordinator)]
        mirrors = [graph.copy()]
        for batch in _random_batches(graph, rounds=3, per_batch=2, seed=9):
            _apply(coordinator, mirror, batch)
            reference.append(_overlay_key(coordinator))
            mirrors.append(mirror.copy())
        wal_path = coordinator.wal.path
        data = wal_path.read_bytes()
        record_starts = [r.offset for r in scan_wal(wal_path).records]

        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        crash_file = crash_dir / wal_path.name
        for cut in range(len(data) + 1):
            crash_file.write_bytes(data[:cut])
            recovered, report = recover(crash_dir, graph, index)
            seqno = recovered.live_index.state.seqno
            # Continuity: the prefix is exactly the records wholly
            # before the cut (minus the base record).
            expected = _expected_batches(record_starts, len(data), cut)
            assert seqno == expected, f"cut at byte {cut}"
            if report.fresh:
                assert expected == 0
            assert _overlay_key(recovered) == reference[seqno], (
                f"cut at byte {cut}"
            )
            _assert_parity(recovered, mirrors[seqno], seed=cut, samples=12)
            recovered.wal.close()  # one open handle per cut adds up

    def test_torn_tail_drops_only_the_unacknowledged_record(
        self, recover, tmp_path, graph, index
    ):
        coordinator, _ = recover(tmp_path, graph, index)
        mirror = graph.copy()
        batches = _random_batches(graph, rounds=3, seed=13)
        for batch in batches[:-1]:
            _apply(coordinator, mirror, batch)
        pre_crash = _overlay_key(coordinator)
        coordinator.apply_batch(batches[-1])
        path = coordinator.wal.path
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        recovered, report = recover(tmp_path, graph, index)
        assert report.torn_tail
        assert recovered.live_index.state.seqno == 2
        assert _overlay_key(recovered) == pre_crash
        _assert_parity(recovered, mirror, seed=14)
        # Recovery truncated the tail, so the reopened log is clean.
        assert verify_wal(recovered.wal.path).torn_tail is None

    def test_corruption_before_the_tail_is_refused(
        self, recover, tmp_path, graph, index
    ):
        coordinator, _ = recover(tmp_path, graph, index)
        for batch in _random_batches(graph, rounds=3, seed=17):
            coordinator.apply_batch(batch)
        path = coordinator.wal.path
        scan = scan_wal(path)
        victim = scan.records[1]  # first batch record: not the tail
        data = bytearray(path.read_bytes())
        flip = victim.offset + struct.calcsize("<II") + 2
        data[flip] ^= 0xFF
        path.write_bytes(bytes(data))
        report = verify_wal(path)
        assert not report.ok
        assert "CRC mismatch" in report.problem
        with pytest.raises(WalCorruptError, match="CRC mismatch"):
            recover(tmp_path, graph, index)

    def test_bad_magic_is_refused(self, recover, tmp_path, graph, index):
        path = tmp_path / "wal-000001.log"
        path.write_bytes(b"NOTAWAL1" + b"\x00" * 32)
        with pytest.raises(WalCorruptError, match="bad magic"):
            recover(tmp_path, graph, index)


class TestTornWriteFault:
    def test_failed_append_leaves_coordinator_untouched(
        self, recover, tmp_path, graph, index
    ):
        plan = FaultPlan.parse("wal.torn_write:1.0", seed=0)
        coordinator, _ = recover(
            tmp_path, graph, index, fault_plan=plan
        )
        batch = _random_batches(graph, rounds=1, seed=19)[0]
        before = _overlay_key(coordinator)
        weights = {(a, b): graph.weight(a, b) for a, b, _w in batch}
        with pytest.raises(InjectedFault):
            coordinator.apply_batch(batch)
        # Durability ordering: the append failed, so neither the graph
        # nor the overlay moved — the batch was never acknowledged.
        assert _overlay_key(coordinator) == before
        for (a, b), w in weights.items():
            assert coordinator.graph.weight(a, b) == w
        # The log is poisoned: later appends refuse rather than leave a
        # seqno gap after the torn record.
        with pytest.raises(LiveUpdateError, match="failed on a previous"):
            coordinator.apply_batch(batch)
        assert coordinator.wal.stats()["failed"]

    def test_torn_write_recovers_to_pre_crash_state(
        self, recover, tmp_path, graph, index
    ):
        plan = FaultPlan.parse("wal.torn_write:0.34", seed=23)
        coordinator, _ = recover(
            tmp_path, graph, index, fault_plan=plan
        )
        mirror = graph.copy()
        torn = False
        for batch in _random_batches(graph, rounds=6, seed=23):
            try:
                _apply(coordinator, mirror, batch)
            except InjectedFault:
                torn = True
                break
        assert torn, "fault plan never fired"
        pre_crash = _overlay_key(coordinator)
        recovered, report = recover(tmp_path, graph, index)
        assert report.torn_tail
        assert _overlay_key(recovered) == pre_crash
        _assert_parity(recovered, mirror, seed=24)


class TestRotation:
    def test_rebuild_rotates_and_compacts(
        self, recover, tmp_path, graph, index
    ):
        wal_dir = tmp_path / "wal"
        coordinator, _ = recover(wal_dir, graph, index)
        mirror = graph.copy()
        for batch in _random_batches(graph, rounds=3, seed=29):
            _apply(coordinator, mirror, batch)
        new_index, base_seqno = coordinator.rebuild()
        base_path = tmp_path / "base-epoch2.bin"
        save_index(new_index, base_path, format="binary")
        coordinator.adopt_base(new_index, base_seqno, str(base_path))
        # Rotation compacted: only the new epoch file remains.
        files = WriteAheadLog.epoch_files(wal_dir)
        assert [epoch for epoch, _ in files] == [2]
        assert coordinator.live_index.state.epoch == 2

        # Post-rotation batches land in the new file and recovery from
        # the rotated base alone reproduces the exact live state.
        for batch in _random_batches(graph, rounds=2, seed=31):
            _apply(coordinator, mirror, batch)
        recovered, report = recover(wal_dir, graph, index)
        assert report.epoch == 2
        assert report.replayed_batches == 2
        assert not report.base_fallback
        assert _overlay_key(recovered) == _overlay_key(coordinator)
        _assert_parity(recovered, mirror, seed=32)

    def test_in_memory_rotation_recovers_without_saved_base(
        self, recover, tmp_path, graph, index
    ):
        """``adopt_base`` without a path: recovery re-derives the full
        diff against the cold-start index instead of reloading."""
        coordinator, _ = recover(tmp_path, graph, index)
        mirror = graph.copy()
        for batch in _random_batches(graph, rounds=3, seed=37):
            _apply(coordinator, mirror, batch)
        new_index, base_seqno = coordinator.rebuild()
        coordinator.adopt_base(new_index, base_seqno)
        for batch in _random_batches(graph, rounds=2, seed=41):
            _apply(coordinator, mirror, batch)
        recovered, report = recover(tmp_path, graph, index)
        assert report.epoch == 2
        assert report.seqno == coordinator.live_index.state.seqno
        assert not report.base_fallback
        _assert_parity(recovered, mirror, seed=42)

    def test_missing_saved_base_falls_back(
        self, recover, tmp_path, graph, index
    ):
        wal_dir = tmp_path / "wal"
        coordinator, _ = recover(wal_dir, graph, index)
        mirror = graph.copy()
        for batch in _random_batches(graph, rounds=2, seed=43):
            _apply(coordinator, mirror, batch)
        new_index, base_seqno = coordinator.rebuild()
        base_path = tmp_path / "vanished.bin"
        save_index(new_index, base_path, format="binary")
        coordinator.adopt_base(new_index, base_seqno, str(base_path))
        base_path.unlink()
        recovered, report = recover(wal_dir, graph, index)
        assert report.base_fallback
        assert report.epoch == 2
        _assert_parity(recovered, mirror, seed=44)


class TestOlderLayout:
    def test_base_record_without_edge_seqnos_recovers(
        self, recover, tmp_path, graph, index, capsys
    ):
        """A base record from before the per-edge seqnos: 3-entry
        ``weights`` plus ``pending``/``full_diff``.  Every changed edge
        reads as changed at the rotation seqno, so recovery sweeps all
        of them, which gives the same overlay."""
        wal_dir = tmp_path / "wal"
        coordinator, _ = recover(wal_dir, graph, index)
        mirror = graph.copy()
        batches = _random_batches(graph, rounds=6, seed=47)
        for batch in batches[:2]:
            _apply(coordinator, mirror, batch)
        new_index, base_seqno = coordinator.rebuild()
        for batch in batches[2:4]:  # between the snapshot and the adopt
            _apply(coordinator, mirror, batch)
        base_path = tmp_path / "base-epoch2.bin"
        save_index(new_index, base_path, format="binary")
        coordinator.adopt_base(new_index, base_seqno, str(base_path))
        for batch in batches[4:]:
            _apply(coordinator, mirror, batch)

        # Rewrite the rotated file's base record in the older layout.
        wal_path = coordinator.wal.path
        scan = scan_wal(wal_path)
        base = dict(scan.records[0].payload)
        assert all(len(entry) == 4 for entry in base["weights"])
        base["weights"] = [[a, b, w] for a, b, w, _s in base["weights"]]
        base["pending"] = [
            [seqno, [[a, b] for a, b, _w in batch]]
            for seqno, batch in enumerate(batches[2:4], base_seqno + 1)
        ]
        base["full_diff"] = False
        body = json.dumps(base, separators=(",", ":")).encode()
        batch_bytes = wal_path.read_bytes()[scan.records[1].offset:]
        old_dir = tmp_path / "old"
        old_dir.mkdir()
        (old_dir / wal_path.name).write_bytes(
            WAL_MAGIC
            + struct.pack("<II", len(body), zlib.crc32(body))
            + body
            + batch_bytes
        )

        recovered, report = recover(old_dir, graph, index)
        assert not report.base_fallback
        assert report.replayed_batches == 2
        assert _overlay_key(recovered) == _overlay_key(coordinator)
        _assert_parity(recovered, mirror, seed=48)
        assert main(["wal-verify", str(old_dir)]) == 0
        assert "error" not in capsys.readouterr().err


def _expected_batches(record_starts, total, cut):
    """Batch records wholly contained in the first ``cut`` bytes."""
    ends = record_starts[1:] + [total]
    complete = 0
    for start, end in zip(record_starts, ends):
        if end <= cut:
            complete += 1
    return max(0, complete - 1)  # minus the base record
