"""Property tests: live overlay answers stay exact under random streams.

The streaming analogue of ``test_dynamic_invariants``: random delta
sequences — increases, decreases, duplicates, and no-ops — flow through
an :class:`~repro.live.UpdateCoordinator` and after every batch each
pair's ``(distance, count)`` must be bit-identical to a fresh counting
Dijkstra on the current weights.  A mid-stream rebuild-and-swap must
preserve the same contract, including batches that land between the
snapshot and the adoption.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ctl import CTLIndex
from repro.graph.graph import Graph
from repro.live import UpdateCoordinator, recover_coordinator, verify_wal
from repro.search.pairwise import spc_query


@st.composite
def graph_and_batches(draw):
    """A small random graph plus a stream of delta batches."""
    seed = draw(st.integers(min_value=0, max_value=5_000))
    n = draw(st.integers(min_value=4, max_value=12))
    rng = random.Random(seed)
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, rng.choice((1, 2, 3)))
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and rng.random() < 0.3:
                g.add_edge(u, v, rng.choice((1, 2, 3, 4)))
    edges = sorted((u, v) for u, v, _w, _c in g.edges())
    num_batches = draw(st.integers(min_value=1, max_value=4))
    batches = []
    for _ in range(num_batches):
        size = draw(st.integers(min_value=1, max_value=4))
        batch = []
        for _ in range(size):
            u, v = edges[
                draw(st.integers(min_value=0, max_value=len(edges) - 1))
            ]
            if draw(st.booleans()):
                weight = g.weight(u, v)  # deliberate no-op
            else:
                weight = draw(st.sampled_from((1, 2, 3, 5, 8)))
            batch.append((u, v, weight))
        # Duplicates within one batch: last write wins, exactly once.
        if batch and draw(st.booleans()):
            batch.append(batch[0])
        batches.append(batch)
    rebuild_after = draw(
        st.one_of(
            st.none(),
            st.integers(min_value=0, max_value=num_batches - 1),
        )
    )
    return g, batches, rebuild_after


def _assert_exact(coordinator, mirror):
    vertices = sorted(mirror.vertices())
    pairs = [(s, t) for s in vertices for t in vertices]
    got = coordinator.live_index.query_batch(pairs)
    for (s, t), result in zip(pairs, got):
        assert tuple(result) == tuple(spc_query(mirror, s, t)), (s, t)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=graph_and_batches())
def test_live_overlay_exact_after_every_batch(data):
    graph, batches, rebuild_after = data
    coordinator = UpdateCoordinator(graph, CTLIndex.build(graph))
    mirror = graph.copy()
    staged = None
    for i, batch in enumerate(batches):
        coordinator.apply_batch(batch)
        for a, b, w in batch:
            mirror.add_edge(a, b, w, mirror.count(a, b))
        _assert_exact(coordinator, mirror)
        if rebuild_after == i:
            # Snapshot here; later batches land on the old base and
            # must be replayed onto the new one at adoption time.
            staged = coordinator.rebuild()
    if staged is not None:
        coordinator.adopt_base(*staged)
        assert coordinator.live_index.state.epoch == 2
        _assert_exact(coordinator, mirror)


def _overlay_key(coordinator):
    state = coordinator.live_index.state
    return (
        state.epoch,
        state.seqno,
        {v: dict(p) for v, p in state.patches.items()},
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=graph_and_batches(), cut_point=st.integers(min_value=0))
def test_wal_crash_recovery_restores_an_exact_prefix(data, cut_point):
    """A WAL truncated anywhere recovers an acknowledged prefix.

    The stream flows through a WAL-backed coordinator; the log is then
    cut at an arbitrary byte (a simulated ``kill -9`` mid-write) and a
    fresh coordinator recovers from the stump.  The recovered state
    must be bit-identical to the reference coordinator at some
    already-acknowledged seqno ``k`` — never a partial batch, never an
    invented one — and its answers must match a counting Dijkstra on
    the first ``k`` batches.
    """
    graph, batches, _rebuild_after = data
    index = CTLIndex.build(graph)
    with tempfile.TemporaryDirectory() as workdir:
        wal_dir = Path(workdir) / "wal"
        coordinator, report = recover_coordinator(wal_dir, graph, index)
        assert report.fresh
        mirror = graph.copy()
        reference = [_overlay_key(coordinator)]
        mirrors = [graph.copy()]
        for batch in batches:
            coordinator.apply_batch(batch)
            for a, b, w in batch:
                mirror.add_edge(a, b, w, mirror.count(a, b))
            reference.append(_overlay_key(coordinator))
            mirrors.append(mirror.copy())
        wal_path = coordinator.wal.path
        coordinator.wal.close()
        data_bytes = wal_path.read_bytes()
        cut = cut_point % (len(data_bytes) + 1)

        crash_dir = Path(workdir) / "crash"
        crash_dir.mkdir()
        (crash_dir / wal_path.name).write_bytes(data_bytes[:cut])
        recovered, rec = recover_coordinator(crash_dir, graph, index)
        k = recovered.live_index.state.seqno
        assert 0 <= k <= len(batches)
        assert _overlay_key(recovered) == reference[k]
        _assert_exact(recovered, mirrors[k])
        # The reopened log is a valid, continuous prefix: the torn tail
        # was truncated away and the watermark runs 0..k without gaps.
        report = verify_wal(recovered.wal.path)
        assert report.ok
        assert report.torn_tail is None
        assert report.watermark == (1, 0, k)
        recovered.wal.close()
