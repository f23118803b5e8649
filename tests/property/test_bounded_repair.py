"""Property tests: bounded label repair equals the full sweep, entry for entry.

:func:`repro.core.dynamic.repair_labels` rewrites only the label entries
a weight change reaches; :func:`repro.core.dynamic.sweep_labels`
recomputes every block in full.  On random tie-heavy graphs —
integer and fractional weights, edge count weights above 1 — and
batches that mix increases and decreases, repeat an edge, touch a
root cut vertex and restore earlier weights, the two must agree on
every entry: in the live overlay (patches and the changed-vertex set
the result cache invalidates by) and in
:class:`~repro.core.dynamic.DynamicCTL`'s label store and arena.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ctl import CTLIndex
from repro.core.dynamic import DynamicCTL, sweep_labels
from repro.graph.graph import Graph
from repro.live import UpdateCoordinator

INTEGER_WEIGHTS = (1, 2, 3, 4)
#: 0.1 + 0.2 != 0.3 in binary floating point, so these exercise ties
#: that only hold when both sides add in the same order.
FRACTIONAL_WEIGHTS = (0.1, 0.2, 0.3, 0.5, 1, 1.5, 0.25)


@st.composite
def network_and_batches(draw):
    """A small tie-heavy graph, its CTL index and a stream of batches."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=4, max_value=14))
    weights = draw(st.sampled_from((INTEGER_WEIGHTS, FRACTIONAL_WEIGHTS)))
    rng = random.Random(seed)
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, rng.choice(weights),
                   rng.choice((1, 1, 2)))
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and rng.random() < 0.3:
                g.add_edge(u, v, rng.choice(weights), rng.choice((1, 1, 2)))
    index = CTLIndex.build(g, leaf_size=2, seed=seed)
    edges = sorted((u, v) for u, v, _w, _c in g.edges())
    root_cut = set(index.tree.node(0).vertices)
    cut_edges = [e for e in edges if e[0] in root_cut or e[1] in root_cut]
    original = {e: g.weight(*e) for e in edges}
    changed = []
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        batch = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            kind = draw(st.sampled_from(("any", "cut", "restore")))
            pool = {"cut": cut_edges, "restore": changed}.get(kind) or edges
            u, v = pool[draw(st.integers(0, len(pool) - 1))]
            if kind == "restore":
                weight = original[u, v]
            else:
                weight = draw(st.sampled_from(weights))
            batch.append((u, v, weight))
        if draw(st.booleans()):
            # The same edge again, later in the batch.
            u, v, _ = batch[0]
            batch.append((u, v, draw(st.sampled_from(weights))))
        changed.extend((u, v) for u, v, _ in batch)
        batches.append(batch)
    return g, index, batches


def _current_labels(coordinator):
    """Every label entry a query sees: the overlay over the base arena."""
    base, state = coordinator.live_index.view
    arena = base.arena
    view = {}
    for v in arena.vertices:
        patched = state.patches.get(v, {})
        for position in range(arena.label_length(v)):
            view[v, position] = patched.get(position) or arena.entry(
                v, position
            )
    return view


PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROPERTY
@given(data=network_and_batches())
def test_live_overlay_matches_full_sweep(data):
    graph, index, batches = data
    coordinator = UpdateCoordinator(graph, index)
    for batch in batches:
        before = _current_labels(coordinator)
        report = coordinator.apply_batch(batch)
        patches = {}
        for v, position, dist, count in sweep_labels(
            coordinator.graph, index.tree, index.tree.nodes
        ):
            if index.arena.entry(v, position) != (dist, count):
                patches.setdefault(v, {})[position] = (dist, count)
        state = coordinator.live_index.state
        assert state.patches == patches, batch
        after = _current_labels(coordinator)
        moved = [key for key in after if after[key] != before[key]]
        assert {v for v, _ in moved} <= report.changed_vertices, batch
        assert report.repaired_entries == len(moved), batch


@PROPERTY
@given(data=network_and_batches())
def test_dynamic_ctl_matches_full_sweep(data):
    graph, _index, batches = data
    dynamic = DynamicCTL(graph, leaf_size=2)
    tree = dynamic.index.tree
    for batch in batches:
        dynamic.update_weights(batch)
        labels = dynamic.index.labels
        arena = dynamic.index.arena
        for v, position, dist, count in sweep_labels(
            dynamic.graph, tree, tree.nodes
        ):
            assert labels.entry(v, position) == (dist, count), batch
            assert arena.entry(v, position) == (dist, count), batch
