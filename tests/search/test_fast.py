"""Cross-tests: CSR-based SSSPC must agree with the dict reference."""

import random

import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, power_grid_network, road_network
from repro.search.dijkstra import ssspc
from repro.search.fast import ssspc_csr, ssspc_csr_arrays
from repro.types import INF


@pytest.mark.parametrize(
    "graph_factory",
    [
        lambda: grid_graph(5, 5),
        lambda: road_network(300, seed=2),
        lambda: power_grid_network(200, seed=3),
    ],
    ids=["grid", "road", "power"],
)
class TestAgainstReference:
    def test_plain_search(self, graph_factory):
        g = graph_factory()
        csr = CSRGraph(g)
        for source in sorted(g.vertices())[::37]:
            want = ssspc(g, source)
            got = ssspc_csr(csr, source)
            assert got == want

    def test_excluded(self, graph_factory):
        g = graph_factory()
        csr = CSRGraph(g)
        rng = random.Random(1)
        vertices = sorted(g.vertices())
        excluded = set(rng.sample(vertices, len(vertices) // 10))
        source = next(v for v in vertices if v not in excluded)
        assert ssspc_csr(csr, source, excluded=excluded) == ssspc(
            g, source, excluded=excluded
        )

    def test_terminal(self, graph_factory):
        g = graph_factory()
        csr = CSRGraph(g)
        rng = random.Random(2)
        vertices = sorted(g.vertices())
        terminal = set(rng.sample(vertices, len(vertices) // 8))
        source = vertices[0]
        assert ssspc_csr(csr, source, terminal=terminal) == ssspc(
            g, source, terminal=terminal
        )


class TestArraysVariant:
    def test_matches_map_variant(self):
        g = road_network(200, seed=4)
        csr = CSRGraph(g)
        source = sorted(g.vertices())[0]
        dist_map, count_map = ssspc_csr(csr, source)
        dist, count = ssspc_csr_arrays(csr, csr.dense_id(source))
        for idx, v in enumerate(csr.vertices):
            if v in dist_map:
                assert dist[idx] == dist_map[v]
                assert count[idx] == count_map[v]
            else:
                assert dist[idx] is None

    def test_banned_mask(self, diamond):
        csr = CSRGraph(diamond)
        banned = [False] * csr.num_vertices
        banned[csr.dense_id(1)] = True
        dist, count = ssspc_csr_arrays(csr, csr.dense_id(0), banned=banned)
        assert dist[csr.dense_id(3)] == 2
        assert count[csr.dense_id(3)] == 1
        assert dist[csr.dense_id(1)] is None


def reference_build(graph, strategy=None, seed=0):
    """Labels of a build replayed with dict SSSPC for every node's labels.

    The same loop as the library's (same cut order, same RNG), but each
    node's label block comes from :func:`repro.search.dijkstra.ssspc`
    with the processed cut vertices excluded.
    """
    from repro.core.spc_graph_build import (
        BlockOutDist,
        build_spc_graph_basic,
        build_spc_graph_cutsearch,
    )
    from repro.obs import Recorder
    from repro.partition.balanced_cut import balanced_cut

    rng = random.Random(seed)
    dist = {v: [] for v in graph.vertices()}
    count = {v: [] for v in graph.vertices()}
    stack = [graph]
    while stack:
        pg = stack.pop()
        part = balanced_cut(pg, 0.2, leaf_size=4, rng=rng)
        blocks = {v: [] for v in pg.vertices()}
        processed = set()
        for c in part.cut:
            d, n = ssspc(pg, c, excluded=processed)
            for u in sorted(pg.vertices()):
                if u not in processed:
                    dist[u].append(d.get(u, INF))
                    count[u].append(n.get(u, 0))
                    blocks[u].append(d.get(u, INF))
            processed.add(c)
        through = BlockOutDist(blocks)
        for side in (part.left, part.right):
            if not side:
                continue
            if strategy is None:
                child = pg.induced_subgraph(side)
            elif strategy == "cutsearch":
                child = build_spc_graph_cutsearch(
                    pg, side, part.cut, through, Recorder()
                )
            else:
                child = build_spc_graph_basic(
                    pg, side, Recorder(), through_cut=through,
                    prune=strategy == "pruned",
                )
            stack.append(child)
    return dist, count


class TestEngineParity:
    """The CSR label path of a build against dict-SSSPC reference labels."""

    def test_ctl_engines_identical(self):
        from repro.core.ctl import CTLIndex

        g = road_network(250, seed=6)
        index = CTLIndex.build(g)
        dist, count = reference_build(g)
        assert index.labels.dist == dist
        assert index.labels.count == count

    @pytest.mark.parametrize("strategy", ["basic", "pruned", "cutsearch"])
    def test_ctls_engines_identical(self, strategy):
        from repro.core.ctls import CTLSIndex

        g = road_network(250, seed=6)
        index = CTLSIndex.build(g, strategy=strategy)
        dist, count = reference_build(g, strategy)
        assert index.labels.dist == dist
        assert index.labels.count == count

    def test_unknown_engine_rejected(self, diamond):
        # There is one label path; an ``engine`` argument is refused.
        from repro.core.ctl import CTLIndex
        from repro.core.ctls import CTLSIndex

        with pytest.raises(TypeError):
            CTLIndex.build(diamond, engine="dict")
        with pytest.raises(TypeError):
            CTLSIndex.build(diamond, engine="dict")
