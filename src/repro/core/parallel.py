"""Parallel CTLS-Index construction (paper §IV-D.1).

The paper parallelises construction two ways: concurrent SSSPC runs per
cut vertex, and building the two sides' SPC-Graphs in separate threads.
CPython's GIL makes thread-level parallelism useless for CPU-bound
searches, so this module parallelises at the natural coarser grain with
*processes*: independent subtrees.

Phase 1 runs the ordinary construction loop breadth-first until at
least ``workers`` pending subgraphs exist (each already count-preserving
for its subtree).  Phase 2 ships every pending SPC-Graph to a worker
process that builds a complete sub-index, and the results are grafted
back: worker tree nodes are re-parented under their anchors and worker
label arrays are appended to the (already written) ancestor prefixes —
alignment is preserved because a subtree's labels are exactly the
suffix of its vertices' label arrays.

The parallel build is deterministic for a fixed ``(seed, workers)`` but
differs from the sequential build (the RNG is consumed in a different
order); both are exact.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Tuple

import repro.obs as obs
from repro.core.base import BuildStats
from repro.core.ctls import STRATEGIES, CTLSIndex
from repro.core.labeling import build_node
from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.labels.arena import record_layout_gauges
from repro.labels.store import LabelStore
from repro.tree.cut_tree import CutTree


def _build_subtree(payload: Tuple[Graph, str, float, int, int]):
    """Worker entry point: build a full CTLS sub-index of one subtree."""
    subgraph, strategy, beta, leaf_size, seed = payload
    index = CTLSIndex.build(
        subgraph, beta=beta, leaf_size=leaf_size, seed=seed, strategy=strategy
    )
    tree_payload = [
        (list(node.vertices), node.parent) for node in index.tree.nodes
    ]
    return tree_payload, index.labels.dist, index.labels.count, index.build_stats


def build_ctls_parallel(
    graph: Graph,
    *,
    workers: int = 2,
    beta: float = 0.2,
    leaf_size: int = 4,
    seed: int = 0,
    strategy: str = "cutsearch",
) -> CTLSIndex:
    """Build a CTLS-Index using ``workers`` processes for the subtrees.

    Semantically equivalent to :meth:`CTLSIndex.build`; worthwhile from
    a few thousand vertices up, where subtree construction dominates.
    """
    if strategy not in STRATEGIES:
        raise IndexBuildError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if workers < 1:
        raise IndexBuildError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()
    rng = random.Random(seed)
    tree = CutTree()
    labels = LabelStore(graph.vertices())
    rec = obs.build_scope()

    with rec.span(
        "ctls.parallel.build",
        n=graph.num_vertices,
        m=graph.num_edges,
        workers=workers,
    ):
        # Phase 1: breadth-first sequential construction until the
        # frontier is wide enough to keep every worker busy.
        frontier: deque = deque([(graph, -1)])
        pending: List[Tuple[Graph, int]] = []
        with rec.span("ctls.parallel.sequential"):
            while frontier:
                if len(frontier) + len(pending) >= workers and workers > 1:
                    pending.extend(frontier)
                    frontier.clear()
                    break
                pg, parent = frontier.popleft()
                if pg.num_vertices == 0:
                    continue
                rec.gauge_max("build.peak_edges", pg.num_edges)
                node_id, _cut, children = build_node(
                    pg, tree, parent, labels, rec, beta=beta,
                    leaf_size=leaf_size, rng=rng, strategy=strategy,
                )
                frontier.extend((child, node_id) for child in children)

        # Phase 2: ship each pending subtree to a worker process.
        if pending:
            jobs = [
                (pg, strategy, beta, leaf_size, seed * 1_000_003 + anchor)
                for pg, anchor in pending
            ]
            with rec.span("ctls.parallel.workers", subtrees=len(jobs)):
                if workers > 1 and len(jobs) > 1:
                    with ProcessPoolExecutor(max_workers=workers) as pool:
                        results = list(pool.map(_build_subtree, jobs))
                else:
                    results = [_build_subtree(job) for job in jobs]

            for (pg, anchor), (tree_payload, dist, count, sub_stats) in zip(
                pending, results
            ):
                offset_of: Dict[int, int] = {}
                for sub_index, (vertices, sub_parent) in enumerate(
                    tree_payload
                ):
                    parent = (
                        anchor if sub_parent < 0 else offset_of[sub_parent]
                    )
                    offset_of[sub_index] = tree.add_node(vertices, parent)
                for v, entries in dist.items():
                    labels.dist[v].extend(entries)
                    labels.count[v].extend(count[v])
                rec.incr("build.ssspc_runs", sub_stats.ssspc_runs)
                rec.incr("build.shortcuts_added", sub_stats.shortcuts_added)
                rec.incr("build.shortcuts_pruned", sub_stats.shortcuts_pruned)
                rec.gauge_max("build.peak_edges", sub_stats.peak_edges)

        tree.finalize()
    index = CTLSIndex(
        tree, labels, BuildStats(), graph.num_vertices, graph.num_edges,
        strategy,
    )
    record_layout_gauges(rec, index.arena)
    stats = BuildStats.from_recorder(
        rec, seconds=time.perf_counter() - started, arena=index.arena
    )
    stats.extras["strategy"] = strategy
    stats.extras["workers"] = workers
    index.build_stats = stats
    return index
