"""The per-node construction step shared by CTL, CTLS and the parallel build.

Every tree node of CTL-Construct (Algorithm 2) and CTLS-Construct
(§IV-C) does the same three things to its graph: cut it with
BalancedCut, label every vertex with its distances and counts to the
cut, and hand each side's graph to the recursion — an induced subgraph
for CTL, an SPC-Graph for CTLS.  :func:`build_node` is that step, and
:func:`grow_tree` the depth-first loop over it that the sequential
builders run; the parallel builder drives :func:`build_node` from its
own breadth-first frontier.

The node graph is packed into one :class:`~repro.graph.csr.CSRGraph`
snapshot, which the labels and both sides' SPC-Graph searches share.

Labels (Algorithm 2, lines 2-4): for each cut vertex ``c`` in descending
rank order (ascending id), run SSSPC over the node's graph with all
previously processed (higher-ranked) cut vertices excluded.  The runs
give one row per cut vertex; transposed, they are each vertex's block
for this node, appended to its label array in one step.  The blocks
(each vertex's distances to this node's cut) also feed the through-cut
pruning thresholds of Algorithm 5.

Instrumentation goes through the build-scoped :mod:`repro.obs`
recorder (``build.ssspc_runs``, ``build.label_entries``) instead of a
hand-threaded stats object.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.spc_graph_build import (
    BlockOutDist,
    build_spc_graph_basic,
    build_spc_graph_cutsearch,
)
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.labels.store import LabelStore
from repro.partition.balanced_cut import balanced_cut
from repro.search.fast import ssspc_csr_arrays
from repro.tree.cut_tree import CutTree
from repro.types import INF, Vertex


def compute_node_labels(
    csr: CSRGraph,
    cut: Sequence[Vertex],
    labels: LabelStore,
    rec,
) -> Dict[Vertex, tuple]:
    """Append this node's label block to every vertex of ``csr``.

    ``rec`` is an :class:`repro.obs.Recorder` (or the null recorder);
    SSSPC runs and label entries are counted on it.  Returns
    ``{vertex: (distances to cut vertices)}`` — truncated at a cut
    vertex's own position — for through-cut threshold computation.
    """
    ids = csr.vertex_ids
    n = csr.num_vertices
    banned = [False] * n
    dist_rows = []
    count_rows = []
    for c in cut:
        dist, count = ssspc_csr_arrays(csr, ids[c], banned=banned)
        rec.incr("build.ssspc_runs")
        rec.incr("build.label_entries", n - len(dist_rows))
        dist_rows.append(dist)
        count_rows.append(count)
        banned[ids[c]] = True

    # Row j holds every vertex's entry for cut vertex j; a vertex's
    # block is its column.  Cut vertex i is banned from row i + 1 on.
    dist_blocks = list(zip(*dist_rows))
    count_blocks = list(zip(*count_rows))
    for position, c in enumerate(cut, 1):
        k = ids[c]
        dist_blocks[k] = dist_blocks[k][:position]
        count_blocks[k] = count_blocks[k][:position]
    for k, block in enumerate(dist_blocks):
        if None in block:  # unreachable from some cut vertex
            dist_blocks[k] = tuple(INF if d is None else d for d in block)

    label_dist = labels.dist
    label_count = labels.count
    for v, dists, counts in zip(csr.vertices, dist_blocks, count_blocks):
        label_dist[v].extend(dists)
        label_count[v].extend(counts)
    return dict(zip(csr.vertices, dist_blocks))


def build_node(
    pg: Graph,
    tree: CutTree,
    parent: int,
    labels: LabelStore,
    rec,
    *,
    beta: float,
    leaf_size: int,
    rng,
    strategy: Optional[str] = None,
) -> Tuple[int, tuple, List[Graph]]:
    """Cut, label and split one node graph ``pg``.

    ``strategy`` is ``None`` for CTL (the children are induced
    subgraphs) or a CTLS strategy (the children are SPC-Graphs, see
    :mod:`repro.core.spc_graph_build`).  Returns ``(node id, cut,
    children)``, the children being the non-empty sides' graphs, left
    first.
    """
    prefix = "ctl" if strategy is None else "ctls"
    csr = CSRGraph(pg)
    part = balanced_cut(
        pg, beta, leaf_size=leaf_size, rng=rng, rec=rec, csr=csr
    )
    node_id = tree.add_node(part.cut, parent)

    with rec.span(f"{prefix}.build.labels", node=node_id, cut=len(part.cut)):
        blocks = compute_node_labels(csr, part.cut, labels, rec)

    sides = [side for side in (part.left, part.right) if side]
    if strategy is None:
        return node_id, part.cut, [pg.induced_subgraph(s) for s in sides]

    through_cut = BlockOutDist(blocks)
    children = []
    with rec.span("ctls.build.shortcuts", node=node_id):
        for side in sides:
            if strategy == "cutsearch":
                child = build_spc_graph_cutsearch(
                    pg, side, part.cut, through_cut, rec, csr=csr
                )
            else:
                child = build_spc_graph_basic(
                    pg, side, rec, through_cut=through_cut,
                    prune=strategy == "pruned", csr=csr,
                )
            children.append(child)
    return node_id, part.cut, children


def grow_tree(
    graph: Graph,
    labels: LabelStore,
    rec,
    *,
    beta: float,
    leaf_size: int,
    rng,
    strategy: Optional[str] = None,
    progress: Optional[Callable[[dict], None]] = None,
) -> CutTree:
    """Run :func:`build_node` depth-first from ``graph`` down to the leaves.

    ``progress`` (optional) is called once per finished node with
    ``{nodes, depth, cut, labels, elapsed}``.  Returns the finalized
    cut tree; the labels land in ``labels``.
    """
    started = time.perf_counter()
    prefix = "ctl" if strategy is None else "ctls"
    tree = CutTree()
    entries = 0  # label entries so far, without rescanning the store
    # Explicit stack: tree depth can exceed Python's recursion limit.
    stack = [(graph, -1, 0)]
    while stack:
        pg, parent, depth = stack.pop()
        if pg.num_vertices == 0:
            continue
        rec.gauge_max("build.peak_edges", pg.num_edges)
        with rec.span(
            f"{prefix}.build.node", depth=depth, n=pg.num_vertices
        ) as node_span:
            node_id, cut, children = build_node(
                pg, tree, parent, labels, rec, beta=beta,
                leaf_size=leaf_size, rng=rng, strategy=strategy,
            )
            node_span.set(node=node_id, cut_size=len(cut))
        # Cut vertex j labels every vertex but the j cut vertices before it.
        k = len(cut)
        entries += k * pg.num_vertices - k * (k - 1) // 2
        if progress is not None:
            progress({
                "nodes": node_id + 1,
                "depth": depth,
                "cut": k,
                "labels": entries,
                "elapsed": time.perf_counter() - started,
            })
        stack.extend((child, node_id, depth + 1) for child in children)
    tree.finalize()
    return tree
