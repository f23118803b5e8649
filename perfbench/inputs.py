"""Seeded inputs of the benchmark and their counting-Dijkstra oracle.

Every input — the road network's edge weights, the query pairs, the
Zipf ranks and the edge-weight delta batches — is drawn from one
``random.Random`` seeded per workload and seed, so one seed always gives
one set of inputs.  The program under test sees them only as files (the
graph) and requests.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.generators import road_network
from repro.search.dijkstra import ssspc

Pair = Tuple[int, int]
#: ``(distance, count)``; distance ``None`` for a disconnected pair.
Answer = Tuple[Optional[int], int]

#: Edge weights the network and its deltas draw from: the generator's
#: own lattice, so shortest-path ties (non-trivial counts) stay common.
WEIGHT_CHOICES = tuple(range(60, 150, 10))

#: Generator seed of the road fabric (which junctions and streets exist).
#: It is fixed so every seed serves a network of the same size and
#: shape: with a seeded fabric, index size alone spread about 10%
#: between seeds, and build and scan costs with it.
TOPOLOGY_SEED = 7


def make_graph(num_vertices: int, rng: random.Random):
    """A road network of about ``num_vertices`` vertices.

    The fabric is fixed (:data:`TOPOLOGY_SEED`); every edge weight is
    drawn from ``rng``, so shortest paths, their counts and the CTLS
    shortcut labels differ from seed to seed.
    """
    graph = road_network(num_vertices, seed=TOPOLOGY_SEED)
    for a, b, _weight, count in sorted(graph.edges()):
        if a < b:
            graph.add_edge(a, b, rng.choice(WEIGHT_CHOICES), count)
    return graph


def grid_pairs(
    graph, rng: random.Random, sources: int, targets: int
) -> List[Pair]:
    """``sources * targets`` distinct pairs in random order.

    Sources and targets are drawn uniformly; grouping by source keeps
    the oracle at one counting-Dijkstra run per source.
    """
    vertices = sorted(graph.vertices())
    pairs = []
    for s in rng.sample(vertices, sources):
        others = [t for t in rng.sample(vertices, targets + 1) if t != s]
        pairs.extend((s, t) for t in others[:targets])
    rng.shuffle(pairs)
    return pairs


def zipf_ranks(
    items: int, length: int, exponent: float, rng: random.Random
) -> List[int]:
    """``length`` draws from a Zipf law over ranks ``0..items-1``."""
    cumulative = list(
        itertools.accumulate(1.0 / (k + 1) ** exponent for k in range(items))
    )
    total = cumulative[-1]
    return [
        bisect.bisect_left(cumulative, rng.random() * total)
        for _ in range(length)
    ]


def delta_batches(
    graph, rng: random.Random, batches: int, edges_per_batch: int,
    restore_after: int = 3,
) -> List[List[Tuple[int, int, int]]]:
    """Edge-weight batches that change new edges and restore old ones.

    Batch ``i`` sets ``edges_per_batch`` fresh edges to new weights and
    puts the edges batch ``i - restore_after`` changed back to their
    base weights.  The overlay thus holds about ``restore_after``
    batches of changes all run long, instead of a backlog that grows
    with however many edges a seed touched, and every batch does the
    same amount of work.
    """
    edges = sorted((a, b) for a, b, _w, _c in graph.edges() if a < b)
    picks = [rng.sample(edges, edges_per_batch) for _ in range(batches)]
    out = []
    for i, picked in enumerate(picks):
        batch = [
            (a, b, rng.choice(
                [w for w in WEIGHT_CHOICES if w != graph.weight(a, b)]))
            for a, b in picked
        ]
        if i >= restore_after:
            batch += [(a, b, graph.weight(a, b))
                      for a, b in picks[i - restore_after]]
        out.append(batch)
    return out


def apply_deltas(graph, batch: Sequence[Tuple[int, int, int]]) -> None:
    """Mirror one acknowledged batch onto ``graph`` (keeps edge counts)."""
    for a, b, weight in batch:
        graph.add_edge(a, b, weight, graph.count(a, b))


def oracle(graph, pairs: Sequence[Pair]) -> Dict[Pair, Answer]:
    """Counting Dijkstra: the exact ``(distance, count)`` of each pair."""
    by_source: Dict[int, List[int]] = {}
    for s, t in pairs:
        by_source.setdefault(s, []).append(t)
    answers: Dict[Pair, Answer] = {}
    for s, targets in by_source.items():
        dist, count = ssspc(graph, s)
        for t in targets:
            answers[(s, t)] = (dist.get(t), count.get(t, 0))
    return answers
