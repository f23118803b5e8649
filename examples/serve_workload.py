"""Serve an SPC index and replay a workload against it.

Run with::

    python examples/serve_workload.py [num_vertices]

The script builds a small synthetic road network, serves its index
with :class:`repro.serve.ServerThread`, and replays a random query
workload through the :mod:`repro.serve.client` load generator, printing
the QPS/latency report plus the serving metrics that ``GET /metrics``
exposes (cache hits, scans, shed counts).

The serving benchmarks live in ``benchmarks/bench_serve.py``; the
serving layer itself is documented in ``docs/serving.md``.
"""

from __future__ import annotations

import random
import sys

from repro.baselines.tl import TLIndex
from repro.bench.report import render_load_report
from repro.graph.generators import road_network
from repro.serve import ServeConfig, ServerThread, replay


def main() -> None:
    num_vertices = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    graph = road_network(num_vertices, seed=7)
    print(f"building TL index over {graph!r} ...")
    index = TLIndex.build(graph)

    rng = random.Random(42)
    vertices = list(graph.vertices())
    pairs = [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(1000)
    ]

    with ServerThread(index, ServeConfig(port=0)) as (host, port):
        report = replay(host, port, pairs, concurrency=8, pipeline=4)
    print("\n== replay ==")
    print(render_load_report(report))

    # One more short run to show the /metrics counters a live server
    # exposes (the cache absorbs the second repeat of the workload).
    thread = ServerThread(index, ServeConfig(port=0))
    with thread as (host, port):
        replay(host, port, pairs[:200], concurrency=4, repeats=2)
        snapshot = thread.server.recorder.metrics_snapshot()
    counters = snapshot.get("counters", {})
    print("\n== serving metrics (GET /metrics) ==")
    for name in sorted(counters):
        if name.startswith("serve."):
            print(f"  {name:<32} {counters[name]}")


if __name__ == "__main__":
    main()
