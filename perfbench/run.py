"""Benchmark of ``repro-spc serve``: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload single-uniform --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports per-layer metrics.  The last line of
standard output is the result object; host diagnostics are printed
above it on lines starting with ``#``.  The exit code is non-zero when
any answer was wrong or any request failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

if not (SRC / "repro" / "cli.py").is_file():
    # The program under test is built from this checkout's sources only.
    print(f"error: no program to measure: {SRC / 'repro'} is missing",
          file=sys.stderr)
    sys.exit(2)

import inputs  # noqa: E402
import loadgen  # noqa: E402
import procs  # noqa: E402
import traced  # noqa: E402
from repro.graph.io import read_graph_auto, write_dimacs  # noqa: E402

WORK = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Spec:
    """One workload.  Sizes are fixed here so every run does equal work."""

    name: str
    vertices: int
    algorithm: str
    workers: int
    live: bool
    #: Pair grid: ``sources * targets`` distinct pairs.
    sources: int
    targets: int
    #: Zipf exponent over the pair set; ``None`` cycles the pairs in
    #: order, which an LRU smaller than the pair set never hits.
    zipf: Optional[float]
    query_connections: int
    #: Requests kept in flight per connection in the closed loop.  On
    #: the single server 2 x 64 keeps every coalesced batch at the
    #: default ``max_batch`` of 64; the router reads one request per
    #: connection at a time, so fleet depth only fills socket buffers.
    depth: int
    #: Open-loop rate (requests/s), below capacity on this host.
    rate: float
    #: Fleet-live stream: one batch every ``update_interval_s``.
    update_interval_s: float = 0.0
    edges_per_batch: int = 0
    #: Run the server and the client on CPUs of their own.  The single
    #: server's event loop and scan thread, and the client, are three
    #: busy threads on two CPUs; left to the scheduler they settled
    #: into one of two placements per run, whose CPU per request
    #: differed by 50%.  A fleet has more processes than CPUs anyway.
    pin_cpus: bool = False
    #: Window of the per-window medians.  On fleet-live it is one
    #: update interval, so every window holds one batch's repair.
    window_s: float = 0.5
    #: Setups per run; the median is reported.
    setups: int = 3
    warmup_s: float = 2.0


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="single-uniform",
            vertices=4000, algorithm="ctls", workers=1, live=False,
            sources=128, targets=64, zipf=None,
            query_connections=2, depth=64, rate=3000.0, pin_cpus=True,
        ),
        Spec(
            name="fleet-zipf",
            vertices=4000, algorithm="ctls", workers=2, live=False,
            sources=128, targets=256, zipf=1.0,
            query_connections=2, depth=16, rate=800.0,
        ),
        Spec(
            name="fleet-live",
            vertices=1000, algorithm="ctl", workers=2, live=True,
            sources=128, targets=96, zipf=None,
            query_connections=1, depth=16, rate=200.0,
            update_interval_s=1.0, edges_per_batch=1, window_s=1.0,
        ),
    )
}

#: The tiny sizes the self-test runs every workload at.
TINY = dict(vertices=300, sources=8, targets=16, setups=1, warmup_s=0.2)

#: Zipf draws generated per run; the sequence is cycled if exhausted.
ZIPF_DRAWS = 200_000
#: Pairs checked against counting Dijkstra after the fleet-live stream.
POST_STREAM_SOURCES = 16
POST_STREAM_TARGETS = 16
#: Rebuild-and-swaps every run must make (the overlay stays below the
#: default ``overlay_threshold``).
REBUILDS = 0


@dataclass
class Prepared:
    """A workload's generated inputs, on disk and in memory."""

    graph_path: Path
    graph: object
    workload: loadgen.Workload
    first: Tuple[Tuple[int, int], Tuple[Optional[int], int]]
    batches: List[List[Tuple[int, int, int]]]


def prepare(spec: Spec, seed: int, seconds: float, work: Path) -> Prepared:
    """Generate every input from ``seed``; compute the oracle (untimed)."""
    rng = random.Random(f"{spec.name}:{seed}")
    graph = inputs.make_graph(spec.vertices, rng)
    graph_path = work / "graph.gr"
    write_dimacs(graph, graph_path, comment=f"perfbench seed {seed}")
    # The server reads the file; answers are computed on what it reads.
    graph = read_graph_auto(graph_path)
    pairs = inputs.grid_pairs(graph, rng, spec.sources, spec.targets)
    answers = inputs.oracle(graph, pairs)
    order = None
    if spec.zipf is not None:
        order = inputs.zipf_ranks(len(pairs), ZIPF_DRAWS, spec.zipf, rng)
    batches: List[List[Tuple[int, int, int]]] = []
    if spec.live:
        per_phase = int(seconds / 2 / spec.update_interval_s)
        batches = inputs.delta_batches(
            graph, rng, 2 * max(1, per_phase), spec.edges_per_batch
        )
    workload = loadgen.Workload(pairs, answers, order)
    return Prepared(graph_path, graph, workload,
                    (pairs[0], answers[pairs[0]]), batches)


def _first_answer(server: procs.Server, first) -> None:
    """Poll until the server returns the first pair's exact answer."""
    (s, t), answer = first
    deadline = time.monotonic() + 60
    while True:
        try:
            url = f"http://{server.host}:{server.port}/query?source={s}&target={t}"
            with urllib.request.urlopen(url, timeout=10) as response:
                payload = json.loads(response.read())
            if (payload["distance"], payload["count"]) == answer:
                return
            raise RuntimeError(f"wrong first answer {payload} != {answer}")
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def setup_once(spec: Spec, prep: Prepared, work: Path, env, launcher
               ) -> Tuple[procs.Server, float]:
    """Graph file → build → v4 save → server start → first correct answer."""
    index = work / "index.bin"
    wal = work / "wal"
    shutil.rmtree(wal, ignore_errors=True)
    started = time.perf_counter()
    subprocess.run(
        launcher + ["build", str(prep.graph_path), str(index),
                    "--format", "binary", "--algorithm", spec.algorithm],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    argv = launcher + ["serve", str(index), "--port", "0"]
    if spec.workers > 1:
        argv += ["--workers", str(spec.workers)]
    if spec.live:
        argv += ["--live-updates", "--graph", str(prep.graph_path),
                 "--wal-dir", str(wal)]
    server_cpus = procs.split_cpus()[0] if spec.pin_cpus else None
    server = procs.Server(argv, env, work / "server.log", server_cpus)
    try:
        server.wait_serving()
        _first_answer(server, prep.first)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


@dataclass
class Measured:
    warmup: loadgen.PhaseResult
    closed: loadgen.PhaseResult
    opened: loadgen.PhaseResult
    updates: Optional[loadgen.PhaseResult]
    verify: Optional[loadgen.PhaseResult]
    #: Router CPU over the open loop.
    router_cpu_s: float
    #: Reference-loop ns per iteration over the closed and open phases.
    probe_ns: Tuple[float, float]
    #: CPU steal share over the closed and open phases.
    steal: Tuple[float, float]
    pss_mb: float
    metrics: Tuple[dict, dict, dict]

    def phases(self) -> Dict[str, loadgen.PhaseResult]:
        """Every phase whose requests were checked, by name."""
        phases = {"warmup": self.warmup, "closed": self.closed,
                  "open": self.opened, "updates": self.updates,
                  "post_stream": self.verify}
        return {name: p for name, p in phases.items() if p is not None}

    def rebuilds(self) -> int:
        return traced.rebuilds(self.metrics[0], self.metrics[2])


async def _with_updates(phase, spec: Spec, server, batches, mirror):
    """Run ``phase`` beside the update stream (fleet-live only)."""
    if not batches:
        return await phase, None

    def on_ack(i: int) -> None:
        inputs.apply_deltas(mirror, batches[i])

    updates = asyncio.ensure_future(loadgen.update_stream(
        server.host, server.port, batches,
        interval_s=spec.update_interval_s, on_ack=on_ack,
    ))
    result = await phase
    return result, await updates


async def measure(spec: Spec, prep: Prepared, server: procs.Server,
                  seconds: float) -> Measured:
    host, port = server.host, server.port
    half = seconds / 2
    # The server starts from the generated graph, so every answer is
    # checked exactly until the first weight batch is sent.
    prep.workload.exact = True
    warmup = await loadgen.closed_loop(
        host, port, prep.workload, seconds=spec.warmup_s,
        connections=spec.query_connections, depth=spec.depth,
        window_s=spec.warmup_s,
    )
    mirror = prep.graph.copy()
    prep.workload.exact = not prep.batches
    split = len(prep.batches) // 2
    probe = procs.HostProbe()
    probe_task = asyncio.ensure_future(probe.run())
    t0 = time.perf_counter()
    m0 = server.get_json("/metrics")
    steal0 = procs.cpu_times()
    closed, upd1 = await _with_updates(loadgen.closed_loop(
        host, port, prep.workload, seconds=half,
        connections=spec.query_connections, depth=spec.depth,
        window_s=spec.window_s,
    ), spec, server, prep.batches[:split], mirror)
    pss = procs.pss_mb(server.pids)
    t1 = time.perf_counter()
    steal1 = procs.cpu_times()
    m1 = server.get_json("/metrics")
    router0 = procs.cpu_seconds(server.pids[:1])
    opened, upd2 = await _with_updates(loadgen.open_loop(
        host, port, prep.workload, seconds=half, rate=spec.rate,
        connections=spec.query_connections, window_s=spec.window_s,
        sample=lambda: procs.cpu_seconds(server.pids),
    ), spec, server, prep.batches[split:], mirror)
    router_cpu = procs.cpu_seconds(server.pids[:1]) - router0
    m2 = server.get_json("/metrics")
    t2 = time.perf_counter()
    steal = (procs.steal_share(steal0, steal1),
             procs.steal_share(steal1, procs.cpu_times()))
    probe_task.cancel()
    probe_ns = (probe.median_ns(t0, t1), probe.median_ns(t1, t2))
    updates = verify = None
    if spec.live:
        updates = loadgen.PhaseResult(
            attempted=upd1.attempted + upd2.attempted,
            failed=upd1.failed + upd2.failed,
            acks=upd1.acks + upd2.acks,
        )
        verify = await _verify_post_stream(spec, prep, server, mirror)
    return Measured(warmup, closed, opened, updates, verify, router_cpu,
                    probe_ns, steal, pss, (m0, m1, m2))


def measure_pinned(spec: Spec, prep: Prepared, server: procs.Server,
                   seconds: float) -> Measured:
    client_cpus = procs.split_cpus()[1] if spec.pin_cpus else None
    with procs.pinned(client_cpus):
        return asyncio.run(measure(spec, prep, server, seconds))


async def _verify_post_stream(spec, prep, server, mirror):
    """Check a sample against counting Dijkstra on the mirrored weights."""
    rng = random.Random(f"verify:{spec.name}:{len(prep.batches)}")
    sources = min(POST_STREAM_SOURCES, spec.sources)
    pairs = inputs.grid_pairs(mirror, rng, sources, POST_STREAM_TARGETS)
    sample = loadgen.Workload(pairs, inputs.oracle(mirror, pairs))
    return await loadgen.one_pass(server.host, server.port, sample)


def end_to_end(m: Measured, setups: Sequence[float],
               index_bytes: int) -> Dict[str, Tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "server_cpu_us_per_req": (m.opened.per_answer() * 1e6, "us"),
        "index_mb": (index_bytes / 1e6, "MB"),
        "server_pss_mb": (m.pss_mb, "MB"),
    }


def diagnostics(m: Measured, setups, host0, host1) -> dict:
    opened = m.opened
    diag = {
        "setups_s": [round(s, 4) for s in setups],
        "steal_share": round(procs.steal_share(host0["cpu"], host1["cpu"]), 4),
        "load_average": [host0["load"], host1["load"]],
        "phase_steal_share": [round(x, 4) for x in m.steal],
        "throughput_rps": m.closed.throughput(),
        "open_loop_samples": len(opened.latencies),
        "latency_p50_ms": round(opened.latency_p50() * 1e3, 4),
        "latency_p99_ms": round(
            loadgen.percentile(opened.latencies, 99) * 1e3, 4),
        "open_loop_lateness_ms": {
            "p50": round(loadgen.percentile(opened.lateness, 50) * 1e3, 3),
            "p99": round(loadgen.percentile(opened.lateness, 99) * 1e3, 3),
            "max": round(max(opened.lateness) * 1e3, 3),
        },
        "closed_loop_windows": m.closed.window_counts,
        "reference_loop_ns": [round(x, 2) for x in m.probe_ns],
    }
    if m.updates is not None:
        diag["update_ack_p50_ms"] = round(
            statistics.median(m.updates.acks) * 1e3, 3
        ) if m.updates.acks else None
        diag["update_acks"] = len(m.updates.acks)
        diag["rebuilds"] = m.rebuilds()
    diag["requests"] = {
        name: {"attempted": p.attempted, "succeeded": p.succeeded,
               "failed": p.failed}
        for name, p in m.phases().items()
    }
    return diag


def totals(runs: Sequence[Measured]) -> Tuple[int, int]:
    """Requests attempted and failed over every phase of ``runs``."""
    phases = [p for m in runs for p in m.phases().values()]
    return (sum(p.attempted for p in phases), sum(p.failed for p in phases))


def steady(m: Measured) -> bool:
    """Whether the run made :data:`REBUILDS` rebuild-and-swaps.

    A rebuild moves the CPU per request of the windows it lands in, so a
    run with another count is not comparable and is not counted correct.
    """
    made = m.rebuilds()
    if made != REBUILDS:
        print(f"error: {made} rebuild-and-swaps in the measured phases, "
              f"expected {REBUILDS}", file=sys.stderr)
    return made == REBUILDS


def _host_sample() -> dict:
    return {"cpu": procs.cpu_times(), "load": procs.load_average()}


def run(spec: Spec, seed: int, seconds: float, trace: bool,
        work: Path, corrupt_answer: bool = False) -> dict:
    """One run of ``spec``; returns the result object (and diagnostics)."""
    env = procs.python_env(SRC)
    host0 = _host_sample()
    prep = prepare(spec, seed, seconds, work)
    if corrupt_answer:
        # Self-test hook: one expected answer is wrong on purpose.
        slot = prep.workload.order[0]
        distance, count = prep.workload.answers[slot]
        prep.workload.answers[slot] = (distance, count + 1)
        prep.workload.expected[slot] = b""
    if trace:
        return traced.run_traced(spec, prep, seconds, work, env, sys.modules[__name__])
    launcher = [procs.PYTHON, "-m", "repro.cli"]
    setups: List[float] = []
    server = None
    try:
        for i in range(spec.setups):
            server, elapsed = setup_once(spec, prep, work, env, launcher)
            setups.append(elapsed)
            if i < spec.setups - 1:
                server.stop()
                server = None
        m = measure_pinned(spec, prep, server, seconds)
    finally:
        if server is not None:
            server.stop()
    host1 = _host_sample()
    index_bytes = (work / "index.bin").stat().st_size
    metrics = end_to_end(m, setups, index_bytes)
    attempted, failed = totals([m])
    return {
        "correct": failed == 0 and steady(m),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "diagnostics": diagnostics(m, setups, host0, host1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM still runs the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = WORKLOADS[args.workload]
    work = WORK / f"{spec.name}-{args.seed}-{args.trace}-{int(time.time() * 1e3)}"
    work.mkdir(parents=True)
    try:
        result = run(spec, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("# diagnostics " + json.dumps(result.pop("diagnostics")))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
