"""Supervised serving benchmark: mmap cold starts and supervision cost.

Four claims are measured here:

* **cold start** — a v4 (mmap-native) container must open in a small
  fraction of a heap load (``mmap=False``) of the same file, because
  ``load_index`` maps the label sections instead of reading and
  checksumming them (acceptance bar: <= 0.25x);
* **parity** — ``serve --workers 2`` (one answering server under a
  supervisor) answers bit-identically to the index;
* **supervision** — the supervisor's liveness probes cost under 10%
  of the QPS of the same server running alone;
* **memory** — ``serve --workers 2`` holds under 15 MB of PSS more
  than ``serve`` alone: the supervisor process is all it adds.

The workload is a CTLS index over a synthetic road network — the
paper's target shape, and the shape whose overflow lane stays empty so
the heap-load comparison measures array reads, not big-int JSON
decoding.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_fleet.py -v

Results land in ``BENCH_serve_fleet.json`` (telemetry schema of
``repro.obs.perf``); the committed baseline lives in
``benchmarks/baselines/``.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import repro
from repro.core.ctls import CTLSIndex
from repro.core.serialize import load_index, save_index
from repro.graph.generators import road_network
from repro.serve import replay
from repro.types import INF

#: Road-network size: big enough that a heap load is tens of
#: milliseconds (so the mmap ratio measures reading, not Python
#: fixed costs), small enough to build in ~10 s.
ROAD_NODES = 10000

#: Distinct query pairs per replay (cache off: every request scans).
NUM_PAIRS = 1200

CONCURRENCY = 8
PIPELINE = 4

#: Cold-start measurement rounds (the ratio is recorded per round).
LOAD_ROUNDS = 5


@pytest.fixture(scope="module")
def graph():
    return road_network(ROAD_NODES, seed=1)


@pytest.fixture(scope="module")
def index(graph):
    return CTLSIndex.build(graph)


@pytest.fixture(scope="module")
def index_file(tmp_path_factory, index):
    path = tmp_path_factory.mktemp("fleet-bench") / "index.v4.bin"
    save_index(index, path, format="binary")
    return path


@pytest.fixture(scope="module")
def pairs(graph):
    vertices = list(graph.vertices())
    rng = random.Random(33)
    return [
        (rng.choice(vertices), rng.choice(vertices))
        for _ in range(NUM_PAIRS)
    ]


def test_mmap_cold_load_beats_heap_load(index_file, perf, capsys):
    """A v4 mmap open must cost <= 0.25x a heap load of the same file."""
    # One untimed round: the file was just written so the page cache
    # is warm either way, but the first call through each path pays
    # one-off allocator/codepath costs that are not the claim here.
    load_index(index_file)
    load_index(index_file, mmap=False)
    ratios, mmap_times, heap_times = [], [], []
    for _ in range(LOAD_ROUNDS):
        started = time.perf_counter()
        load_index(index_file)
        mmap_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        load_index(index_file, mmap=False)
        heap_times.append(time.perf_counter() - started)
        ratios.append(mmap_times[-1] / heap_times[-1])
    perf.record(
        "mmap_cold_load_ratio",
        ratios,
        unit="ratio",
        direction="lower",
        dataset=f"road{ROAD_NODES}",
        rounds=LOAD_ROUNDS,
    )
    # File bytes over the summed section bytes: what the header, the
    # page-alignment padding and the footer cost on top of the data.
    sections = load_index(index_file).provenance["sections"]
    perf.record(
        "v4_file_overhead",
        [index_file.stat().st_size / sum(sections.values())],
        unit="ratio",
        direction="lower",
        dataset=f"road{ROAD_NODES}",
    )
    ratio = sorted(ratios)[len(ratios) // 2]
    with capsys.disabled():
        print(
            f"\n\nCold start (road{ROAD_NODES} CTLS, "
            f"{index_file.stat().st_size / 1e6:.1f} MB): "
            f"v4 mmap {min(mmap_times) * 1e3:.1f} ms, "
            f"heap {min(heap_times) * 1e3:.1f} ms, "
            f"median ratio {ratio:.3f}"
        )
    assert ratio <= 0.25, (
        f"v4 mmap load is {ratio:.2f}x the heap load (bar: 0.25x)"
    )


@contextlib.contextmanager
def _served(path, *flags):
    """``repro-spc serve PATH --cache-size 0 FLAGS`` in a subprocess:
    yields ``(host, port, pid)``, then SIGTERMs it."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryFile("w+") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(path),
             "--port", "0", "--cache-size", "0", *flags],
            stdout=log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True,
        )
        try:
            deadline = time.time() + 120
            while True:
                log.seek(0)
                match = re.search(r"http://([0-9.]+):(\d+)", log.read())
                if match:
                    break
                assert process.poll() is None and time.time() < deadline
                time.sleep(0.05)
            yield match.group(1), int(match.group(2)), process.pid
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(60)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(process.pid, signal.SIGKILL)


def _fleet_run(path, pairs, *flags):
    with _served(path, *flags) as (host, port, _pid):
        return replay(
            host, port, pairs,
            concurrency=CONCURRENCY, pipeline=PIPELINE,
            collect_results=True,
        )


def test_fleet_answers_bit_identical(index_file, index, pairs, perf,
                                     capsys):
    """``serve --workers 2`` answers match the index."""
    report = _fleet_run(index_file, pairs, "--workers", "2")
    assert report.ok == len(pairs), report.status_counts
    wrong = 0
    for source, target, status, distance, count in report.results:
        expected = index.query(source, target)
        wire = None if expected.distance == INF else expected.distance
        if (distance, count) != (wire, expected.count):
            wrong += 1
    assert wrong == 0, f"{wrong} wrong answers through the fleet"
    perf.record(
        "fleet_qps_workers2",
        [report.qps],
        unit="req/s",
        direction="higher",
        dataset=f"road{ROAD_NODES}",
        pairs=NUM_PAIRS,
    )
    with capsys.disabled():
        print(
            f"\n\nSupervised parity (--workers 2): {report.ok}/"
            f"{len(pairs)} ok, 0 wrong, {report.qps:.0f} req/s"
        )


def test_supervised_fleet_overhead_under_ten_percent(
    index_file, pairs, perf, capsys
):
    """Supervision must cost < 10% steady-state QPS.

    The same server twice: alone (``serve``), and as the child of the
    ``--workers 2`` supervisor with an aggressive 200 ms probe cadence.
    The probes are tiny ``/health`` requests off the query path, so the
    supervised server must stay within 10% of the server alone.
    """
    supervised = ("--workers", "2", "--probe-interval-s", "0.2")
    # warmup: page cache and imports
    _fleet_run(index_file, pairs[:100])
    plain_qps = max(_fleet_run(index_file, pairs).qps for _ in range(3))
    supervised_qps = max(
        _fleet_run(index_file, pairs, *supervised).qps for _ in range(3)
    )
    ratio = supervised_qps / plain_qps
    perf.record(
        "fleet_supervision_overhead",
        [ratio],
        unit="ratio",
        direction="higher",
        dataset=f"road{ROAD_NODES}",
        pairs=NUM_PAIRS,
    )
    with capsys.disabled():
        print(
            f"\n\nSupervision overhead: alone {plain_qps:.0f} req/s, "
            f"supervised {supervised_qps:.0f} req/s ({ratio:.3f}x)"
        )
    assert ratio >= 0.9, (
        f"supervised server runs at {ratio:.3f}x the QPS of the server "
        f"alone (bar: >= 0.9x)"
    )


def _tree_pss_mb(root):
    """Summed PSS (``/proc/<pid>/smaps_rollup``) of ``root`` and every
    process below it, in MB."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry))
    total_kb, stack = 0, [root]
    while stack:
        pid = stack.pop()
        stack.extend(children.get(pid, ()))
        try:
            rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        match = re.search(r"^Pss:\s+(\d+) kB", rollup, re.M)
        total_kb += int(match.group(1)) if match else 0
    return total_kb / 1024


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/smaps"
)
def test_fleet_memory_overhead_under_15_mb(index_file, pairs, perf, capsys):
    """``serve --workers 2`` must hold < 15 MB of PSS over ``serve``.

    The same index and the same replay through each, then the summed
    PSS of each server's process tree: the difference is what
    supervision costs in memory, the supervisor process and any helper
    process beside the child.
    """
    overheads = []
    for _ in range(3):
        sizes = []
        for flags in ((), ("--workers", "2")):
            with _served(index_file, *flags) as (host, port, pid):
                replay(host, port, pairs, concurrency=CONCURRENCY,
                       pipeline=PIPELINE)
                sizes.append(_tree_pss_mb(pid))
        overheads.append(sizes[1] - sizes[0])
    perf.record(
        "fleet_pss_overhead_mb",
        overheads,
        unit="MB",
        direction="lower",
        dataset=f"road{ROAD_NODES}",
        pairs=NUM_PAIRS,
    )
    overhead = sorted(overheads)[len(overheads) // 2]
    with capsys.disabled():
        print(
            f"\n\nFleet memory overhead: {overhead:.1f} MB PSS over the "
            f"server alone (runs: {', '.join(f'{o:.1f}' for o in overheads)})"
        )
    assert overhead < 15.0, (
        f"serve --workers 2 holds {overhead:.1f} MB of PSS more than "
        f"serve alone (bar: < 15 MB)"
    )
