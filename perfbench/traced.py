"""The traced run: per-layer metrics from spans and ``/metrics`` deltas.

It is separate from the measured runs.  One untraced set-up and
measurement give the throughput the tracing overhead is measured against; then
the same workload runs with every process started through ``launch.py``,
whose spans are merged here into one Chrome trace and reduced to each
layer's self time.  Counters come from the program's own ``/metrics``
as deltas over the measured phases.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import loadgen
import procs

#: ``name: unit`` of every per-layer metric, in report order.
PER_LAYER = {
    "core.build_s": "s",
    "serialize.save_s": "s",
    "serialize.load_ms": "ms",
    "fleet.start_s": "s",
    "http.read_request_us": "us",
    "http.response_bytes_us": "us",
    "serve.coalescer.batch_size_mean": "count",
    "index.query_batch_us_per_pair": "us",
    "index.labels_visited_mean": "count",
    "serve.cache.hit_ratio": "ratio",
    "cache.get_us": "us",
    "fleet.router_cpu_us_per_req": "us",
    "fleet.hop_us": "us",
    "fleet.upstream.resends": "count",
    "live.validate_ms": "ms",
    "live.apply_batch_ms": "ms",
    "dynamic.update_weights_ms": "ms",
    "live.wal.append_ms": "ms",
    "live.wal.appends_per_batch": "count",
    "live.patched_share": "ratio",
    "live.overlay.entries": "count",
    "live.rebuilds": "count",
    "live.update_ack_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Pairs the exact visited-label count is taken over.
VISITED_SAMPLE = 1000


def rebuilds(metrics_before: dict, metrics_after: dict) -> int:
    """Rebuild-and-swaps between two ``/metrics`` snapshots (all workers)."""
    before = metrics_before.get("counters", {}).get("live.rebuilds", 0)
    return metrics_after.get("counters", {}).get("live.rebuilds", 0) - before


def load_spans(directory: Path) -> List[dict]:
    """Every ``spans-<pid>.json`` the traced processes wrote at exit."""
    out = []
    for path in sorted(directory.glob("spans-*.json")):
        out.append(json.loads(path.read_text()))
    return out


def merged_totals(processes: List[dict]) -> Dict[str, Tuple[int, int, int]]:
    """``name -> (calls, self ns, items)`` summed over processes."""
    out: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for proc in processes:
        for name, (calls, self_ns, items) in proc["totals"].items():
            entry = out[name]
            entry[0] += calls
            entry[1] += self_ns
            entry[2] += items
    return {name: tuple(entry) for name, entry in out.items()}


def chrome_trace(processes: List[dict]) -> dict:
    """One Chrome trace (complete events on the shared monotonic clock)."""
    events = []
    origin = min(
        (s[1] for proc in processes for s in proc["spans"]), default=0
    )
    for proc in processes:
        pid = proc["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"{proc['role']}-{pid}"}})
        for name, start, end, sid, parent, rid, tid, items in proc["spans"]:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "args": {"span_id": sid, "parent": parent,
                         "request_id": rid, "items": items},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _mean_self(totals, *names: str, per_item: bool = False) -> float:
    """Mean self time in ns per call (or per item) over ``names``."""
    calls = self_ns = items = 0
    for name in names:
        c, ns, n = totals.get(name, (0, 0, 0))
        calls, self_ns, items = calls + c, self_ns + ns, items + n
    count = items if per_item else calls
    return self_ns / count if count else 0.0


def _hist_mean(m0: dict, m1: dict, name: str) -> float:
    a = m0.get("histograms", {}).get(name) or {"count": 0, "sum": 0.0}
    b = m1.get("histograms", {}).get(name) or {"count": 0, "sum": 0.0}
    count = b["count"] - a["count"]
    return (b["sum"] - a["sum"]) / count if count > 0 else 0.0


def _counter(m0: dict, m1: dict, name: str) -> float:
    return (m1.get("counters", {}).get(name, 0)
            - m0.get("counters", {}).get(name, 0))


def _visited_mean(index_path: Path, workload: loadgen.Workload) -> float:
    from repro.core.serialize import load_index

    index = load_index(str(index_path))
    slots = [workload.order[i % len(workload.order)]
             for i in range(VISITED_SAMPLE)]
    visited = [index.query_with_stats(*workload.pairs[slot]).visited_labels
               for slot in slots]
    return statistics.mean(visited)


def _update_weights_ms(graph, batches, recorder) -> float:
    """``DynamicCTL.update_weights`` on the run's own batches, in-process.

    The live tier repairs labels inside ``UpdateCoordinator`` and never
    calls ``DynamicCTL``; this times the library's own repair entry
    point on the same graph and batches so the two can be compared.
    """
    from repro.core.dynamic import DynamicCTL

    dynamic = DynamicCTL(graph.copy())
    update = recorder.wrap("dynamic.update_weights", DynamicCTL.update_weights)
    for batch in batches:
        update(dynamic, batch)
    calls, self_ns, _items = recorder.totals["dynamic.update_weights"]
    return self_ns / calls / 1e6


def run_traced(spec, prep, seconds: float, work: Path, env, bench) -> dict:
    """The traced run of one workload; returns the result object."""
    import launch

    # Untraced reference: the same setup and phases, no spans.
    server, _setup = bench.setup_once(
        spec, prep, work, env, [procs.PYTHON, "-m", "repro.cli"]
    )
    try:
        untraced = bench.measure_pinned(spec, prep, server, seconds)
    finally:
        server.stop()
    reference = untraced.closed

    trace_dir = work / "spans"
    trace_dir.mkdir()
    traced_env = dict(env, **{launch.TRACE_ENV: str(trace_dir)})
    launcher = [procs.PYTHON, str(Path(launch.__file__))]
    prep.workload.stamp_ids = True
    server, _setup = bench.setup_once(spec, prep, work, traced_env, launcher)
    try:
        m = bench.measure_pinned(spec, prep, server, seconds)
    finally:
        server.stop()

    recorder = launch.SpanRecorder()
    update_ms = (_update_weights_ms(prep.graph, prep.batches, recorder)
                 if spec.live else 0.0)
    processes = load_spans(trace_dir)
    processes.append({"pid": os.getpid(), "role": "bench",
                      "totals": recorder.totals, "spans": recorder.spans})
    trace = chrome_trace(processes)
    from repro.obs import validate_chrome_trace

    problems = validate_chrome_trace(trace)
    trace_path = bench.ROOT / ".perfbench_traces" / f"{spec.name}-{time.time_ns()}.json"
    trace_path.parent.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps(trace))

    st = merged_totals(processes)
    m0, m1, m2 = m.metrics
    answered = m.opened.succeeded
    fleet = spec.workers > 1
    hits = _counter(m0, m2, "serve.cache.hits")
    misses = _counter(m0, m2, "serve.cache.misses")
    live_pairs = st.get("live.query_batch", (0, 0, 0))[2]
    appends = st.get("live.wal.append_batch", (0, 0, 0))[0]
    patched = st.get("live.patched_scan", (0, 0, 0))[0]
    acked = len(m.updates.acks) if m.updates is not None else 0
    # Send-to-answer: latency from the due time minus generator lateness.
    client_mean = (statistics.mean(m.opened.latencies)
                   - statistics.mean(m.opened.lateness))
    values = {
        "core.build_s": _mean_self(st, "core.build") / 1e9,
        "serialize.save_s": _mean_self(st, "serialize.save_index") / 1e9,
        "serialize.load_ms": _mean_self(st, "serialize.load_index") / 1e6,
        "fleet.start_s": _mean_self(st, "fleet.start") / 1e9,
        "http.read_request_us": _mean_self(st, "http.parse_request", "http.fast_query") / 1e3,
        "http.response_bytes_us": _mean_self(st, "http.response_bytes") / 1e3,
        "serve.coalescer.batch_size_mean": _hist_mean(m0, m2, "serve.batch.size"),
        "index.query_batch_us_per_pair": _mean_self(
            st, "index.query_batch", per_item=True) / 1e3,
        "index.labels_visited_mean": _visited_mean(work / "index.bin", prep.workload),
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.get_us": _mean_self(st, "cache.get") / 1e3,
        "fleet.router_cpu_us_per_req": (
            m.router_cpu_s / max(1, answered) * 1e6 if fleet else 0.0),
        "fleet.hop_us": (
            (client_mean - _hist_mean(m1, m2, "serve.latency_seconds")) * 1e6
            if fleet else 0.0),
        "fleet.upstream.resends": _counter(m0, m2, "fleet.upstream.resends"),
        "live.validate_ms": _mean_self(st, "live.validate_batch") / 1e6,
        "live.apply_batch_ms": _mean_self(st, "live.apply_batch") / 1e6,
        "dynamic.update_weights_ms": update_ms,
        "live.wal.append_ms": _mean_self(st, "live.wal.append_batch") / 1e6,
        "live.wal.appends_per_batch": (
            appends / acked if acked else 0.0),
        "live.patched_share": (
            patched / live_pairs if live_pairs else 0.0),
        "live.overlay.entries": m2.get("gauges", {}).get("live.overlay.entries", 0),
        "live.rebuilds": rebuilds(m0, m2),
        "live.update_ack_p50_ms": (
            statistics.median(m.updates.acks) * 1e3 if acked else 0.0),
        "trace.overhead_ratio": (
            m.closed.throughput() / reference.throughput()
            if reference.throughput() else 0.0),
    }
    attempted, failed = bench.totals([untraced, m])
    return {
        "correct": (failed == 0 and not problems
                    and bench.steady(untraced) and bench.steady(m)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in PER_LAYER.items()},
        "diagnostics": {
            "trace": str(trace_path.relative_to(bench.ROOT)),
            "trace_problems": problems[:5],
            "spans": sum(c for c, _ns, _n in st.values()),
            "processes": [p["role"] for p in processes],
            "untraced_rps": reference.throughput(),
            "traced_rps": m.closed.throughput(),
            "requests": {
                label: {name: {"attempted": p.attempted,
                               "succeeded": p.succeeded, "failed": p.failed}
                        for name, p in run.phases().items()}
                for label, run in (("untraced", untraced), ("traced", m))
            },
        },
    }

