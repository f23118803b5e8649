"""Command-line interface: build, inspect, query, and profile SPC indexes.

Installed as the ``repro-spc`` console script::

    repro-spc build network.gr index.json --algorithm ctls
    repro-spc build network.gr index.bin --format binary
    repro-spc query index.json 17 3405
    repro-spc query index.json --pairs workload.txt
    repro-spc stats index.json
    repro-spc generate road 2000 network.gr --seed 7
    repro-spc profile index.json pairs.txt --repeats 3 --batch 512
    repro-spc serve index.json --port 8355 --access-log serve.log
    repro-spc serve index.bin --workers 2
    repro-spc query index.json 17 3405 --explain
    repro-spc top --port 8355 --once
    repro-spc build network.gr index.bin --format binary --progress
    repro-spc profile index.json pairs.txt --flame stacks.txt
    repro-spc bench-report --baseline benchmarks/baselines

    repro-spc verify-index index.bin --graph network.gr
    repro-spc serve index.bin --live-updates --graph network.gr
    repro-spc update-replay deltas.jsonl --port 8355 --speed 2.0
    repro-spc serve index.bin --workers 2 --live-updates \
        --graph network.gr --wal-dir wal/
    repro-spc wal-verify wal/
    repro-spc trace trace.json --port 8355
    repro-spc analyze --port 8355

Graphs are DIMACS ``.gr`` files (``.json``/``.txt`` edge lists are
auto-detected by extension); indexes use the formats of
:mod:`repro.core.serialize` — inspectable JSON (v1) or the packed
binary container (v4, mmap-native and checksummed), auto-detected on
load.  ``verify-index`` validates a file's
checksums before deployment, ``serve --workers N`` runs the server
under a supervisor that respawns it, and ``serve --fault-plan``
injects deterministic chaos for resilience testing (see
docs/operations.md).

``build``, ``query``, and ``profile`` accept ``--metrics`` (print the
metrics snapshot as JSON on completion) and ``--trace out.json`` (write
a Chrome trace-event file loadable in ``chrome://tracing`` or
Perfetto).  Exit codes: 0 on success — including a disconnected query
pair, which is an answer, not an error — and 1 for real failures (bad
paths, malformed files, unknown vertices).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Index, graph, serving and observability modules are imported where a
# command needs them: ``serve --workers N`` keeps its supervisor small.
from repro.exceptions import ParseError, ReproError
from repro.types import INF

_ALGORITHMS = ("ctl", "ctls", "tl")


def _build_index(algorithm: str, graph, strategy, progress):
    """Build ``algorithm``'s index of ``graph``."""
    if algorithm == "tl":
        from repro.baselines.tl import TLIndex

        return TLIndex.build(graph)
    if algorithm == "ctl":
        from repro.core.ctl import CTLIndex

        return CTLIndex.build(graph)
    from repro.core.ctls import CTLSIndex

    return CTLSIndex.build(graph, strategy=strategy, progress=progress)


def _load_graph(path: str):
    from repro.graph.io import read_graph_auto

    return read_graph_auto(path)


def _require_index_file(path: str) -> None:
    """Fail fast with a one-line error for bad index paths.

    ``stats``/``verify-index``/``serve`` on a missing file or a
    directory should print one actionable line, not a traceback or a
    multi-section corruption report.
    """
    target = Path(path)
    if target.is_dir():
        raise ParseError(f"{path} is a directory, expected an index file")
    if not target.is_file():
        raise ParseError(f"{path}: no such index file")


def _load_pairs(path: str):
    """Parse a query-pair file: one ``source target`` pair per line."""
    pairs = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split()
            if len(fields) != 2:
                raise ParseError(
                    f"expected 'source target', got {text!r}", line_number
                )
            try:
                pairs.append((int(fields[0]), int(fields[1])))
            except ValueError:
                raise ParseError(
                    f"non-integer vertex id in {text!r}", line_number
                ) from None
    if not pairs:
        raise ParseError(f"{path}: no query pairs found")
    return pairs


def _obs_begin(args):
    """Configure the global recorder when ``--trace``/``--metrics`` ask."""
    import repro.obs as obs

    if getattr(args, "trace", None) or getattr(args, "metrics", False):
        return obs.configure()
    return None


def _obs_end(args, rec) -> None:
    """Emit the requested trace/metrics output and reset the recorder."""
    import repro.obs as obs

    if rec is None:
        return
    try:
        if args.trace:
            obs.write_chrome_trace(args.trace, rec.trace_events)
            print(f"trace written to {args.trace}")
        if args.metrics:
            print(json.dumps(rec.metrics_snapshot(), indent=2, default=str))
    finally:
        obs.disable()


def _cmd_build(args: argparse.Namespace) -> int:
    import repro.obs as obs
    from repro.core.serialize import save_index
    from repro.obs.buildphase import (
        BuildPhaseTracker,
        ProgressPrinter,
        make_build_info,
        phase_breakdown,
    )

    rec = _obs_begin(args)
    # Build-phase provenance needs the builder's span stream even when
    # no --trace/--metrics was asked for: capture quietly in that case.
    capture = rec if rec is not None else obs.configure()
    progress_line = print if args.progress else None
    tracker = BuildPhaseTracker(progress_line)
    node_progress = None
    if args.progress:
        node_progress = ProgressPrinter(print)
    try:
        with obs.span("cli.build", algorithm=args.algorithm):
            with tracker.phase("load-graph"):
                graph = _load_graph(args.graph)
            print(f"loaded {graph!r}")
            started = time.perf_counter()
            with tracker.phase("build"):
                index = _build_index(
                    args.algorithm, graph, args.strategy, node_progress
                )
                if node_progress is not None:
                    node_progress.finish()
            elapsed = time.perf_counter() - started
            stats = index.stats()
            print(
                f"built {args.algorithm.upper()} in {elapsed:.2f}s "
                f"(h={stats.height}, w={stats.width}, "
                f"size={stats.size_bytes / 1e6:.2f} MB)"
            )
            phases = phase_breakdown(capture.trace_events)
            if args.progress:
                for name, entry in phases.items():
                    print(
                        f"[build] phase {name:<13} {entry['seconds']:8.3f}s"
                        f"  ({entry['count']} spans)"
                    )
            extras = {"graph": args.graph, "format": args.format}
            if args.algorithm == "ctls":
                extras["strategy"] = args.strategy
            build_info = make_build_info(
                algorithm=args.algorithm,
                build_seconds=elapsed,
                label_entries=stats.total_label_entries,
                phases=phases,
                coarse=tracker.summary(),
                extras=extras,
            )
            with tracker.phase("serialize"):
                save_index(
                    index, args.index, format=args.format,
                    build_info=build_info,
                )
            print(f"saved to {args.index} ({args.format})")
    finally:
        if rec is not None:
            _obs_end(args, rec)
        else:
            obs.disable()
    return 0


def _print_query_result(source: int, target: int, result) -> None:
    if result.distance == INF:
        print(f"Q({source}, {target}): disconnected")
    else:
        print(
            f"Q({source}, {target}): "
            f"distance={result.distance} shortest_paths={result.count}"
        )


def _print_explain(index, source: int, target: int) -> None:
    """The per-query counters behind one answer (``query --explain``).

    Mirrors the server's ``/query`` explain payload: the label scan
    count comes from the same :meth:`SPCIndex.query_with_stats` call,
    so the two report identical numbers for identical pairs.
    """
    parts = []
    try:
        stats = index.query_with_stats(source, target)
        parts.append(f"labels_scanned={stats.visited_labels}")
    except ReproError:
        pass
    tree = getattr(index, "tree", None)
    if tree is not None:
        try:
            node = tree.lca_node(source, target)
            parts.append(f"lca_depth={node.depth}")
            parts.append(f"lca_width={node.size}")
        except (KeyError, AttributeError):
            pass
    if parts:
        print("  explain: " + " ".join(parts))


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core.serialize import load_index

    if args.pairs is None and (args.source is None or args.target is None):
        raise ParseError("query needs either SOURCE TARGET or --pairs FILE")
    if args.pairs is not None and args.source is not None:
        raise ParseError("give either SOURCE TARGET or --pairs FILE, not both")
    rec = _obs_begin(args)
    try:
        index = load_index(args.index)
        if args.pairs is not None:
            pairs = _load_pairs(args.pairs)
            # One batched call: ids and LCA lookups amortise across the
            # file.  A disconnected pair is an answer, not an error.
            for (s, t), result in zip(pairs, index.query_batch(pairs)):
                _print_query_result(s, t, result)
                if args.explain:
                    _print_explain(index, s, t)
        else:
            _print_query_result(
                args.source, args.target,
                index.query(args.source, args.target),
            )
            if args.explain:
                _print_explain(index, args.source, args.target)
    finally:
        _obs_end(args, rec)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.bench.measure import profile_queries
    from repro.bench.report import render_profile
    from repro.core.serialize import load_index

    rec = _obs_begin(args)
    sampler = None
    try:
        index = load_index(args.index)
        pairs = _load_pairs(args.pairs)
        if args.flame:
            from repro.obs.sampling import SamplingProfiler

            sampler = SamplingProfiler().start()
        result = profile_queries(index, pairs, repeats=args.repeats,
                                 batch_size=args.batch, recorder=rec)
        if sampler is not None:
            sampler.stop()
            sampler.write_collapsed(args.flame)
            print(
                f"flamegraph stacks written to {args.flame} "
                f"({sampler.sample_count} samples; render with "
                "flamegraph.pl or speedscope.app)"
            )
        print(render_profile(result))
    finally:
        if sampler is not None and sampler.running:
            sampler.stop()
        _obs_end(args, rec)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """``verify-index``: checksum validation + sampled cross-check.

    Exit 0 only when every section verifies and (with ``--graph``)
    every sampled query matches the online counting-Dijkstra baseline
    exactly — the operator's pre-deploy gate for an index file.
    """
    import random

    from repro.core.serialize import load_index, verify_index_file

    _require_index_file(args.index)
    report = verify_index_file(args.index)
    width = max(len(name) for name, _, _ in report)
    failed = []
    for name, ok, detail in report:
        print(f"{name:<{width}}  {'ok' if ok else 'FAIL':<4}  {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(
            f"error: {args.index}: corrupt sections: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    if args.graph is None:
        print(f"{args.index}: checksums ok")
        return 0
    from repro.baselines.online import OnlineSPC

    index = load_index(args.index)
    graph = _load_graph(args.graph)
    online = OnlineSPC.build(graph)
    vertices = sorted(graph.vertices())
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.samples):
        source, target = rng.choice(vertices), rng.choice(vertices)
        got = index.query(source, target)
        want = online.query(source, target)
        if (got.distance, got.count) != (want.distance, want.count):
            mismatches += 1
            print(
                f"MISMATCH Q({source}, {target}): index "
                f"d={got.distance} c={got.count}, baseline "
                f"d={want.distance} c={want.count}",
                file=sys.stderr,
            )
    if mismatches:
        print(
            f"error: {args.index}: {mismatches}/{args.samples} sampled "
            "queries disagree with the online baseline",
            file=sys.stderr,
        )
        return 1
    print(
        f"{args.index}: checksums ok, {args.samples} sampled queries "
        "match the online baseline"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.config import ServeConfig
    from repro.serve.fleet import Supervised

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        queue_high_water=args.high_water,
        request_timeout_ms=args.timeout_ms,
        access_log=args.access_log,
        slow_query_ms=args.slow_ms,
        log_sample_every=args.log_sample,
        log_seed=args.log_seed,
        slo_window_s=args.slo_window,
        slo_p99_ms=args.slo_p99_ms,
        slo_error_rate=args.slo_error_rate,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        live_updates=args.live_updates,
        overlay_threshold=args.overlay_threshold,
        trace_buffer=args.trace_buffer,
        trace_sample_every=args.trace_sample,
        top_pairs_capacity=args.top_pairs,
        wal_dir=args.wal_dir,
        probe_interval_s=args.probe_interval_s,
    )
    supervised = Supervised.inherited()
    if supervised is not None:
        # The answering child of ``--workers N``: its supervisor's own
        # command line, checked there.  An error the CLI would print as
        # one line is reported to the supervisor instead.
        try:
            return _serve_one(args, config, supervised.index_path,
                              supervised)
        except (ReproError, OSError, ValueError) as exc:
            supervised.report("error", str(exc) or type(exc).__name__)
            return 1
    _require_index_file(args.index)
    if args.live_updates and args.graph is None:
        raise ParseError("--live-updates needs --graph GRAPH")
    if args.wal_dir is not None and not args.live_updates:
        raise ParseError("--wal-dir needs --live-updates (it logs "
                         "accepted update batches)")
    if args.fallback == "online" and args.graph is None:
        raise ParseError("--fallback online needs --graph GRAPH")
    if args.workers > 1:
        from repro.serve.fleet import FleetRouter

        if args.live_updates and args.wal_dir is None:
            raise ParseError(
                "--workers N --live-updates needs --wal-dir DIR (a "
                "respawned server recovers every acknowledged batch "
                "from it)"
            )
        return FleetRouter(args.index, config).run()
    return _serve_one(args, config, args.index)


def _fault_plan(args: argparse.Namespace, generation: int):
    """``--fault-plan`` (else ``$REPRO_FAULT_PLAN``) as a plan, or
    ``None``; each respawned generation rolls new dice, so one
    deterministic draw does not kill every replacement alike."""
    import os

    from repro.faults import ENV_PLAN, FaultPlan

    text, seed = args.fault_plan, args.fault_seed
    if text is None:
        plan = FaultPlan.from_env()
        if plan is None:
            return None
        text, seed = os.environ[ENV_PLAN], plan.seed
    return FaultPlan.parse(text, seed=seed + 7919 * generation)


def _serve_one(
    args: argparse.Namespace, config, index_path: str, supervised=None
) -> int:
    """Run one server on ``index_path`` until it drains: the whole of
    ``serve``, or, given the supervisor's ``supervised`` end, the one
    answering child of ``serve --workers N``."""
    import asyncio

    from repro.core.serialize import load_index
    from repro.obs import Recorder
    from repro.serve.server import SPCServer

    generation = supervised.generation if supervised is not None else 0
    # One recorder for the server and its live tier, WAL included.
    recorder = Recorder()
    # Every section checksummed, the label arena included: a flipped
    # byte must stop the server, not change an answer.
    index = load_index(index_path, verify=True)
    fault_plan = _fault_plan(args, generation)
    fallback = None
    if args.fallback == "online":
        from repro.baselines.online import OnlineSPC

        fallback = OnlineSPC.build(_load_graph(args.graph))
    updates = None
    if args.live_updates:
        from repro.live import UpdateCoordinator, recover_coordinator

        if args.wal_dir is not None:
            # Durable mode: replay any existing WAL to the exact
            # pre-crash overlay, on the base it pins, then keep
            # logging into it.
            updates, recovery = recover_coordinator(
                args.wal_dir,
                _load_graph(args.graph),
                index,
                overlay_threshold=config.overlay_threshold,
                recorder=recorder,
            )
            if not recovery.fresh:
                print(
                    f"recovered from WAL {recovery.path}: epoch "
                    f"{recovery.epoch} seqno {recovery.seqno} "
                    f"({recovery.replayed_batches} batches replayed"
                    + (", torn tail dropped" if recovery.torn_tail else "")
                    + ")",
                    flush=True,
                )
        else:
            updates = UpdateCoordinator(
                _load_graph(args.graph),
                index,
                overlay_threshold=config.overlay_threshold,
                recorder=recorder,
            )

    async def _serve() -> None:
        server = SPCServer(
            index,
            config,
            recorder=recorder,
            fault_plan=fault_plan,
            fallback=fallback,
            index_path=index_path,
            updates=updates,
            supervised=supervised,
        )
        await server.start()
        server.install_signal_handlers()
        modes = []
        if fault_plan is not None and fault_plan.active:
            modes.append("chaos")
        if fallback is not None:
            modes.append("fallback=online")
        if updates is not None:
            modes.append("live")
        if supervised is not None:
            modes.append(f"supervised, generation {generation}")
            supervised.report("ready")
        mode = f" ({', '.join(modes)})" if modes else ""
        print(
            f"serving {type(index).__name__} on "
            f"http://{server.host}:{server.port}{mode}; "
            "SIGTERM/SIGINT drains and exits, SIGHUP reloads the index",
            flush=True,
        )
        await server.wait_stopped()
        print("drained cleanly", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass  # ctrl-C on platforms without signal-handler support
    return 0


def _cmd_update_replay(args: argparse.Namespace) -> int:
    """Stream a timestamped delta file at a live server."""
    from repro.live import read_delta_file, stream_deltas

    batches = read_delta_file(args.deltas)
    if not batches:
        print(f"{args.deltas}: no delta batches to stream")
        return 0
    report = stream_deltas(
        args.host,
        args.port,
        batches,
        speed=args.speed,
        timeout_s=args.timeout,
    )
    latencies = sorted(report.apply_latencies)
    p99_ms = (
        latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))] * 1e3
        if latencies
        else 0.0
    )
    print(
        f"streamed {report.batches_sent}/{len(batches)} batches "
        f"({report.updates_sent} edge updates) to "
        f"{args.host}:{args.port}; "
        f"epoch {report.last_epoch} seqno {report.last_seqno}, "
        f"apply p99 {p99_ms:.1f} ms"
    )
    for error in report.errors:
        print(f"  {error}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_wal_verify(args: argparse.Namespace) -> int:
    """Validate WAL file(s): framing, CRCs, watermark continuity."""
    import os

    from repro.live import verify_wal
    from repro.live.wal import WriteAheadLog

    if os.path.isdir(args.path):
        files = [str(path) for _, path in WriteAheadLog.epoch_files(args.path)]
        if not files:
            print(f"error: no wal-*.log files in {args.path}",
                  file=sys.stderr)
            return 1
    else:
        files = [args.path]
    exit_code = 0
    for file_path in files:
        report = verify_wal(file_path)
        print(f"{report.path}: {report.size} bytes, "
              f"{len(report.records)} records")
        for row in report.records:
            print(
                f"  @{row['offset']:>8}  {row['kind']:<5}  "
                f"epoch {row['epoch']}  seqno {row['seqno']}  "
                f"{row['length']} payload bytes  crc ok"
            )
        epoch, first, last = report.watermark
        if report.records:
            print(f"  watermark: epoch {epoch}, seqno {first} -> {last}")
        if report.torn_tail:
            # A torn final record is the expected crash signature;
            # recovery truncates it, so it is a note, not a failure.
            print(f"  torn tail (tolerated on recovery): {report.torn_tail}")
        if not report.ok:
            print(f"error: {report.path}: {report.problem}",
                  file=sys.stderr)
            exit_code = 1
    return exit_code


def _post_json(host: str, port: int, path: str, timeout: float):
    """One synchronous ``POST``; ``(status, decoded JSON body)``."""
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST", path, body=b"{}",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = response.read()
        return response.status, (json.loads(body) if body else {})
    finally:
        conn.close()


def _cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: capture a server's span ring as a Chrome trace.

    Fetches ``POST /admin/trace?format=chrome``, validates the payload
    and writes the file.
    """
    import http.client

    from repro.obs import validate_chrome_trace

    path = "/admin/trace?format=chrome"
    if args.clear:
        path += "&clear=1"
    try:
        status, payload = _post_json(
            args.host, args.port, path, args.timeout
        )
    except (OSError, ValueError, http.client.HTTPException) as exc:
        print(
            f"error: cannot capture from {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    if status != 200:
        detail = (
            payload.get("error", "")
            if isinstance(payload, dict)
            else ""
        )
        print(
            f"error: trace capture failed: HTTP {status} {detail}",
            file=sys.stderr,
        )
        return 1
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems[:10]:
            print(f"error: invalid trace: {problem}", file=sys.stderr)
        return 1
    events = payload.get("traceEvents", [])
    spans = [e for e in events if e.get("ph") == "X"]
    Path(args.output).write_text(
        json.dumps(payload, indent=2, sort_keys=True)
    )
    print(
        f"wrote {args.output}: {len(spans)} spans — load in "
        "chrome://tracing or Perfetto"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """``analyze``: one workload-analytics report from ``/stats``."""
    import http.client

    from repro.serve.analyze import render_analysis
    from repro.serve.top import fetch_json

    try:
        status, stats = fetch_json(
            args.host, args.port, "/stats", timeout=args.timeout
        )
    except (OSError, ValueError, http.client.HTTPException) as exc:
        print(
            f"error: cannot reach {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    if status != 200:
        print(
            f"error: /stats returned HTTP {status}", file=sys.stderr
        )
        return 1
    print(render_analysis(stats, top_n=args.top), end="")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import run_top

    return run_top(
        args.host,
        args.port,
        interval=args.interval,
        once=args.once,
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.serialize import describe_index
    from repro.labels.arena import WIDTHS

    _require_index_file(args.index)
    # Lazy for the v4 container: reads the footer + JSON header (and,
    # for CTL/CTLS, the two small tree-shape sections), never the
    # label arrays — `stats` on a multi-GB index stays instant.
    summary = describe_index(args.index)
    print(f"type:               {summary['type']}Index")
    print(f"vertices:           {summary['num_vertices']}")
    print(f"edges:              {summary['num_edges']}")
    print(f"tree nodes:         {summary['tree_nodes']}")
    print(f"height (h):         {summary['height']}")
    print(f"width (w):          {summary['width']}")
    print(f"label entries:      {summary['total_label_entries']}")
    print(f"size (32-bit model): {summary['size_bytes'] / 1e6:.2f} MB")
    print(
        "label widths:       "
        f"dist {WIDTHS[summary['dist_typecode']].dtype}, "
        f"count {WIDTHS[summary['count_typecode']].dtype}"
    )
    print(f"file bytes:         {summary['file_bytes']}")
    print(f"format version:     v{summary['format_version']}")
    sections = summary.get("sections")
    if sections:
        rendered = "  ".join(
            f"{name}={size}" for name, size in sections.items()
        )
        print(f"section bytes:      {rendered}")
    info = summary.get("build_info")
    if info:
        print(
            "built:              "
            f"{info.get('algorithm', '?')} in "
            f"{info.get('build_seconds', float('nan')):.2f}s "
            f"at {info.get('built_at', '?')} "
            f"(sha {str(info.get('git_sha', '?'))[:12]})"
        )
        if "labels_per_second" in info:
            print(
                f"label throughput:   "
                f"{info['labels_per_second']:.0f} entries/s"
            )
        for phase, entry in (info.get("phases") or {}).items():
            print(
                f"  phase {phase:<13} {entry['seconds']:8.3f}s"
                f"  ({entry['count']} spans)"
            )
    return 0


def _cmd_bench_report(args: argparse.Namespace) -> int:
    """``bench-report``: gate current BENCH_*.json against a baseline."""
    from repro.bench.regression import (
        DEFAULT_TOLERANCE,
        compare_directories,
        render_report,
    )

    current_dir = Path(args.current)
    baseline_dir = Path(args.baseline)
    if not baseline_dir.is_dir():
        print(
            f"error: baseline directory {baseline_dir} does not exist "
            "(run the benchmarks and copy the BENCH_*.json files there "
            "to establish one)",
            file=sys.stderr,
        )
        return 1
    if not list(current_dir.glob("BENCH_*.json")):
        print(
            f"error: no BENCH_*.json files in {current_dir} — run the "
            "benchmarks first (see docs/benchmarks.md)",
            file=sys.stderr,
        )
        return 1
    report = compare_directories(
        current_dir,
        baseline_dir,
        default_tolerance=(
            args.tolerance if args.tolerance is not None
            else DEFAULT_TOLERANCE
        ),
        portable_only=args.portable,
        suites=args.suite,
    )
    print(render_report(report, verbose=args.verbose))
    return 0 if report.ok else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph.generators import power_grid_network, road_network
    from repro.graph.io import write_dimacs

    if args.kind == "road":
        graph = road_network(args.vertices, seed=args.seed)
    else:
        graph = power_grid_network(args.vertices, seed=args.seed)
    write_dimacs(graph, args.output, comment=f"synthetic {args.kind} network")
    print(f"wrote {graph!r} to {args.output}")
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="write a Chrome trace-event JSON file of the run",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics snapshot as JSON when done",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-spc`` argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-spc",
        description="Shortest path counting indexes for road networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an index from a graph file")
    p_build.add_argument("graph", help="input graph (.gr/.json/edge list)")
    p_build.add_argument("index", help="output index (JSON)")
    p_build.add_argument(
        "--algorithm", choices=_ALGORITHMS, default="ctls"
    )
    p_build.add_argument(
        "--strategy",
        choices=("basic", "pruned", "cutsearch"),
        default="cutsearch",
        help="CTLS construction variant (ignored for tl/ctl)",
    )
    p_build.add_argument(
        "--format",
        choices=("json", "binary"),  # repro.core.serialize.FORMATS
        default="json",
        help="on-disk index format: inspectable JSON (v1, default) or "
        "packed binary (v4: checksummed, page-aligned sections loaded "
        "zero-copy via mmap)",
    )
    p_build.add_argument(
        "--progress",
        action="store_true",
        help="print live per-node progress and a per-phase time/memory "
        "breakdown (partition, labels, SPC-graph, packing, serialize)",
    )
    _add_obs_flags(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser(
        "query", help="answer one Q(s, t) or a batch from a file"
    )
    p_query.add_argument("index")
    p_query.add_argument("source", type=int, nargs="?", default=None)
    p_query.add_argument("target", type=int, nargs="?", default=None)
    p_query.add_argument(
        "--pairs",
        metavar="FILE",
        default=None,
        help="batch mode: answer every 'source target' line of FILE "
        "through query_batch (one output line per pair)",
    )
    p_query.add_argument(
        "--explain",
        action="store_true",
        help="also print per-query counters (labels scanned, LCA node "
        "depth/width) — the offline twin of the server's explain mode",
    )
    _add_obs_flags(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_profile = sub.add_parser(
        "profile",
        help="replay a query workload and print latency percentiles",
    )
    p_profile.add_argument("index")
    p_profile.add_argument(
        "pairs", help="workload file: one 'source target' pair per line"
    )
    p_profile.add_argument(
        "--repeats", type=int, default=1,
        help="replay the whole workload this many times (default 1)",
    )
    p_profile.add_argument(
        "--batch", type=int, default=0, metavar="N",
        help="replay through query_batch in chunks of N "
        "(default 0: per-pair queries)",
    )
    p_profile.add_argument(
        "--flame", metavar="OUT.txt", default=None,
        help="attach the sampling profiler during the replay and write "
        "collapsed flamegraph stacks to OUT.txt",
    )
    _add_obs_flags(p_profile)
    p_profile.set_defaults(func=_cmd_profile)

    p_serve = sub.add_parser(
        "serve",
        help="serve Q(s, t) over HTTP (see docs/serving.md)",
    )
    p_serve.add_argument("index", help="built index file to serve")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8355,
        help="TCP port (0 picks a free one; default 8355)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="any N >= 2 runs one supervised server: the one answering "
        "server is the child of a supervisor that holds the port, "
        "forwards signals and respawns it (a live one recovers from "
        "--wal-dir); the flag stays valid because perfbench passes "
        "--workers 2 (default 1 = the server alone)",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="LRU result-cache capacity, 0 disables (default 4096); "
        "with --workers N the one answering child holds this many "
        "entries, not N times as many",
    )
    p_serve.add_argument(
        "--high-water", type=int, default=256, metavar="N",
        help="shed (503) a POST batch of more pairs than this, and "
        "fallback queries past this many waiting (default 256)",
    )
    p_serve.add_argument(
        "--timeout-ms", type=int, default=1000, metavar="MS",
        help="deadline of a query answered by the breaker's fallback; "
        "past it the query gets 504 (default 1000)",
    )
    p_serve.add_argument(
        "--access-log", metavar="FILE", default=None,
        help="write JSON-lines access + slow-query records to FILE "
        "('-' = stderr; default: no request logging)",
    )
    p_serve.add_argument(
        "--slow-ms", type=float, default=100.0, metavar="MS",
        help="latency threshold for slow_query records (default 100)",
    )
    p_serve.add_argument(
        "--log-sample", type=int, default=1, metavar="N",
        help="keep 1 in N access records for fast 200s; slow and "
        "failed requests are always logged (default 1 = everything)",
    )
    p_serve.add_argument(
        "--log-seed", type=int, default=0,
        help="seed of the deterministic log sampler (default 0)",
    )
    p_serve.add_argument(
        "--slo-window", type=int, default=30, metavar="S",
        help="rolling SLO window in seconds, 0 disables (default 30)",
    )
    p_serve.add_argument(
        "--slo-p99-ms", type=float, default=0.0, metavar="MS",
        help="degrade /health when windowed p99 latency exceeds this "
        "(default 0 = objective disabled)",
    )
    p_serve.add_argument(
        "--slo-error-rate", type=float, default=0.0, metavar="FRAC",
        help="degrade /health when windowed error rate exceeds this "
        "fraction (default 0 = objective disabled)",
    )
    p_serve.add_argument(
        "--fault-plan", metavar="SPEC", default=None,
        help="chaos injection plan, e.g. 'scan.fail:0.1,conn.reset:0.05' "
        "(sites: scan.fail scan.slow conn.reset index.load "
        "worker.kill wal.torn_write; falls back to $REPRO_FAULT_PLAN "
        "when omitted)",
    )
    p_serve.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the deterministic fault RNG (default 0)",
    )
    p_serve.add_argument(
        "--fallback", choices=("none", "online"), default="none",
        help="degraded-mode answer path while the circuit breaker is "
        "open: 'online' runs counting Dijkstra on --graph (default "
        "none)",
    )
    p_serve.add_argument(
        "--graph", metavar="FILE", default=None,
        help="graph file backing '--fallback online' and/or "
        "'--live-updates'",
    )
    p_serve.add_argument(
        "--live-updates", action="store_true",
        help="accept streamed edge-weight deltas on POST /admin/update "
        "(CTL indexes only; needs --graph; see docs/serving.md)",
    )
    p_serve.add_argument(
        "--wal-dir", metavar="DIR", default=None,
        help="durable write-ahead log for accepted update batches: "
        "fsync'd before acknowledgement, replayed on restart/respawn "
        "to the exact pre-crash overlay (needs --live-updates; "
        "required with --workers N)",
    )
    p_serve.add_argument(
        "--probe-interval-s", type=float, default=1.0, metavar="S",
        help="--workers N only: seconds between the supervisor's "
        "liveness probes of the server; 0 disables the HTTP probe "
        "(a dead process is seen at once either way; default 1)",
    )
    p_serve.add_argument(
        "--overlay-threshold", type=int, default=20000, metavar="N",
        help="patched overlay entries that trigger a background "
        "rebuild-and-swap of the base index, 0 = never (default 20000)",
    )
    p_serve.add_argument(
        "--trace-buffer", type=int, default=4096, metavar="N",
        help="per-process distributed-trace span ring capacity; 0 "
        "disables tracing and POST /admin/trace (default 4096)",
    )
    p_serve.add_argument(
        "--trace-sample", type=int, default=64, metavar="N",
        help="locally trace 1 in N requests without an inbound "
        "traceparent (1 = everything, 0 = only propagated traces; "
        "default 64)",
    )
    p_serve.add_argument(
        "--top-pairs", type=int, default=256, metavar="N",
        help="Space-Saving heavy-hitter sketch capacity over query "
        "pairs (the /stats top_pairs block); 0 disables (default 256)",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=10, metavar="N",
        help="trip the scan circuit breaker after N consecutive "
        "failures, 0 disables (default 10)",
    )
    p_serve.add_argument(
        "--breaker-cooldown", type=float, default=5.0, metavar="S",
        help="seconds between index probes while the breaker is open "
        "(default 5)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_verify = sub.add_parser(
        "verify-index",
        help="validate an index file's checksums (and optionally "
        "cross-check sampled queries against the online baseline)",
    )
    p_verify.add_argument("index", help="index file to verify")
    p_verify.add_argument(
        "--graph", metavar="FILE", default=None,
        help="also cross-check sampled queries against counting "
        "Dijkstra on this graph",
    )
    p_verify.add_argument(
        "--samples", type=int, default=50, metavar="N",
        help="number of sampled query pairs to cross-check (default 50)",
    )
    p_verify.add_argument(
        "--seed", type=int, default=0,
        help="seed of the query sampler (default 0)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running server's "
        "/stats + /metrics",
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument(
        "--port", type=int, default=8355,
        help="port of the server to watch (default 8355)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh interval in seconds (default 2)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (for scripts and CI)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_trace = sub.add_parser(
        "trace",
        help="capture the span ring of a running server "
        "(POST /admin/trace) and write a Chrome trace file",
    )
    p_trace.add_argument(
        "output", help="output Chrome trace JSON file"
    )
    p_trace.add_argument("--host", default="127.0.0.1")
    p_trace.add_argument(
        "--port", type=int, default=8355,
        help="server port (default 8355)",
    )
    p_trace.add_argument(
        "--clear", action="store_true",
        help="drain the span rings as part of the capture, so the "
        "next capture starts empty",
    )
    p_trace.add_argument(
        "--timeout", type=float, default=10.0, metavar="S",
        help="HTTP timeout in seconds (default 10)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_analyze = sub.add_parser(
        "analyze",
        help="workload analytics report over a running server's "
        "/stats: hot pairs, skew, cache attribution",
    )
    p_analyze.add_argument("--host", default="127.0.0.1")
    p_analyze.add_argument(
        "--port", type=int, default=8355,
        help="server port (default 8355)",
    )
    p_analyze.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows in the hot-pair table (default 20)",
    )
    p_analyze.add_argument(
        "--timeout", type=float, default=10.0, metavar="S",
        help="HTTP timeout in seconds (default 10)",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_stats = sub.add_parser("stats", help="print index statistics")
    p_stats.add_argument("index")
    p_stats.set_defaults(func=_cmd_stats)

    p_bench = sub.add_parser(
        "bench-report",
        help="diff current BENCH_*.json files against a committed "
        "baseline and exit non-zero on regression",
    )
    p_bench.add_argument(
        "--current", metavar="DIR", default=".",
        help="directory holding the freshly emitted BENCH_*.json "
        "(default: current directory)",
    )
    p_bench.add_argument(
        "--baseline", metavar="DIR", default="benchmarks/baselines",
        help="committed baseline snapshot (default benchmarks/baselines)",
    )
    p_bench.add_argument(
        "--tolerance", type=float, default=None, metavar="X",
        help="default multiplicative tolerance for host-dependent "
        "metrics (default 1.75; per-unit/per-record values override)",
    )
    p_bench.add_argument(
        "--portable", action="store_true",
        help="compare only host-independent metrics (ratios, label "
        "counts, byte sizes) — the mode CI uses against a baseline "
        "recorded on different hardware",
    )
    p_bench.add_argument(
        "--suite", action="append", default=None, metavar="NAME",
        help="restrict to these suites (repeatable; default: every "
        "suite present in --current)",
    )
    p_bench.add_argument(
        "--verbose", action="store_true",
        help="also list metrics whose status is plain ok",
    )
    p_bench.set_defaults(func=_cmd_bench_report)

    p_generate = sub.add_parser(
        "generate", help="write a synthetic network as DIMACS"
    )
    p_generate.add_argument("kind", choices=("road", "power"))
    p_generate.add_argument("vertices", type=int)
    p_generate.add_argument("output")
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.set_defaults(func=_cmd_generate)

    p_replay = sub.add_parser(
        "update-replay",
        help="stream a timestamped delta file at a live server's "
        "POST /admin/update (see docs/operations.md)",
    )
    p_replay.add_argument(
        "deltas",
        help="JSON-lines delta file: {\"at\": seconds, "
        "\"updates\": [[a, b, weight], ...]} per line",
    )
    p_replay.add_argument("--host", default="127.0.0.1")
    p_replay.add_argument(
        "--port", type=int, default=8355,
        help="live server port (default 8355)",
    )
    p_replay.add_argument(
        "--speed", type=float, default=1.0, metavar="X",
        help="timeline multiplier: 2.0 streams twice as fast, "
        "0 streams as fast as the server acknowledges (default 1.0)",
    )
    p_replay.add_argument(
        "--timeout", type=float, default=30.0, metavar="S",
        help="per-batch HTTP timeout in seconds (default 30)",
    )
    p_replay.set_defaults(func=_cmd_update_replay)

    p_wal = sub.add_parser(
        "wal-verify",
        help="validate a live-update write-ahead log: per-record CRCs, "
        "epoch/seqno continuity, watermark range (see "
        "docs/operations.md)",
    )
    p_wal.add_argument(
        "path",
        help="a wal-NNNNNN.log file, or a WAL directory (every epoch "
        "file in it is checked)",
    )
    p_wal.set_defaults(func=_cmd_wal_verify)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
