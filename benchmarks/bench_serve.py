"""Serving benchmarks: what the serving stack's extras cost.

Runs the full serving stack — asyncio HTTP server and load-generator
client — on one machine and measures the overhead of each optional
layer (request logging and the SLO window, fault hooks, tracing, the
sampling profiler) against the server without it.  The workload gives
the scan real work: a unit-weight grid's TL labels are wide (every
grid pair has many equal-length paths).

Client and server share this process (and, on CI runners, usually one
core).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -v

Excluded from the tier-1 test run (``testpaths = ["tests"]``) like the
rest of ``benchmarks/``.
"""

from __future__ import annotations

import gc
import http.client
import random
import threading
import time

import pytest

from repro.baselines.tl import TLIndex
from repro.graph.generators import grid_graph
from repro.serve import ServeConfig, ServerThread, replay

#: Grid side; 100x100 gives ~73us scalar scans vs ~21us batched.
GRID_SIDE = 100

#: Distinct query pairs per run (every request misses the cache).
NUM_PAIRS = 2000

CONCURRENCY = 8
PIPELINE = 8


@pytest.fixture(scope="module")
def index():
    return TLIndex.build(grid_graph(GRID_SIDE, GRID_SIDE))


@pytest.fixture(scope="module")
def pairs():
    n = GRID_SIDE * GRID_SIDE
    rng = random.Random(9)
    return [
        (rng.randrange(n), rng.randrange(n)) for _ in range(NUM_PAIRS)
    ]


#: Access-log sampling used by the overhead bench: the documented
#: production setting for a saturated server (slow and non-200
#: requests are always logged regardless).
LOG_SAMPLE_EVERY = 10

#: Interleaved (baseline, observed) measurement rounds.  Quick mode
#: gets no discount: per-server-instance throughput on single-core CI
#: runners swings several percent, and fewer than five rounds lets one
#: unlucky instance fail a best-of comparison.
OVERHEAD_ROUNDS = 5


def _timed_run(index, pairs, **observability):
    """One run; returns (LoadReport, requests per CPU second).

    Wall-clock QPS on a shared (CI / VM) runner is polluted by
    hypervisor steal and frequency drift — this process simply does
    not run for stretches of the measurement, and different runs lose
    different amounts.  ``time.process_time`` counts only the CPU this
    process actually got, covering both the client and server threads
    of the closed loop; on an idle machine the two rates agree (CPU
    utilisation of these runs is ~1.0), but the CPU rate is the one
    stable enough to compare two configurations.
    """
    config = ServeConfig(
        port=0,
        cache_size=0,
        **observability,
    )
    with ServerThread(index, config) as (host, port):
        cpu0 = time.process_time()
        report = replay(
            host, port, pairs, concurrency=CONCURRENCY, pipeline=PIPELINE
        )
        cpu1 = time.process_time()
    return report, len(pairs) / (cpu1 - cpu0)


def test_observability_overhead_under_ten_percent(
    index, pairs, tmp_path, capsys, perf
):
    """Production observability must cost < 10% of baseline QPS.

    Baseline: SLO tracking and request logging off (request ids and
    the /metrics recorder stay on — they are part of the protocol).
    Observed: the documented production configuration under load — a
    30 s SLO window plus a JSON-lines access log sampled 1-in-10 for
    fast 200s, with slow-query and error records always on.  Logging
    *every* request on this workload costs more (each request is only
    ~50 us of work, so ~7 us of record formatting is visible); the
    sampled configuration is what a saturated deployment runs, and is
    what the 10% bar is asserted on.

    Two noise defences, both necessary on shared runners: throughput
    is measured in requests per *CPU* second (see :func:`_timed_run`),
    and the two configurations run strictly interleaved (base,
    observed, base, observed, ...) compared best-of-N, so a drift
    window hits both sides rather than biasing one.
    """
    log_path = tmp_path / "access.log"
    observed_kwargs = dict(
        slo_window_s=30,
        access_log=str(log_path),
        log_sample_every=LOG_SAMPLE_EVERY,
    )
    # One warmup run per configuration to populate caches and settle
    # the allocator before anything is measured.
    _timed_run(index, pairs, slo_window_s=0)
    _timed_run(index, pairs, **observed_kwargs)
    base_qps, obs_qps = [], []
    for _ in range(OVERHEAD_ROUNDS):
        baseline, base_cpu_qps = _timed_run(
            index, pairs, slo_window_s=0, access_log=None
        )
        observed, obs_cpu_qps = _timed_run(index, pairs, **observed_kwargs)
        assert observed.ok == baseline.ok == NUM_PAIRS
        base_qps.append(base_cpu_qps)
        obs_qps.append(obs_cpu_qps)
    ratio = max(obs_qps) / max(base_qps)
    log_lines = sum(1 for _ in open(log_path, encoding="utf-8"))
    eligible = NUM_PAIRS * (OVERHEAD_ROUNDS + 1)  # + the warmup run
    with capsys.disabled():
        paired = ", ".join(
            f"{o / b:.3f}" for b, o in zip(base_qps, obs_qps)
        )
        print(
            f"\n\nObservability overhead ({CONCURRENCY} connections, "
            f"1-in-{LOG_SAMPLE_EVERY} sampling):"
            f" baseline {max(base_qps):,.0f} req/cpu-s,"
            f" logging+SLO {max(obs_qps):,.0f} req/cpu-s"
            f" (best-of-{OVERHEAD_ROUNDS} ratio {ratio:.3f},"
            f" paired [{paired}], {log_lines} log records)"
        )
    perf.record(
        "observability_overhead",
        [o / b for b, o in zip(base_qps, obs_qps)],
        unit="ratio",
        direction="higher",
        dataset=f"grid{GRID_SIDE}",
        rounds=OVERHEAD_ROUNDS,
    )
    perf.record(
        "qps_per_cpu_second",
        base_qps,
        unit="req/cpu-s",
        direction="higher",
        dataset=f"grid{GRID_SIDE}",
    )
    # The sampler keeps ~1 in 10 fast 200s; the log also carries
    # server lifecycle records.  Binomial bounds with generous slack.
    assert eligible // 20 <= log_lines <= eligible // 5
    assert ratio >= 0.90, (
        f"observability costs {(1 - ratio) * 100:.1f}% throughput "
        f"({max(obs_qps):.0f} vs {max(base_qps):.0f} req/cpu-s), "
        f"over the 10% bar"
    )


def test_robustness_hooks_cost_under_five_percent(index, pairs, capsys, perf):
    """The fault-tolerance machinery must cost < 5% fault-free QPS.

    Guarded: a circuit breaker armed at its default threshold plus a
    parsed-but-silent fault plan (every site at probability 0, so the
    per-request ``should_fire`` draws and per-response reset checks all
    run) — the hooks a production deployment carries even when nothing
    is failing.  Bare: breaker disabled, no plan, as the server ran
    before the robustness layer existed.  Same interleaved
    best-of-N-per-CPU-second methodology as the observability bench.
    """
    from repro.faults import FaultPlan
    from repro.serve.runner import ServerThread as _ServerThread

    def timed(fault_plan, **config_kwargs):
        config = ServeConfig(
            port=0,
            cache_size=0, **config_kwargs,
        )
        with _ServerThread(
            index, config, fault_plan=fault_plan
        ) as (host, port):
            cpu0 = time.process_time()
            report = replay(
                host, port, pairs,
                concurrency=CONCURRENCY, pipeline=PIPELINE,
            )
            cpu1 = time.process_time()
        return report, len(pairs) / (cpu1 - cpu0)

    silent_spec = "scan.fail:0.0,scan.slow:0.0,conn.reset:0.0"
    timed(None, breaker_threshold=0)  # warmup
    timed(FaultPlan.parse(silent_spec), breaker_threshold=10)
    bare_qps, guarded_qps = [], []
    for _ in range(OVERHEAD_ROUNDS):
        bare, bare_cpu = timed(None, breaker_threshold=0)
        guarded, guarded_cpu = timed(
            FaultPlan.parse(silent_spec), breaker_threshold=10
        )
        assert bare.ok == guarded.ok == NUM_PAIRS
        bare_qps.append(bare_cpu)
        guarded_qps.append(guarded_cpu)
    ratio = max(guarded_qps) / max(bare_qps)
    with capsys.disabled():
        paired = ", ".join(
            f"{g / b:.3f}" for b, g in zip(bare_qps, guarded_qps)
        )
        print(
            f"\n\nRobustness overhead ({CONCURRENCY} connections):"
            f" bare {max(bare_qps):,.0f} req/cpu-s,"
            f" breaker+plan {max(guarded_qps):,.0f} req/cpu-s"
            f" (best-of-{OVERHEAD_ROUNDS} ratio {ratio:.3f},"
            f" paired [{paired}])"
        )
    perf.record(
        "robustness_overhead",
        [g / b for b, g in zip(bare_qps, guarded_qps)],
        unit="ratio",
        direction="higher",
        dataset=f"grid{GRID_SIDE}",
        rounds=OVERHEAD_ROUNDS,
    )
    assert ratio >= 0.95, (
        f"robustness hooks cost {(1 - ratio) * 100:.1f}% throughput "
        f"({max(guarded_qps):.0f} vs {max(bare_qps):.0f} req/cpu-s), "
        f"over the 5% bar"
    )


def test_tracing_overhead_under_five_percent(index, pairs, capsys, perf):
    """Distributed tracing + workload analytics must cost < 5% QPS.

    Traced: the default production setting — span ring buffer on with
    1-in-64 head sampling plus the Space-Saving heavy-hitter sketch
    on every request.  Untraced: both subsystems disabled
    (``trace_buffer=0, top_pairs_capacity=0``), the server as it ran
    before this layer existed.

    The margin (~2.5 us of sketch + sampler work against a ~60 us
    request) is thinner than the other overhead benches', so this test
    trades load-shape realism for measurement resolution, twice over:

    * one client connection at pipeline depth 32 — the server stays
      fed, but the single-core CI runner is not asked to juggle eight
      client threads against the server loop (with multiple
      connections the round-to-round spread is +-15%, an order of
      magnitude above the signal);
    * the asserted statistic is the **minimum per-request CPU cost**
      over 12 interleaved runs per side, in ABBA order (untraced,
      traced, traced, untraced) so linear drift cancels.  Preemption
      by background load only ever *adds* CPU (cold caches after a
      context switch), so each side's minimum approaches its clean
      cost and the min-to-min ratio isolates the real overhead where
      mean- or median-based comparisons still measure the runner.
    """
    rounds = 6  # ABBA rounds -> 2 * rounds runs per side

    def timed(**observability):
        config = ServeConfig(
            port=0,
            cache_size=0, **observability,
        )
        with ServerThread(index, config) as (host, port):
            # Collector pauses land in whichever run triggers the
            # threshold, not the run that made the garbage — collect
            # up front and keep the cycle collector out of the window
            # entirely so both configurations measure only their own
            # work (refcounting still reclaims nearly everything).
            gc.collect()
            gc.disable()
            try:
                cpu0 = time.process_time()
                report = replay(
                    host, port, pairs, concurrency=1, pipeline=32
                )
                cpu1 = time.process_time()
            finally:
                gc.enable()
        assert report.ok == NUM_PAIRS
        return (cpu1 - cpu0) / NUM_PAIRS * 1e6  # us of CPU per request

    untraced_kwargs = dict(trace_buffer=0, top_pairs_capacity=0)
    timed(**untraced_kwargs)  # warmup
    timed()
    off_cost, on_cost = [], []
    for _ in range(rounds):
        off_cost.append(timed(**untraced_kwargs))
        on_cost.append(timed())
        on_cost.append(timed())
        off_cost.append(timed(**untraced_kwargs))
    ratio = min(off_cost) / min(on_cost)
    with capsys.disabled():
        print(
            f"\n\nTracing overhead (1 connection, pipeline 32, "
            f"1-in-64 span sampling + top-pairs sketch):"
            f" untraced min {min(off_cost):.1f} us/req,"
            f" traced min {min(on_cost):.1f} us/req"
            f" (min-cost ratio {ratio:.3f} over {len(off_cost)} runs"
            f" per side)"
        )
    perf.record(
        "tracing_overhead",
        [ratio],
        unit="ratio",
        direction="higher",
        dataset=f"grid{GRID_SIDE}",
        rounds=rounds,
    )
    assert ratio >= 0.95, (
        f"tracing + analytics cost {(1 - ratio) * 100:.1f}% throughput "
        f"(min {min(on_cost):.1f} vs {min(off_cost):.1f} us CPU per "
        f"request), over the 5% bar"
    )


def _post_profile(host, port, seconds, results):
    """POST ``/admin/profile``; stash ``(status, body, sampler_cpu)``.

    Runs on a helper thread so the capture window overlaps the replay;
    the request blocks server-side for ``seconds`` before returning the
    collapsed stacks.  ``sampler_cpu`` is the profiler's self-accounted
    CPU cost from the ``X-Profile-Cpu-Seconds`` response header.
    """
    conn = http.client.HTTPConnection(host, port, timeout=seconds + 30)
    try:
        conn.request(
            "POST",
            f"/admin/profile?seconds={seconds:.2f}"
            f"&interval_ms=10&format=collapsed",
        )
        response = conn.getresponse()
        results.append((
            response.status,
            response.read().decode("utf-8"),
            float(response.headers.get("X-Profile-Cpu-Seconds", "nan")),
        ))
    except (OSError, http.client.HTTPException) as exc:
        results.append((0, f"profile request failed: {exc}", float("nan")))
    finally:
        conn.close()


def test_profiler_overhead_under_five_percent(
    index, pairs, tmp_path, capsys, perf
):
    """An attached sampling profiler must cost < 5% of serving QPS.

    The acceptance scenario for ``repro.obs.sampling``: a live server
    under sustained pipelined load takes a ``POST /admin/profile``
    capture mid-flight.  Two bars:

    * **< 5% QPS** — asserted on the sampler's self-accounted CPU
      (``X-Profile-Cpu-Seconds``) as a share of the saturated capture
      window.  On a CPU-bound server every CPU second the sampler
      burns is a CPU second the query path did not get, so this *is*
      the throughput cost — measured exactly, instead of through an
      A/B comparison whose scheduler noise on a single-core runner
      (±5-6% between otherwise identical rounds, profiled sometimes
      *faster* than bare) is larger than the signal.
    * **End-to-end backstop** — the interleaved bare/profiled CPU
      throughput ratio (worst round on each side dropped) must stay
      above 0.85: generous enough to absorb the scheduler noise (a
      contended runner swings whole-machine throughput ±15% between
      rounds), tight enough to catch a gross regression like the 5 ms
      GIL-switch resonance (~25% hit) or a sampler walking stacks
      without the memo (~30%).

    The capture must also actually see the work: the collapsed stacks
    must contain ``scan_batch`` frames, the batch kernel every query
    runs.  All rounds run against one server instance — a fresh
    instance locks in its own thread placement, which swings CPU
    throughput by several percent and would confound the pairing.
    The capture duration is calibrated to ~0.8x one replay's wall time
    so the profile response returns while the server is still serving
    (a capture outliving the replay would be cut off by the graceful
    drain instead of exercising the live path).  Each round replays the
    workload eight times over — at ~15k req/s a single pass lasts only
    ~0.13s, too short for a stable CPU-throughput reading.
    """
    config = ServeConfig(
        port=0, cache_size=0
    )
    load = pairs * 8
    rounds = max(OVERHEAD_ROUNDS, 5)
    bare_qps, profiled_qps, sampler_cpus = [], [], []
    collapsed = ""
    with ServerThread(index, config) as (host, port):
        wall0 = time.perf_counter()
        replay(host, port, load, concurrency=CONCURRENCY, pipeline=PIPELINE)
        replay_wall = time.perf_counter() - wall0
        replay(host, port, load, concurrency=CONCURRENCY, pipeline=PIPELINE)
        profile_seconds = max(0.3, min(replay_wall * 0.8, 30.0))

        def timed(profile: bool):
            captures = []
            worker = None
            if profile:
                worker = threading.Thread(
                    target=_post_profile,
                    args=(host, port, profile_seconds, captures),
                )
                worker.start()
                time.sleep(0.05)  # let the capture start before the load
            gc.collect()  # keep collector pauses out of the CPU window
            cpu0 = time.process_time()
            report = replay(
                host, port, load,
                concurrency=CONCURRENCY, pipeline=PIPELINE,
            )
            cpu1 = time.process_time()
            if worker is not None:
                worker.join()
            return report, len(load) / (cpu1 - cpu0), captures

        for index_round in range(rounds):
            # Alternate which mode goes first so slow warmup drift
            # (the first seconds of a process run measurably slower)
            # cancels instead of biasing one side.
            order = (False, True) if index_round % 2 == 0 else (True, False)
            round_results = {}
            for profile in order:
                round_results[profile] = timed(profile)
            bare, bare_cpu, _ = round_results[False]
            profiled, prof_cpu, captures = round_results[True]
            assert bare.ok == profiled.ok == len(load)
            assert captures, "profile request never completed"
            status, body, sampler_cpu = captures[0]
            assert status == 200, body
            collapsed = body
            bare_qps.append(bare_cpu)
            profiled_qps.append(prof_cpu)
            sampler_cpus.append(sampler_cpu)

    cpu_share = max(sampler_cpus) / profile_seconds
    trimmed_bare = sorted(bare_qps)[1:]
    trimmed_prof = sorted(profiled_qps)[1:]
    ratio = (sum(trimmed_prof) / len(trimmed_prof)) / (
        sum(trimmed_bare) / len(trimmed_bare)
    )

    out_path = tmp_path / "serve-profile.collapsed"
    out_path.write_text(collapsed, encoding="utf-8")
    stack_lines = [line for line in collapsed.splitlines() if line.strip()]
    with capsys.disabled():
        paired = ", ".join(
            f"{p / b:.3f}" for b, p in zip(bare_qps, profiled_qps)
        )
        print(
            f"\n\nProfiler overhead ({CONCURRENCY} connections, "
            f"{profile_seconds:.2f}s capture at 100Hz):"
            f" sampler CPU {max(sampler_cpus) * 1000:.1f}ms"
            f" = {cpu_share * 100:.2f}% of the window;"
            f" bare {max(bare_qps):,.0f} req/cpu-s,"
            f" profiled {max(profiled_qps):,.0f} req/cpu-s"
            f" (trimmed-mean-of-{rounds} ratio {ratio:.3f},"
            f" paired [{paired}], {len(stack_lines)} distinct stacks)"
        )
    perf.record(
        "profiler_cpu_share",
        [cpu / profile_seconds for cpu in sampler_cpus],
        unit="ratio",
        direction="lower",
        dataset=f"grid{GRID_SIDE}",
        capture_seconds=round(profile_seconds, 2),
    )
    perf.record(
        "profiler_overhead",
        [p / b for b, p in zip(bare_qps, profiled_qps)],
        unit="ratio",
        direction="higher",
        dataset=f"grid{GRID_SIDE}",
        capture_seconds=round(profile_seconds, 2),
    )
    assert stack_lines, "profiler returned an empty capture"
    assert "scan_batch" in collapsed, (
        "collapsed stacks never caught the batch kernel; first lines:\n"
        + "\n".join(stack_lines[:10])
    )
    assert cpu_share < 0.05, (
        f"sampler burned {cpu_share * 100:.2f}% of the capture window's "
        f"CPU ({max(sampler_cpus) * 1000:.1f}ms of {profile_seconds:.2f}s), "
        f"over the 5% bar"
    )
    assert ratio >= 0.85, (
        f"attached profiler costs {(1 - ratio) * 100:.1f}% end-to-end "
        f"throughput (trimmed mean, {len(trimmed_prof)}/{rounds} rounds) — "
        f"far beyond sampler CPU {cpu_share * 100:.2f}%; something else "
        f"about the capture path regressed"
    )


def test_closed_loop_strict_request_response(index, pairs, capsys):
    """Pipeline depth 1 (strict request/response) answers every pair."""
    config = ServeConfig(port=0, cache_size=0)
    with ServerThread(index, config) as (host, port):
        report = replay(
            host, port, pairs[:500], concurrency=CONCURRENCY, pipeline=1
        )
    with capsys.disabled():
        print(f"\n\nclosed-loop (pipeline=1): {report.qps:.0f} qps")
    assert report.ok == 500
