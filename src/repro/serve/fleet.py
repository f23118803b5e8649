"""Multi-process serving fleet: an asyncio router over N worker servers.

``repro-spc serve --workers N`` starts one :class:`FleetRouter` in the
foreground process and ``N`` :class:`~repro.serve.server.SPCServer`
workers, each its own OS process with its own event loop, GIL, and
scan executor.  The index is **not** copied to the workers: every
worker opens the same v4 container with ``load_index(path)`` and the
OS page cache shares one physical copy of the mapped arena across the
whole fleet — cold start per worker is page-fault-time, and resident
memory grows with *one* index, not ``N``.

The router terminates client HTTP with the same
:class:`~repro.serve.frontend.FrontEnd` a single server uses: one
pipelined connection loop, drain, ``traceparent`` sampling and
``/metrics`` negotiation.  What only a router does is here.

It owns the fleet's one result cache (``workers × cache_size``
entries; the workers run without one), keyed on the symmetric pair
``(min(s, t), max(s, t))``, so a repeated query is answered without a
worker hop.  Commit fan-outs run one at a time, in the order each
worker's one update thread applies them.  A seqlock generation, odd
while a commit fan-out is in flight, keeps the cache exact: an answer
is cached only if no commit overlapped its request, an update commit
drops every pair touching a vertex in the workers'
``changed_vertices``, and a reload clears it.

The router also maps the index its workers serve — the same v4 file
and ``load_index(path, verify=True)``, so the same page-cache pages —
and answers a miss itself whenever the answer is exactly a worker's:
every pair of a static fleet, and on a live fleet every pair clean by
the workers' own rule (:meth:`OverlayState.base_answers`).  For that
it mirrors the workers' overlay ``min_dirty`` (each patched vertex's
first dirty label position) from their update and reload commit
reports and from their readiness after WAL recovery, which also names
the base a rotated WAL pinned (the router maps that base).  It answers
locally only while the seqlock is even, the workers agree on
``(epoch, seqno, min_dirty)`` and serve the base it maps; on any
disagreement it forwards everything until a reload brings agreement
back.  In a reload it is one more two-phase participant: it opens and
verifies the new file on prepare and swaps on commit.

Every other request is forwarded to the next live worker, round-robin:
poisoned pairs, pairs whose local scan raises, ``explain``, requests
carrying a sampled inbound ``traceparent``, and the ``/admin/profile``
relay.  Every worker serves the same index and overlay, so any live
one answers exactly.  A forwarded hot ``GET /query`` is the client's
own bytes, and the worker's response is relayed verbatim.  A client
that pipelines keeps several queries in flight upstream, each on a
pooled keep-alive loopback connection of its own, and gets its answers
back in request order.  Queries are pure reads, so a request that dies
with its upstream connection (a worker restart, an injected
``conn.reset`` fault) is transparently resent a bounded number of
times, and re-dispatched once to another worker if its worker died,
before the client sees a retryable 502.

Fleet-wide endpoints:

* ``GET /query`` / ``POST /query`` — answered from the router cache,
  else from the router's own index, else by a worker.  A ``pairs``
  batch's forwarded members go out in chunks of at most
  ``queue_high_water`` pairs, one chunk at a time, so no worker is
  sent more than its admission bound at once; a chunk a busy worker
  still sheds answers its members with that worker's 503 and
  ``Retry-After``.
* ``GET /metrics`` — per-worker snapshots merged (counters and gauges
  summed, histograms merged bucket-wise); Prometheus text on request.
  ``serve.requests`` is the router's own count: every ``/query`` a
  client sent the fleet, once.
* ``GET /health`` — fleet status: ``ok`` only if every worker is ok.
* ``POST /admin/reload`` — **two-phase** fleet reload: every worker,
  and the router, stages and fully verifies the new index
  (``prepare``), and only if all succeed does the router ``commit``
  the swap everywhere.  One corrupt file → ``abort`` everywhere, 409,
  old index keeps serving on all workers and at the router.
* ``POST /admin/update`` — **two-phase** fleet-wide delta batch: every
  worker validates and stages the batch (``prepare``); only if all N
  accept does the router ``commit`` it everywhere, so the workers'
  deterministic shadow graphs never diverge.  When a commit reports
  the overlay past its rebuild threshold, the router runs one
  coordinated rebuild: worker 0 builds and saves a fresh index, then
  the normal two-phase reload path swaps it in on every worker while
  each worker replays its post-snapshot batches onto the new base.
* ``POST /admin/profile`` — relayed to a live worker, headers and all.
* ``POST /admin/trace`` — fleet trace capture: every worker's span
  ring (plus the router's own) drained, clock-aligned, and merged
  into one Chrome trace whose parent/child links cross the process
  boundary (router ``fleet.request`` → worker ``serve.request`` →
  ``serve.scan_batch``).
* ``GET /stats`` — per-worker stats fanned out and merged: a
  ``fleet.per_worker`` table (QPS, p99, epoch/seqno lag vs the fleet
  maximum), ``fleet.answers`` (local vs forwarded misses, agreement,
  the mapped index, the mirror's version), the router's ``cache``
  snapshot, and ``top_pairs`` from the router's Space-Saving sketch
  of every routed query.

``SIGTERM``/``SIGINT`` drain in cascade: the router stops accepting,
answers every request already read, then signals each worker to run
its own graceful drain — zero dropped requests end to end.

**Self-healing.**  The router supervises its workers: a worker whose
process dies (detected reactively by a failed proxied request, or
proactively by the periodic liveness probe) stops receiving traffic
immediately — its in-flight queries re-dispatch to the survivors, so
availability degrades but correctness never does — and, with
``respawn`` enabled, is respawned under capped-exponential backoff.
The replacement cold-starts from the same zero-copy v4 mmap, replays
its private write-ahead log (``wal_dir/worker-<id>/``) back to its
pre-crash overlay, is topped up by the router to the fleet's current
``(epoch, seqno)`` (missed batches from the router's retained update
bodies, missed rebuilds by adopting the last coordinated base), and
takes traffic again only after a readiness probe answers.  A worker
that dies ``flap_max_restarts`` times within ``flap_window_s`` trips
its flap circuit and stays down (``/health`` reports ``flapped`` and
stays degraded).  With *every* worker down, queries answer 503 with a
``Retry-After`` header instead of hanging.
"""

from __future__ import annotations

import asyncio
import functools
import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.obs import Recorder, merge_trace_fragments
from repro.serve.cache import ResultCache, TopPairs
from repro.serve.config import ServeConfig
from repro.serve.frontend import FrontEnd, Response
from repro.serve.http import (
    HTTPProtocolError,
    Request,
    parse_query_head,
    parse_response,
    read_response_bytes,
)
from repro.serve.server import encode_result, encode_result_bytes
from repro.types import INF, QueryResult

if TYPE_CHECKING:
    # Imported where a live report arrives: a static fleet's processes
    # never load the live tier.
    from repro.live.overlay import OverlayState

#: Upstream response headers the router frames itself; every other
#: header of a relayed admin response is forwarded.
_FRAMING_HEADERS = frozenset({"content-length", "connection"})

#: Transparent resends of an idempotent request after a transport
#: failure (queries are pure reads; admin calls are never resent).
_UPSTREAM_RESENDS = 2

#: Idle upstream connections kept pooled per worker.
_POOL_SIZE = 32

#: Committed update bodies retained for respawn catch-up; matches the
#: coordinator's own in-memory batch log bound.
_UPDATE_LOG_MAX = 4096

#: Consecutive failed HTTP probes before a live-but-wedged worker
#: process is killed and treated as dead.
_PROBE_STRIKES = 3

_ALLOW_POST = (("Allow", "POST"),)


class FleetError(ReproError):
    """The fleet could not be started or a worker misbehaved."""


def _with_traceparent(head: bytes, trace) -> bytes:
    """``head`` with its ``traceparent`` replaced by the router span's,
    so the worker's request span links under ``fleet.request``."""
    mark = head.lower().find(b"\r\ntraceparent:")
    if mark >= 0:
        head = head[:mark] + head[head.index(b"\r\n", mark + 2) :]
    return b"%straceparent: 00-%s-%s-01\r\n\r\n" % (
        head[:-2], trace[0].encode(), trace[1].encode(),
    )


def _probes(trace) -> bool:
    """Whether a query consults the router cache.  A trace the client
    started (a sampled inbound ``traceparent``, so the router span has
    a parent) asks for the whole path through a worker, as ``explain``
    does; its answer is still cached."""
    return trace is None or trace[2] is None


def _forward_headers(rid: Optional[str], trace) -> List[Tuple[str, str]]:
    """The client's request id and the router span, for a worker."""
    headers = [("X-Request-Id", rid)] if rid else []
    if trace is not None:
        headers.append(("traceparent", f"00-{trace[0]}-{trace[1]}-01"))
    return headers


def _status(answer) -> int:
    """The status of an answer: a Response tuple or relayed bytes
    (``HTTP/1.1 NNN ...``, so bytes 9:12)."""
    return answer[0] if type(answer) is tuple else int(answer[9:12])


def _target(request: Request) -> str:
    """The request target (path and query string) to send upstream."""
    if not request.params:
        return request.path
    query = "&".join(
        f"{name}={value}" for name, value in request.params.items()
    )
    return f"{request.path}?{query}"


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs, picklable for spawn."""

    worker_id: int
    index_path: str
    config: ServeConfig
    fault_spec: Optional[str] = None
    fault_seed: int = 0
    #: Graph file backing live updates; each worker loads its own copy
    #: and keeps it in lockstep via the router's all-or-nothing update
    #: fan-out.  ``None`` disables the live tier.
    live_graph_path: Optional[str] = None
    #: This worker's private write-ahead-log directory; applied batches
    #: are fsync'd there before acknowledgement and replayed on respawn.
    wal_dir: Optional[str] = None


async def _worker_serve(spec: WorkerSpec, conn) -> None:
    from repro.core.serialize import load_index
    from repro.faults import FaultPlan
    from repro.serve.server import SPCServer

    try:
        # Full verification at startup: a worker must never begin
        # serving an index it has not checksummed end to end.
        index = load_index(spec.index_path, verify=True)
        plan = (
            FaultPlan.parse(spec.fault_spec, seed=spec.fault_seed)
            if spec.fault_spec
            else None
        )
        updates = None
        served_path = spec.index_path
        if spec.live_graph_path is not None:
            from repro.graph.io import read_graph_auto
            from repro.live import UpdateCoordinator, recover_coordinator

            graph = read_graph_auto(spec.live_graph_path)
            if spec.wal_dir is not None:
                # Cold start from the mmap'd index, then replay this
                # worker's WAL to the exact pre-crash overlay state
                # before the readiness report goes out.
                updates, recovery = recover_coordinator(
                    spec.wal_dir,
                    graph,
                    index,
                    overlay_threshold=spec.config.overlay_threshold,
                    freshness_s=spec.config.update_freshness_s,
                    fault_plan=plan,
                )
                # A rotated WAL may pin a rebuilt base: the overlay sits
                # on that file now, and the router must map it too.
                served_path = recovery.base_path or served_path
            else:
                updates = UpdateCoordinator(
                    graph,
                    index,
                    overlay_threshold=spec.config.overlay_threshold,
                    freshness_s=spec.config.update_freshness_s,
                )
        server = SPCServer(
            index,
            spec.config,
            fault_plan=plan,
            index_path=served_path,
            updates=updates,
            # The router owns rebuilds: one worker building per update
            # burst is enough, and the swap must be fleet-coordinated.
            auto_rebuild=False,
        )
        if server.tracer is not None:
            # Fragments carry the role so a merged fleet trace names
            # each process lane ("router", "worker-0", "worker-1", ...).
            server.tracer.role = f"worker-{spec.worker_id}"
        await server.start()
    except Exception as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    server.install_signal_handlers()
    conn.send(("ready", server.port, server.overlay_report()))
    conn.close()
    await server.wait_stopped()


def _worker_main(spec: WorkerSpec, conn) -> None:
    """Entry point of one worker process (module-level for spawn)."""
    try:
        asyncio.run(_worker_serve(spec, conn))
    except KeyboardInterrupt:  # pragma: no cover - racing SIGINT
        pass


@dataclass
class _Worker:
    """Router-side handle on one worker process (across respawns)."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    conn: object
    port: int = 0
    #: Idle pooled connections ``(reader, writer)`` to this worker.
    pool: List[tuple] = field(default_factory=list)
    #: Spec the current process was spawned from; respawns derive a
    #: fresh one (new fault seed) so a deterministic crash draw does
    #: not re-kill every replacement on its first request.
    spec: Optional[WorkerSpec] = None
    #: Receiving traffic.  A dead worker is ejected the moment its
    #: death is detected and re-admitted only after a respawn passes
    #: its readiness probe and catch-up.
    up: bool = True
    #: Process incarnation: 0 for the original spawn, +1 per respawn.
    generation: int = 0
    #: Recent death times (monotonic) inside the flap window.
    deaths: List[float] = field(default_factory=list)
    #: Lifetime death count (the flap window trims ``deaths``).
    total_deaths: int = 0
    #: Consecutive failed supervisor probes on a live process.
    probe_failures: int = 0
    #: A respawn task currently owns this handle.
    respawning: bool = False
    #: Flap circuit: died too often, stays down until router restart.
    circuit_open: bool = False
    #: Human-readable cause of the most recent death.
    last_error: Optional[str] = None


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
class FleetRouter(FrontEnd):
    """The front process of a ``serve --workers N`` fleet."""

    def __init__(
        self,
        index_path: str,
        num_workers: int,
        config: Optional[ServeConfig] = None,
        *,
        fault_spec: Optional[str] = None,
        fault_seed: int = 0,
        recorder: Optional[Recorder] = None,
        live_graph_path: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise FleetError("a fleet needs at least one worker")
        super().__init__(
            config or ServeConfig(),
            recorder if recorder is not None else Recorder(),
            "router",
        )
        self.index_path = str(index_path)
        self.num_workers = num_workers
        self.fault_spec = fault_spec
        self.fault_seed = fault_seed
        self.live_graph_path = (
            str(live_graph_path) if live_graph_path is not None else None
        )
        self._rebuild_task: Optional[asyncio.Task] = None
        #: Supervisor probe loop (None when probe_interval_s == 0).
        self._supervisor_task: Optional[asyncio.Task] = None
        #: In-flight respawn tasks, cancelled on shutdown.
        self._respawn_tasks: set = set()
        #: Recently committed update bodies ``(seqno, body)`` — the
        #: catch-up source for a respawned worker whose WAL predates
        #: batches the fleet accepted while it was down.
        self._update_log: List[Tuple[int, bytes]] = []
        #: Path and snapshot seqno of the last coordinated rebuild;
        #: a respawned worker behind on epoch adopts this base.
        self._last_rebuild: Optional[Tuple[str, int]] = None
        #: The fleet's one result cache, as large as the workers'
        #: caches together; workers run without one.  Every hit is a
        #: query that never takes the router → worker hop.
        self.cache = ResultCache(
            num_workers * self.config.cache_size, recorder=self.recorder
        )
        #: Seqlock over commit fan-outs (update, reload, rebuild swap):
        #: odd while one is in flight, and moved by its start and end.
        #: See :meth:`_cacheable`.
        self._generation = 0
        #: Serializes commit fan-outs, as each worker's one update
        #: thread does: the mirror takes reports in commit order.
        self._commit_lock = asyncio.Lock()
        #: The index the workers serve, mapped by the router too (the
        #: same v4 file, so one copy in the page cache), and its path.
        #: A miss whose answer is exactly the workers' is answered from
        #: it (:meth:`_local_answers`).
        self._index = None
        self._index_path: Optional[str] = None
        #: Mirror of the workers' overlay — ``(epoch, seqno)`` and each
        #: patched vertex's ``min_dirty``, no patches — on a live fleet;
        #: ``None`` on a static one.
        self._overlay: Optional[OverlayState] = None
        #: Whether the workers last agreed on the mirror and serve the
        #: mapped index; while not, every miss goes to a worker.
        self._agreed = False
        #: Why the last agreement check failed (``/stats``).
        self._disagreement: Optional[str] = None
        #: ``(index, path)`` the router's own reload prepare opened.
        self._staged: Optional[tuple] = None
        #: Heavy-hitter pairs over every routed query (``/stats``).
        self.top_pairs: Optional[TopPairs] = (
            TopPairs(self.config.top_pairs_capacity)
            if self.config.top_pairs_capacity > 0
            else None
        )
        self.workers: List[_Worker] = []
        #: Index into ``workers`` of the last worker forwarded to.
        self._turn = -1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "FleetRouter":
        """Spawn the workers, wait for readiness, map the index they
        serve, bind the front port."""
        loop = asyncio.get_running_loop()
        for worker_id in range(self.num_workers):
            spec = self._worker_spec(worker_id, generation=0)
            process, parent_conn = self._spawn_process(spec)
            self.workers.append(
                _Worker(worker_id, process, parent_conn, spec=spec)
            )
        reports = []
        for worker in self.workers:
            try:
                message = await loop.run_in_executor(
                    None, self._await_ready, worker
                )
            except Exception:
                await self._terminate_workers()
                raise
            if message[0] != "ready":
                await self._terminate_workers()
                raise FleetError(
                    f"worker {worker.worker_id} failed to start: "
                    f"{message[1]}"
                )
            worker.port = message[1]
            reports.append(message[2])
        await self._map_reported(reports)
        await self._listen()
        if self.config.probe_interval_s > 0:
            self._supervisor_task = loop.create_task(self._supervise())
        return self

    def _worker_spec(self, worker_id: int, generation: int) -> WorkerSpec:
        wal_dir = None
        if self.config.wal_dir is not None:
            # Each worker owns a private WAL subdirectory: the logs are
            # per-process replay journals, not a shared commit stream.
            wal_dir = os.path.join(
                self.config.wal_dir, f"worker-{worker_id}"
            )
        return WorkerSpec(
            worker_id=worker_id,
            index_path=self.index_path,
            # The router owns the cache and the pair sketch.
            config=replace(
                self.config, host="127.0.0.1", port=0, cache_size=0,
                top_pairs_capacity=0,
            ),
            fault_spec=self.fault_spec,
            # Distinct seeds: workers fault independently, not in
            # lockstep — one bad draw must not take out the fleet —
            # and every respawned generation rolls new dice.
            fault_seed=self.fault_seed + worker_id + 7919 * generation,
            live_graph_path=self.live_graph_path,
            wal_dir=wal_dir,
        )

    @staticmethod
    def _spawn_process(spec: WorkerSpec):
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(spec, child_conn),
            daemon=True,
            name=f"spc-worker-{spec.worker_id}",
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    @staticmethod
    def _await_ready(worker: _Worker, timeout: float = 60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if worker.conn.poll(0.1):
                try:
                    return worker.conn.recv()
                except EOFError:
                    return (
                        "error",
                        "process closed its pipe before reporting a port "
                        f"(exit code {worker.process.exitcode})",
                    )
            if not worker.process.is_alive():
                return (
                    "error",
                    f"process exited with code {worker.process.exitcode} "
                    "before reporting a port",
                )
        return ("error", f"no readiness report within {timeout}s")

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → cascade drain (router first, then workers)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: loop.create_task(self.shutdown())
            )

    async def shutdown(self) -> None:
        """Graceful cascade: drain clients, then drain every worker.

        The front listener closes first; in-flight client requests get
        ``drain_grace_s`` to finish (zero dropped requests), then the
        workers receive SIGTERM and run their own graceful drains.
        The daemon flag on the worker processes is the backstop, not
        the mechanism.
        """
        if self._draining:
            await self.wait_stopped()
            return
        self._draining = True
        # Supervision stops first: a drain must not race a respawn
        # re-admitting a worker the next line is about to terminate.
        housekeeping = [self._supervisor_task, *self._respawn_tasks]
        for task in housekeeping:
            if task is not None:
                task.cancel()
        if any(task is not None for task in housekeeping):
            await asyncio.gather(
                *(task for task in housekeeping if task is not None),
                return_exceptions=True,
            )
        rebuild = self._rebuild_task
        if rebuild is not None:
            # Let an in-flight coordinated swap land: it is about to
            # commit on every worker and interrupting it mid-phase is
            # the one thing the two-phase protocol cannot recover from.
            await asyncio.gather(rebuild, return_exceptions=True)
        await self._drain_connections()
        for worker in self.workers:
            self._close_pool(worker)
        await self._terminate_workers()
        self._stopped.set()

    async def _terminate_workers(self) -> None:
        loop = asyncio.get_running_loop()
        for worker in self.workers:
            if worker.process.is_alive():
                # The workers never get the terminal's signal (they are
                # not in the foreground process group under CI runners),
                # so the router forwards the drain explicitly.
                worker.process.terminate()
        for worker in self.workers:
            await loop.run_in_executor(None, worker.process.join, 10.0)
            if worker.process.is_alive():  # pragma: no cover - stuck
                worker.process.kill()
                await loop.run_in_executor(None, worker.process.join, 5.0)

    # ------------------------------------------------------------------
    # supervision: death detection, ejection, respawn
    # ------------------------------------------------------------------
    def _live_workers(self) -> List[_Worker]:
        return [worker for worker in self.workers if worker.up]

    def _first_live(self) -> Optional[_Worker]:
        for worker in self.workers:
            if worker.up:
                return worker
        return None

    def _next_live(self) -> Optional[_Worker]:
        """The next live worker after the last one forwarded to —
        round-robin — or ``None`` when every worker is down."""
        workers = self.workers
        for _ in range(len(workers)):
            self._turn = (self._turn + 1) % len(workers)
            if workers[self._turn].up:
                return workers[self._turn]
        return None

    def _on_worker_death(self, worker: _Worker, reason: str) -> None:
        """Eject a dead worker; maybe schedule a respawn.

        Idempotent: reactive detection (a failed proxy), the probe
        loop, and a failed update commit can all report the same death.
        Ejection is immediate — queries re-dispatch to the survivors,
        so availability degrades but correctness never does.
        """
        if not worker.up:
            return
        worker.up = False
        worker.probe_failures = 0
        worker.last_error = reason
        self._close_pool(worker)
        worker.total_deaths += 1
        self.recorder.incr("fleet.worker.deaths")
        self._register_death(worker)

    @staticmethod
    def _close_pool(worker: _Worker) -> None:
        for _reader, writer in worker.pool:
            writer.close()
        worker.pool.clear()

    def _register_death(self, worker: _Worker) -> None:
        """Flap accounting plus respawn scheduling for one death."""
        now = time.monotonic()
        worker.deaths = [
            death
            for death in worker.deaths
            if now - death <= self.config.flap_window_s
        ]
        worker.deaths.append(now)
        if len(worker.deaths) >= self.config.flap_max_restarts:
            # Flapping: crashing faster than it can do useful work.
            # Stay down (and keep /health degraded) instead of burning
            # the fleet on respawn churn.
            worker.circuit_open = True
            self.recorder.incr("fleet.worker.flap_trips")
            return
        if not self.config.respawn or self._draining:
            return
        delay = min(
            self.config.respawn_backoff_max_s,
            self.config.respawn_backoff_s * (2 ** (len(worker.deaths) - 1)),
        )
        task = asyncio.get_running_loop().create_task(
            self._respawn(worker, delay)
        )
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self, worker: _Worker, delay: float) -> None:
        """Respawn one dead worker after ``delay`` seconds.

        The replacement cold-starts from the same mmap'd index, replays
        its own WAL back to its pre-crash overlay, then the router tops
        it up to the fleet's current state (missed batches, then any
        missed base adoption) and re-admits it only once a readiness
        probe answers 200.
        """
        worker.respawning = True
        process: Optional[multiprocessing.process.BaseProcess] = None
        try:
            await asyncio.sleep(delay)
            if self._draining:
                return
            worker.generation += 1
            spec = self._worker_spec(worker.worker_id, worker.generation)
            worker.spec = spec
            process, parent_conn = self._spawn_process(spec)
            worker.process = process
            worker.conn = parent_conn
            loop = asyncio.get_running_loop()
            # Its readiness report is not mirrored: the catch-up below
            # brings it to the fleet state the mirror already holds.
            message = await loop.run_in_executor(
                None, self._await_ready, worker
            )
            if message[0] != "ready":
                raise FleetError(
                    f"worker {worker.worker_id} respawn failed: "
                    f"{message[1]}"
                )
            worker.port = message[1]
            await self._catch_up(worker)
            status, _, _body = await self._upstream(
                worker, "GET", "/health", resend=True
            )
            if status != 200:
                raise FleetError(
                    f"worker {worker.worker_id} readiness probe answered "
                    f"HTTP {status}"
                )
            worker.up = True
            worker.probe_failures = 0
            worker.last_error = None
            self.recorder.incr("fleet.worker.respawns")
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.recorder.incr("fleet.worker.respawn_failures")
            worker.last_error = f"respawn failed: {exc}"
            if process is not None and process.is_alive():
                process.kill()
            if not self._draining:
                # The failed attempt counts as another death: the
                # backoff doubles and the flap circuit eventually trips.
                self._register_death(worker)
        finally:
            worker.respawning = False

    async def _live_block(self, worker: _Worker) -> Optional[dict]:
        """The worker's ``/stats`` live block, or None when not live."""
        status, _, body = await self._upstream(
            worker, "GET", "/stats", resend=True
        )
        if status != 200:
            raise FleetError(
                f"worker {worker.worker_id} stats answered HTTP {status}"
            )
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError as exc:
            raise FleetError(
                f"worker {worker.worker_id} stats unparseable: {exc}"
            )
        live = parsed.get("live") if isinstance(parsed, dict) else None
        return live if isinstance(live, dict) else None

    async def _catch_up(self, worker: _Worker) -> None:
        """Bring a respawned worker to the fleet's current update state.

        Its own WAL already put it back at its pre-crash
        ``(epoch, seqno)``; whatever the fleet accepted while it was
        down is topped up here from the router's retained update
        bodies.  Batches replay strictly *before* any base adoption:
        adopting diffs the worker's shadow graph against the new base,
        so the graph must be current first.
        """
        reference = self._first_live()
        if reference is None:
            # Sole survivor: whatever this worker recovered *is* the
            # fleet's state now.
            return
        worker_live = await self._live_block(worker)
        if worker_live is None:
            return  # not a live-update fleet: the index is immutable
        ref_live = await self._live_block(reference)
        if ref_live is None:
            return
        seqno = int(worker_live.get("seqno", 0))
        target_seqno = int(ref_live.get("seqno", 0))
        if seqno < target_seqno:
            missed = [
                body
                for log_seqno, body in self._update_log
                if log_seqno > seqno
            ]
            if len(missed) != target_seqno - seqno:
                raise FleetError(
                    f"worker {worker.worker_id} is "
                    f"{target_seqno - seqno} batches behind but only "
                    f"{len(missed)} are retained for catch-up"
                )
            for body in missed:
                status, _, payload = await self._upstream(
                    worker, "POST", "/admin/update", body
                )
                if status != 200:
                    raise FleetError(
                        f"catch-up batch rejected: HTTP {status} "
                        f"{payload.decode('latin-1', 'replace')[:200]}"
                    )
            self.recorder.incr(
                "fleet.worker.catchup_batches", len(missed)
            )
        epoch = int(worker_live.get("epoch", 1))
        target_epoch = int(ref_live.get("epoch", 1))
        while epoch < target_epoch:
            # Adopt the most recent rebuilt base once per missed epoch:
            # each adoption bumps the worker's epoch by one and replays
            # its post-snapshot batches, so repeating it against the
            # same (newest) base converges on the fleet's watermark
            # without re-deriving intermediate bases.
            if self._last_rebuild is None:
                raise FleetError(
                    f"worker {worker.worker_id} is on epoch {epoch} < "
                    f"{target_epoch} and no rebuilt base is retained"
                )
            path, base_seqno = self._last_rebuild
            body = json.dumps(
                {"path": path, "base_seqno": base_seqno},
                separators=(",", ":"),
            ).encode()
            status, _, payload = await self._upstream(
                worker, "POST", "/admin/reload/prepare", body
            )
            if status == 200:
                status, _, payload = await self._upstream(
                    worker, "POST", "/admin/reload/commit", b"{}"
                )
            if status != 200:
                raise FleetError(
                    f"catch-up reload failed: HTTP {status} "
                    f"{payload.decode('latin-1', 'replace')[:200]}"
                )
            epoch += 1
            self.recorder.incr("fleet.worker.catchup_reloads")

    async def _supervise(self) -> None:
        """Proactive liveness probing of every live worker.

        A dead process is ejected the moment the probe sees it; a live
        process that fails ``_PROBE_STRIKES`` consecutive HTTP probes
        is presumed wedged, killed, and ejected.  Reactive detection
        (a failed proxied request) still fires between probes — this
        loop is the backstop for idle fleets, not the fast path.
        """
        interval = self.config.probe_interval_s
        while not self._draining:
            await asyncio.sleep(interval)
            if self._draining:
                return
            for worker in list(self.workers):
                if not worker.up or worker.respawning:
                    continue
                if not worker.process.is_alive():
                    self._on_worker_death(
                        worker,
                        "process exited with code "
                        f"{worker.process.exitcode}",
                    )
                    continue
                try:
                    await self._upstream(worker, "GET", "/health")
                except FleetError:
                    if not worker.up:
                        continue  # the reactive path already ejected it
                    worker.probe_failures += 1
                    if worker.probe_failures >= _PROBE_STRIKES:
                        if worker.process.is_alive():
                            worker.process.kill()
                        self._on_worker_death(
                            worker,
                            f"{_PROBE_STRIKES} consecutive liveness "
                            "probes failed",
                        )
                else:
                    worker.probe_failures = 0

    # ------------------------------------------------------------------
    # the router's own index: local answers and the overlay mirror
    # ------------------------------------------------------------------
    async def _open_index(self, path: str):
        """``path`` opened and checksummed end to end, off the loop —
        the same ``load_index(path, verify=True)`` a worker runs."""
        from repro.core.serialize import load_index

        return await asyncio.get_running_loop().run_in_executor(
            None, functools.partial(load_index, path, verify=True)
        )

    async def _map_reported(self, reports: Sequence[dict]) -> None:
        """Map the base the workers' readiness reports name (a rotated
        WAL may have pinned a rebuilt one) and mirror their overlay."""
        paths = {report.get("path") for report in reports}
        if len(paths) == 1:  # else the mirror check below distrusts
            path = paths.pop()
            try:
                self._index = await self._open_index(path)
                self._index_path = path
            except Exception as exc:
                self._distrust(f"cannot map {path}: {exc}")
                return
        self._mirror_full(reports)

    def _distrust(self, reason: str) -> None:
        """Forward every miss until a reload brings agreement back."""
        self._agreed = False
        self._disagreement = reason
        self.recorder.incr("fleet.local.disagreements")

    def _agreed_view(self, reports: Optional[Sequence[dict]]):
        """``(path, epoch, seqno, min_dirty)`` as every report states
        it, or ``None`` — counted as a disagreement — when they differ
        or a worker did not report."""
        views = {
            (
                report.get("path"),
                report.get("epoch"),
                report.get("seqno"),
                tuple(map(tuple, report.get("min_dirty") or ())),
            )
            for report in reports or ()
        }
        if len(views) == 1:
            return views.pop()
        self._distrust(
            "workers disagree" if views else "a worker did not report"
        )
        return None

    def _mirror_full(self, reports: Optional[Sequence[dict]]) -> None:
        """Adopt the overlay that whole-state reports (readiness, reload
        commits) describe, if they all agree and name the mapped base."""
        view = self._agreed_view(reports)
        if view is None:
            return
        from repro.live.overlay import OverlayState

        path, epoch, seqno, min_dirty = view
        if self._index is None or path != self._index_path:
            self._distrust(
                f"workers serve {path}, router maps {self._index_path}"
            )
            return
        self._overlay = (
            None
            if epoch is None
            else OverlayState(epoch, seqno, {}, dict(min_dirty))
        )
        self._agreed = True
        self._disagreement = None

    def _mirror_batch(self, reports: Optional[Sequence[dict]]) -> None:
        """Advance the mirror by one update commit's reports: each
        changed vertex's new ``min_dirty`` (``None`` = clean again)."""
        view = self._agreed_view(reports)
        mirror = self._overlay
        if view is None or not self._agreed or mirror is None:
            return
        from repro.live.overlay import OverlayState

        _path, epoch, seqno, changes = view
        if (epoch, seqno) != (mirror.epoch, mirror.seqno + 1):
            self._distrust(
                f"update to ({epoch}, {seqno}) does not follow the "
                f"mirror at ({mirror.epoch}, {mirror.seqno})"
            )
            return
        min_dirty = dict(mirror.min_dirty)
        for vertex, position in changes:
            if position is None:
                min_dirty.pop(vertex, None)
            else:
                min_dirty[vertex] = position
        self._overlay = OverlayState(epoch, seqno, {}, min_dirty)

    def _local_answers(self, pairs) -> List[Optional[QueryResult]]:
        """Answers to cache-missed ``pairs`` from the router's own index,
        ``None`` where a worker must answer.

        A pair is answered here only when the answer is exactly a
        worker's: no commit fan-out in flight, the workers agree
        with the mirror, and the pair is clean by their own rule
        (:meth:`OverlayState.base_answers`) — then a worker's answer is
        the same base scan through the same ``query_batch``.  A pair
        whose check or scan raises (an unknown vertex) is left to a
        worker, so error answers stay the workers' own.  With every
        worker down the fleet is down: nothing is answered here.  Only
        the first ``queue_high_water`` pairs of one request are checked
        and scanned here, on the loop; the rest go to the workers,
        whose admission control bounds them.
        """
        answers: List[Optional[QueryResult]] = [None] * len(pairs)
        if (
            not self._agreed
            or self._generation & 1
            or self._first_live() is None
        ):
            return answers
        index, overlay = self._index, self._overlay
        slots = []
        for slot, (source, target) in enumerate(
            pairs[: self.config.queue_high_water]
        ):
            try:
                if overlay is None or overlay.base_answers(
                    index, source, target
                ):
                    slots.append(slot)
            except Exception:
                continue
        if not slots:
            return answers
        try:
            results = index.query_batch([pairs[slot] for slot in slots])
        except Exception:
            return answers
        cacheable = self._cacheable(self._generation)
        for slot, result in zip(slots, results):
            answers[slot] = result
            if cacheable:
                self.cache.put(*pairs[slot], result)
        self.recorder.incr("fleet.answers.local", len(slots))
        return answers

    async def _prepare_reload(self, body: bytes) -> List[str]:
        """Phase one of a fleet reload: every worker stages the new
        index, and so does the router, which must map what they serve.
        Any failure — the router's included — aborts it everywhere."""

        async def _stage() -> Optional[str]:
            try:
                payload = json.loads(body)
                if not isinstance(payload, dict):
                    payload = {}
                path = str(
                    payload.get("path") or self._index_path or self.index_path
                )
                self._staged = (await self._open_index(path), path)
            except Exception as exc:
                return f"router: {str(exc) or type(exc).__name__}"
            return None

        self._staged = None
        prepared, staged = await asyncio.gather(
            self._fanout("POST", "/admin/reload/prepare", body), _stage()
        )
        failures = self._phase_failures(prepared)
        if staged is not None:
            failures.append(staged)
        if failures:
            self._staged = None
            await self._fanout("POST", "/admin/reload/abort", b"{}")
        return failures

    # ------------------------------------------------------------------
    # upstream plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _request_bytes(
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Sequence[Tuple[str, str]] = (),
    ) -> bytes:
        lines = [
            f"{method} {path} HTTP/1.1",
            "Host: fleet",
            "Connection: keep-alive",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers)
        if body:
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + body if body else head

    async def _acquire(self, worker: _Worker):
        while worker.pool:
            reader, writer = worker.pool.pop()
            if writer.is_closing():
                continue
            return reader, writer
        return await asyncio.open_connection("127.0.0.1", worker.port)

    def _release(self, worker: _Worker, reader, writer) -> None:
        if len(worker.pool) < _POOL_SIZE and not writer.is_closing():
            worker.pool.append((reader, writer))
        else:
            writer.close()

    async def _exchange(
        self, worker: _Worker, data: bytes, *, resend: bool = False
    ) -> bytes:
        """One request on a pooled connection of its own: the raw
        response bytes.

        A transport failure mid-request (worker restart, injected
        connection reset) closes the connection; idempotent requests
        are resent up to ``_UPSTREAM_RESENDS`` times on a fresh
        connection before the failure propagates.
        """
        attempts = 1 + (_UPSTREAM_RESENDS if resend else 0)
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                self.recorder.incr("fleet.upstream.resends")
            try:
                reader, writer = await self._acquire(worker)
            except OSError as exc:
                last_error = exc
                self.recorder.incr("fleet.upstream.connect_errors")
                await asyncio.sleep(0.01 * attempt)
                continue
            try:
                writer.write(data)
                await writer.drain()
                raw = await read_response_bytes(reader)
            except (
                OSError,
                HTTPProtocolError,
                asyncio.IncompleteReadError,
            ) as exc:
                writer.close()
                last_error = exc
                self.recorder.incr("fleet.upstream.transport_errors")
                continue
            self._release(worker, reader, writer)
            return raw
        if worker.up and worker.process.is_alive():
            # A freshly SIGKILLed process can reset its connections a
            # beat before ``waitpid`` reports it dead; give the kernel
            # a moment so the death is ejected *now*, not one failed
            # request later.
            await asyncio.get_running_loop().run_in_executor(
                None, worker.process.join, 0.1
            )
        if worker.up and not worker.process.is_alive():
            # Reactive detection: the connection died because the
            # process did.  Eject it now so the caller's retry (and
            # every queued request) re-dispatches onto survivors.
            self._on_worker_death(
                worker, f"connection lost: {last_error}"
            )
        raise FleetError(
            f"worker {worker.worker_id} unreachable after {attempts} "
            f"attempt(s): {last_error}"
        )

    async def _upstream(
        self,
        worker: _Worker,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Sequence[Tuple[str, str]] = (),
        *,
        resend: bool = False,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One proxied request; ``(status, headers, raw body)``."""
        raw = await self._exchange(
            worker,
            self._request_bytes(method, path, body, headers),
            resend=resend,
        )
        return parse_response(raw)

    async def _routed(self, data: bytes) -> Optional[bytes]:
        """One request to the next live worker: the raw response.
        Re-dispatched once, to the next one, if that worker dies
        mid-request; ``None`` when no worker is live."""
        for attempt in range(2):
            worker = self._next_live()
            if worker is None:
                return None
            try:
                return await self._exchange(worker, data, resend=True)
            except FleetError:
                # Queries are pure reads: if the worker was ejected (its
                # process died) a survivor answers identically, so retry
                # once.  A failure with the worker still up is the
                # ordinary 502.
                if attempt or worker.up:
                    raise
                self.recorder.incr("fleet.redispatches")
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def _record_request(
        self, trace, started: float, status: int, cache_hit=None,
        local=False,
    ) -> None:
        """The router's ``fleet.request`` span of one traced query."""
        attrs = {"path": "/query", "status": status}
        if cache_hit is not None:
            attrs["cache_hit"] = cache_hit
        if local:
            attrs["local"] = True
        self.tracer.record(
            "fleet.request",
            trace_id=trace[0],
            span_id=trace[1],
            parent_id=trace[2],
            start=started,
            duration=time.perf_counter() - started,
            attrs=attrs,
        )

    async def _dispatch(self, request: Request):
        """Every request but the hot ``GET /query``: its answer."""
        self.recorder.incr("fleet.requests")
        path = request.path
        try:
            if path == "/query":
                trace = self._trace_for(request.headers.get("traceparent"))
                started = time.perf_counter()
                answer = await self._handle_query(request, trace)
                if trace is not None:
                    self._record_request(trace, started, _status(answer))
                return answer
            if path == "/metrics":
                return await self._handle_metrics(request)
            if path == "/health":
                return await self._handle_health()
            if path == "/stats":
                return await self._handle_stats()
            if path == "/admin/reload":
                return await self._handle_reload(request)
            if path == "/admin/update":
                return await self._handle_update(request)
            if path == "/admin/profile":
                return await self._proxy(request)
            if path == "/admin/trace":
                return await self._handle_trace(request)
            self.recorder.incr("fleet.errors.route")
            return 404, {"error": f"unknown path {path!r}"}, ()
        except FleetError as exc:
            self.recorder.incr("fleet.errors.upstream")
            return 502, {"error": str(exc)}, ()

    async def _proxy(self, request: Request):
        """One admin request relayed to a live worker on its own
        connection, with every header the worker set."""
        worker = self._next_live()
        if worker is None:
            return self._unavailable()
        headers = []
        rid = request.headers.get("x-request-id")
        if rid:
            headers.append(("X-Request-Id", rid))
        status, response_headers, payload = await self._upstream(
            worker,
            request.method,
            _target(request),
            request.body or None,
            headers,
        )
        extra = tuple(
            ("-".join(part.capitalize() for part in name.split("-")), value)
            for name, value in response_headers.items()
            if name not in _FRAMING_HEADERS
        )
        return status, payload, extra

    # ------------------------------------------------------------------
    # queries: the router cache, the router's index, then a worker
    # ------------------------------------------------------------------
    def _unavailable(self) -> Response:
        """503 + Retry-After: every worker is down, respawns pending."""
        self.recorder.incr("fleet.errors.unavailable")
        retry_after = max(
            1, int(self.config.respawn_backoff_s * 2 + 0.5)
        )
        return (
            503,
            {"error": "no live workers (fleet is respawning)"},
            (("Retry-After", str(retry_after)),),
        )

    def _lookup(
        self, source: int, target: int, probe: bool = True
    ) -> Optional[QueryResult]:
        """The cached answer of one pair; every routed pair feeds
        ``top_pairs``.  ``probe`` false skips the cache: ``explain`` and
        a trace the client started both ask for the whole path."""
        result = self.cache.get(source, target) if probe else None
        if self.top_pairs is not None:
            self.top_pairs.offer(
                (source, target) if source <= target else (target, source),
                result is not None if probe else None,
            )
        return result

    def _hit(
        self, source: int, target: int, result: QueryResult, rid
    ) -> Response:
        """An answer given at the router, byte-identical to a worker's."""
        return (
            200,
            encode_result_bytes(source, target, result),
            (("X-Request-Id", rid or self._ids.next_id()),),
        )

    def _fast_query(self, head: bytes):
        """The hot keep-alive ``GET /query?source=&target=`` shape, head
        parsed once: a hit, or a miss the router's own index answers
        exactly, is answered here; any other miss is forwarded as the
        client's own bytes by :meth:`_forward`, which relays the
        worker's response verbatim.  Other heads take the full parser,
        which rebuilds a forwarded request as keep-alive."""
        query = parse_query_head(head)
        if query is None or not query[2]:
            return None
        self.recorder.incr("fleet.requests")
        source, target, _keep_alive, rid, traceparent = query
        keep_alive = not self._draining
        trace = self._trace_for(traceparent)
        started = time.perf_counter()
        probe = _probes(trace)
        result = self._lookup(source, target, probe)
        hit = result is not None
        if not hit and probe:
            result = self._local_answers(((source, target),))[0]
        if result is not None:
            if trace is not None:
                self._record_request(
                    trace, started, 200, cache_hit=hit, local=not hit
                )
            return self._hit(source, target, result, rid), keep_alive
        if self._first_live() is None:
            return self._unavailable(), keep_alive
        self.recorder.incr("fleet.answers.forwarded")
        if trace is not None:
            head = _with_traceparent(head, trace)
        forward = self._forward(
            (source, target), head, self._generation, trace, started
        )
        return forward, keep_alive

    async def _forward(
        self,
        pair,
        data: bytes,
        generation: Optional[int],
        trace=None,
        started: float = 0.0,
    ):
        """The relayed answer to one query, after any resends and one
        re-dispatch; ``generation`` is the seqlock value at dispatch."""
        try:
            answer = await self._routed(data)
        except FleetError as exc:
            self.recorder.incr("fleet.errors.upstream")
            answer = 502, {"error": str(exc)}, ()
        else:
            if answer is None:
                answer = self._unavailable()
            else:
                self._relayed(pair, answer, generation)
        if trace is not None:
            self._record_request(trace, started, _status(answer), False)
        return answer

    def _relayed(self, pair, raw: bytes, generation: Optional[int]) -> None:
        """Cache a worker's 200 answer to ``pair`` when ``generation``
        (the seqlock value at dispatch; ``None`` = never cache) shows
        no commit overlapped it."""
        if raw.startswith(b"200", 9) and self._cacheable(generation):
            self._remember(
                pair, json.loads(raw[raw.index(b"\r\n\r\n") + 4 :])
            )

    def _cacheable(self, generation: Optional[int]) -> bool:
        """Whether an answer to a query dispatched at seqlock value
        ``generation`` may be cached: no commit fan-out was in flight
        then (even) and none has started since (unchanged).  ``None``
        marks an answer never cached (``explain``)."""
        return (
            generation is not None
            and not generation & 1
            and generation == self._generation
            and self.cache.capacity > 0
        )

    def _remember(self, pair, answer: dict) -> None:
        """Cache a worker's JSON answer to ``pair``."""
        distance = answer["distance"]
        self.cache.put(
            pair[0],
            pair[1],
            QueryResult(
                INF if distance is None else distance, answer["count"]
            ),
        )

    async def _handle_query(self, request: Request, trace=None):
        """Every ``/query`` shape but the hot GET: a single pair (GET
        or POST), a ``pairs`` batch, ``explain`` and malformed requests.
        Explain and malformed requests go to a worker as they are."""
        rid = request.headers.get("x-request-id")
        explain = False
        pair = None
        if request.method == "POST":
            try:
                payload = request.json()
            except HTTPProtocolError:
                payload = None
            if isinstance(payload, dict):
                explain = bool(payload.get("explain", False))
                if isinstance(payload.get("pairs"), list):
                    answer = await self._answer_batch(
                        payload["pairs"], explain, rid, trace
                    )
                    if answer is not None:
                        return answer
                else:
                    try:
                        pair = (
                            int(payload["source"]), int(payload["target"])
                        )
                    except (KeyError, TypeError, ValueError):
                        pair = None
        else:
            explain = request.flag("explain")
            try:
                pair = (
                    int(request.params["source"]),
                    int(request.params["target"]),
                )
            except (KeyError, ValueError):
                pair = None  # a worker answers the 400 consistently
        headers = _forward_headers(rid, trace)
        generation = None
        if pair is not None and not explain:
            probe = _probes(trace)
            result = self._lookup(*pair, probe)
            if result is None and probe:
                result = self._local_answers((pair,))[0]
            if result is not None:
                return self._hit(*pair, result, rid)
            data = self._request_bytes(
                "GET", "/query?source=%d&target=%d" % pair, None, headers
            )
            generation = self._generation
        else:
            if pair is not None:
                self._lookup(*pair, probe=False)  # explain: sketch only
            data = self._request_bytes(
                request.method, _target(request), request.body or None,
                headers,
            )
        self.recorder.incr("fleet.answers.forwarded")
        return await self._forward(pair, data, generation)

    async def _answer_batch(
        self, pairs: list, explain: bool, rid: Optional[str], trace=None
    ) -> Optional[Response]:
        """A JSON batch: cached pairs, and misses the router's own index
        answers exactly, answered here; the other misses forwarded
        (:meth:`_forward_members`) and put back in request order.
        ``None`` for a structurally bad batch, which a worker then
        reports whole."""
        keys = []
        for item in pairs:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                return None
            try:
                keys.append((int(item[0]), int(item[1])))
            except (TypeError, ValueError):
                return None
        probe = not explain and _probes(trace)
        results: List[object] = [None] * len(pairs)
        missing = []
        for position, (source, target) in enumerate(keys):
            result = self._lookup(source, target, probe)
            if result is None:
                missing.append(position)
            else:
                results[position] = encode_result(source, target, result)
        if missing and probe:
            local = self._local_answers([keys[slot] for slot in missing])
            for position, result in zip(missing, local):
                if result is not None:
                    results[position] = encode_result(*keys[position], result)
            missing = [
                position
                for position, result in zip(missing, local)
                if result is None
            ]
        worst, extra = 200, ()
        if missing:
            if self._first_live() is None:
                return self._unavailable()
            self.recorder.incr("fleet.answers.forwarded", len(missing))
            worst, extra = await self._forward_members(
                pairs, keys, missing, results, explain,
                _forward_headers(rid, trace),
            )
        extra += (("X-Request-Id", rid or self._ids.next_id()),)
        return worst, {"results": results}, extra

    async def _forward_members(
        self, pairs, keys, missing, results, explain, headers
    ) -> Tuple[int, tuple]:
        """Fill ``results`` at the ``missing`` positions from the
        workers; returns the worst status and the envelope's extra
        headers.

        The members go out in chunks of at most ``queue_high_water``
        pairs, one chunk at a time, so no worker is sent more pairs of
        this request than it admits at once.  A chunk a worker sheds
        whole anyway (other load filled its queue) answers its members
        with that worker's 503 and ``Retry-After``.
        """
        generation = None if explain else self._generation
        size = self.config.queue_high_water
        worst, retry_after = 200, "1"
        for start in range(0, len(missing), size):
            chunk = missing[start : start + size]
            body = json.dumps(
                {
                    "pairs": [pairs[position] for position in chunk],
                    "explain": explain,
                },
                separators=(",", ":"),
            ).encode()
            status, answer, retry = await self._forward_chunk(body, headers)
            slots = answer.get("results")
            if isinstance(slots, list) and len(slots) == len(chunk):
                cacheable = self._cacheable(generation)
                for position, slot in zip(chunk, slots):
                    results[position] = slot
                    if (
                        cacheable
                        and isinstance(slot, dict)
                        and "count" in slot
                        and "error" not in slot
                    ):
                        self._remember(keys[position], slot)
            else:
                if status not in (502, 503) or "error" not in answer:
                    status = 502
                    answer = {"error": "malformed upstream batch answer"}
                for position in chunk:
                    results[position] = answer
            if status == 503 and retry:
                retry_after = retry
            worst = max(worst, status)
        return worst, (("Retry-After", retry_after),) if worst == 503 else ()

    async def _forward_chunk(
        self, body: bytes, headers
    ) -> Tuple[int, dict, Optional[str]]:
        """One chunk of batch members to a live worker: ``(status,
        answer object, Retry-After)``; the answer is ``{}`` when the
        body is not a JSON object."""
        try:
            raw = await self._routed(
                self._request_bytes("POST", "/query", body, headers)
            )
        except FleetError as exc:
            return 502, {"error": str(exc)}, None
        if raw is None:
            status, payload, extra = self._unavailable()
            return status, payload, extra[0][1]
        status, response_headers, payload = parse_response(raw)
        try:
            answer = json.loads(payload) if payload else {}
        except json.JSONDecodeError:
            answer = {}
        if not isinstance(answer, dict):
            answer = {}
        return status, answer, response_headers.get("retry-after")

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    async def _fanout(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        *,
        resend: bool = False,
    ) -> List[Tuple[_Worker, object]]:
        """The same request to every *live* worker; ``(worker,
        outcome)`` pairs with exceptions as values.  Ejected workers
        are skipped — they catch up from the router's retained update
        bodies when their respawn rejoins."""
        live = self._live_workers()
        outcomes = await asyncio.gather(
            *(
                self._upstream(worker, method, path, body, resend=resend)
                for worker in live
            ),
            return_exceptions=True,
        )
        return list(zip(live, outcomes))

    async def _handle_metrics(self, request: Request) -> Response:
        outcomes = await self._fanout("GET", "/metrics", resend=True)
        snapshots = []
        for worker, outcome in outcomes:
            if isinstance(outcome, BaseException):
                continue
            status, _, body = outcome
            if status != 200:
                continue
            try:
                snapshots.append(json.loads(body))
            except json.JSONDecodeError:
                continue
        self.recorder.gauge("serve.cache.size", len(self.cache))
        self.recorder.gauge("serve.cache.hit_rate", self.cache.hit_rate)
        for snapshot in snapshots:
            # Workers see only the router's traffic: the fleet's query
            # count is the router's own, every client query once.
            snapshot.get("counters", {}).pop("serve.requests", None)
        merged = merge_metrics_snapshots(
            snapshots + [self.recorder.metrics_snapshot()]
        )
        merged["fleet"] = {
            "workers": len(self.workers),
            "reporting": len(snapshots),
        }
        return self._metrics_answer(request, merged)

    async def _handle_health(self) -> Response:
        outcomes = {
            worker.worker_id: outcome
            for worker, outcome in await self._fanout(
                "GET", "/health", resend=True
            )
        }
        per_worker = []
        healthy = 0
        for worker in self.workers:
            if not worker.up:
                # An ejected worker reports its supervision state: the
                # flap circuit means "down for good", a pending respawn
                # means "coming back".
                if worker.circuit_open:
                    text = "flapped"
                elif self.config.respawn:
                    text = "respawning"
                else:
                    text = "down"
                row = {"worker": worker.worker_id, "status": text}
                if worker.last_error:
                    row["error"] = worker.last_error
                per_worker.append(row)
                continue
            outcome = outcomes.get(worker.worker_id)
            if outcome is None or isinstance(outcome, BaseException):
                per_worker.append(
                    {
                        "worker": worker.worker_id,
                        "status": "unreachable",
                        "error": str(outcome),
                    }
                )
                continue
            status, _, body = outcome
            try:
                answer = json.loads(body) if body else {}
            except json.JSONDecodeError:
                answer = {}
            text = answer.get("status", "unknown")
            per_worker.append(
                {"worker": worker.worker_id, "status": text}
            )
            if status == 200:
                healthy += 1
        if self._draining:
            overall, http_status = "draining", 503
        elif healthy == len(self.workers):
            overall, http_status = "ok", 200
        elif healthy:
            overall, http_status = "degraded", 503
        else:
            overall, http_status = "down", 503
        payload = {
            "status": overall,
            "workers": per_worker,
            "healthy_workers": healthy,
            "workers_down": sum(
                1 for worker in self.workers if not worker.up
            ),
            "inflight": self._inflight,
            "uptime_seconds": time.perf_counter() - self._started_at,
        }
        return http_status, payload, ()

    async def _handle_trace(self, request: Request) -> Response:
        """Fleet trace capture: fan out, merge, one Chrome payload.

        Drains every worker's span ring (``format=fragment``) plus the
        router's own, shifts each fragment onto a common wall-clock
        base via its monotonic-offset anchor, and links parent/child
        span ids across the process boundary — one download, the whole
        fleet's story.  ``format=fragment`` returns the router's raw
        fragment instead (for a higher-level merger).
        """
        refusal = self._trace_refusal(request)
        if refusal is not None:
            return refusal
        clear = request.flag("clear")
        if request.params.get("format") == "fragment":
            return 200, self.tracer.fragment(clear=clear), ()
        path = "/admin/trace?format=fragment"
        if clear:
            path += "&clear=1"
        outcomes = await self._fanout("POST", path, b"{}")
        fragments = [self.tracer.fragment(clear=clear)]
        reporting = 0
        for worker, outcome in outcomes:
            if isinstance(outcome, BaseException):
                continue
            status, _, body = outcome
            if status != 200:
                continue
            try:
                fragment = json.loads(body)
            except json.JSONDecodeError:
                continue
            if isinstance(fragment, dict):
                fragments.append(fragment)
                reporting += 1
        merged = merge_trace_fragments(fragments)
        self.recorder.incr("fleet.trace.captures")
        merged["fleet"] = {
            "workers": len(self.workers),
            "reporting": reporting,
        }
        return 200, merged, ()

    async def _handle_stats(self) -> Response:
        outcomes = await self._fanout("GET", "/stats", resend=True)
        stats: Dict[int, dict] = {}
        for worker, outcome in outcomes:
            if isinstance(outcome, BaseException):
                continue
            status, _, body = outcome
            if status != 200:
                continue
            try:
                parsed = json.loads(body) if body else {}
            except json.JSONDecodeError:
                continue
            if isinstance(parsed, dict):
                stats[worker.worker_id] = parsed
        if not stats:
            if not self._live_workers():
                return self._unavailable()
            self.recorder.incr("fleet.errors.upstream")
            return 502, {"error": "no worker could report stats"}, ()
        # Worker 0 (or the lowest reporting id) provides the base
        # payload — index metadata, batcher and breaker snapshots are
        # representative — and the fleet block carries what differs.
        payload = stats[min(stats)]
        payload["fleet"] = {
            "workers": len(self.workers),
            "reporting": len(stats),
            "index_path": self.index_path,
            "per_worker": self._per_worker_rows(stats),
            "supervisor": self._supervisor_snapshot(),
            "answers": self._answers_snapshot(),
        }
        payload["cache"] = self.cache.snapshot()
        if self.top_pairs is not None:
            payload["top_pairs"] = self.top_pairs.block()
        return 200, payload, ()

    def _per_worker_rows(self, stats: Dict[int, dict]) -> List[dict]:
        """One freshness/throughput row per reporting worker.

        ``epoch_lag``/``seqno_lag`` are relative to the fleet maximum —
        a worker behind its peers is the one that would serve stale
        counts, and ``repro-spc top`` renders exactly these rows.
        """
        live_by_worker = {
            worker_id: parsed["live"]
            for worker_id, parsed in stats.items()
            if isinstance(parsed.get("live"), dict)
        }
        max_epoch = max(
            (live.get("epoch", 0) for live in live_by_worker.values()),
            default=0,
        )
        max_seqno = max(
            (live.get("seqno", 0) for live in live_by_worker.values()),
            default=0,
        )
        rows = []
        for worker_id in sorted(stats):
            parsed = stats[worker_id]
            window = parsed.get("window") or {}
            latency = window.get("latency_ms") or {}
            row = {
                "worker": worker_id,
                "requests": window.get("requests", 0),
                "qps": window.get("qps", 0.0),
                "p99_ms": latency.get("p99", 0.0),
                "cache_hit_rate": window.get("cache_hit_rate", 0.0),
            }
            live = live_by_worker.get(worker_id)
            if live is not None:
                epoch = live.get("epoch", 0)
                seqno = live.get("seqno", 0)
                row["epoch"] = epoch
                row["seqno"] = seqno
                row["epoch_lag"] = max_epoch - epoch
                row["seqno_lag"] = max_seqno - seqno
                if "staleness_s" in live:
                    row["staleness_s"] = live["staleness_s"]
            rows.append(row)
        return rows

    def _answers_snapshot(self) -> dict:
        """Who answered the cache misses — the router's own index or a
        worker — and whether the router may answer them now."""
        counters = self.recorder.counters

        def count(name: str) -> int:
            counter = counters.get(name)
            return counter.value if counter is not None else 0

        mirror = self._overlay
        return {
            "local": count("fleet.answers.local"),
            "forwarded": count("fleet.answers.forwarded"),
            "agreed": self._agreed,
            "disagreement": self._disagreement,
            "index_path": self._index_path,
            "mirror": None
            if mirror is None
            else {
                "epoch": mirror.epoch,
                "seqno": mirror.seqno,
                "poisoned_vertices": len(mirror.min_dirty),
            },
        }

    def _supervisor_snapshot(self) -> dict:
        """Per-worker supervision state for the ``/stats`` fleet block."""
        return {
            "respawn": self.config.respawn,
            "probe_interval_s": self.config.probe_interval_s,
            "workers_down": sum(
                1 for worker in self.workers if not worker.up
            ),
            "respawns": sum(
                worker.generation for worker in self.workers
            ),
            "workers": [
                {
                    "worker": worker.worker_id,
                    "up": worker.up,
                    "generation": worker.generation,
                    "deaths": worker.total_deaths,
                    "circuit_open": worker.circuit_open,
                }
                for worker in self.workers
            ],
        }

    # ------------------------------------------------------------------
    # fleet reload: two-phase commit
    # ------------------------------------------------------------------
    async def _handle_reload(self, request: Request) -> Response:
        if request.method != "POST":
            return 405, {"error": "reload requires POST"}, _ALLOW_POST
        if not self._live_workers():
            return self._unavailable()
        failures = await self._prepare_reload(request.body or b"{}")
        if failures:
            # One bad worker, a router that cannot map the file, or one
            # corrupt file rejects the reload fleet-wide; every staged
            # index is dropped and the old one keeps serving everywhere.
            self.recorder.incr("fleet.reload.failed")
            return 409, {"reloaded": False, "errors": failures}, ()
        committed = await self._commit("/admin/reload/commit")
        commit_failures = self._phase_failures(committed)
        if commit_failures:  # pragma: no cover - commit cannot fail
            self.recorder.incr("fleet.reload.failed")
            return 500, {"reloaded": False, "errors": commit_failures}, ()
        self.recorder.incr("fleet.reload.count")
        return 200, {"reloaded": True, "workers": len(committed)}, ()

    # ------------------------------------------------------------------
    # fleet live updates: two-phase commit + coordinated rebuild
    # ------------------------------------------------------------------
    async def _handle_update(self, request: Request) -> Response:
        if request.method != "POST":
            return 405, {"error": "update requires POST"}, _ALLOW_POST
        if not self._live_workers():
            return self._unavailable()
        try:
            request.json()
        except HTTPProtocolError as exc:
            # Not JSON (NaN and Infinity included): no worker sees it.
            self.recorder.incr("fleet.update.failed")
            return 400, {"applied": False, "error": str(exc)}, ()
        body = request.body or b"{}"
        prepared = await self._fanout(
            "POST", "/admin/update/prepare", body
        )
        failures = self._phase_failures(prepared)
        if failures:
            # All-or-nothing across the *live* fleet: the live
            # workers' shadow graphs must stay in lockstep, so one
            # rejection (malformed batch, unknown edge, live updates
            # disabled) drops the batch everywhere.  A worker that
            # *died* mid-phase is ejected instead of failing the batch
            # — it catches up from the router's update log on respawn.
            await self._fanout("POST", "/admin/update/abort", b"{}")
            self.recorder.incr("fleet.update.failed")
            return 409, {"applied": False, "errors": failures}, ()
        if not self._live_workers():
            return self._unavailable()
        committed = await self._commit("/admin/update/commit")
        commit_failures = self._phase_failures(committed)
        if commit_failures:
            # A commit that validated on prepare only fails if a worker
            # broke mid-flight while staying alive; the survivors
            # applied the batch, so report the divergence loudly rather
            # than pretending the fleet is consistent.
            self.recorder.incr("fleet.update.failed")
            return 500, {"applied": False, "errors": commit_failures}, ()
        payload = {"applied": True, "workers": len(committed)}
        rebuild_due = False
        for _worker, outcome in committed:
            if isinstance(outcome, BaseException):
                continue
            try:
                report = json.loads(outcome[2])
            except (json.JSONDecodeError, TypeError, IndexError):
                continue
            rebuild_due = rebuild_due or bool(report.get("rebuild_due"))
            for key in (
                "epoch",
                "seqno",
                "updated_edges",
                "submitted_edges",
                "repaired_nodes",
                "repaired_entries",
                "overlay_entries",
            ):
                if key in report and key not in payload:
                    payload[key] = report[key]
        self.recorder.incr("fleet.update.count")
        seqno = payload.get("seqno")
        if isinstance(seqno, int):
            # Retain the accepted body: a respawned worker whose WAL
            # predates this batch replays it straight from here.
            self._update_log.append((seqno, body))
            if len(self._update_log) > _UPDATE_LOG_MAX:
                del self._update_log[: -_UPDATE_LOG_MAX]
        if rebuild_due and self._rebuild_task is None and not self._draining:
            # Single-flight: one background rebuild per burst, no
            # matter how many batches land while it runs.
            self._rebuild_task = asyncio.get_running_loop().create_task(
                self._coordinate_rebuild()
            )
        return 200, payload, ()

    async def _commit(self, path: str) -> List[Tuple[_Worker, object]]:
        """One commit fan-out, bracketed by the seqlock.

        Commits run one at a time, in the order the workers apply them.
        The generation is odd while one is in flight, so no answer
        computed across it is cached (:meth:`_cacheable`) and none is
        answered locally (:meth:`_local_answers`).  Before it turns
        even again the router catches up with the commit: after
        an update, the cache drops every pair touching a vertex in the
        workers' ``changed_vertices`` (the workers' own rule) and the
        mirror takes their new ``min_dirty``; after a reload, the cache
        empties, the router swaps in the index it staged, and the
        mirror takes the workers' whole overlay.
        """
        async with self._commit_lock:
            self._generation += 1
            committed: List[Tuple[_Worker, object]] = []
            try:
                committed = await self._fanout("POST", path, b"{}")
            finally:
                reports = _commit_reports(committed)
                if path == "/admin/update/commit":
                    changed = _changed_vertices(reports)
                    if changed is None:
                        self.cache.clear()
                    else:
                        self.cache.invalidate(changed)
                    self._mirror_batch(reports)
                else:
                    self.cache.clear()
                    if self._staged is not None:
                        self._index, self._index_path = self._staged
                        self._staged = None
                    self._mirror_full(reports)
                self._generation += 1
            return committed

    def _phase_failures(
        self, outcomes: Sequence[Tuple[_Worker, object]]
    ) -> List[str]:
        """Per-worker error strings from one fan-out's outcomes.

        A worker whose *process died* mid-phase is not a failure: it is
        ejected (and queued for respawn) and the phase proceeds on the
        survivors — a crash must degrade capacity, not block updates.
        """
        failures = []
        for worker, outcome in outcomes:
            if isinstance(outcome, BaseException):
                if _died(worker, outcome):
                    self._on_worker_death(
                        worker, f"died mid-fanout: {outcome}"
                    )
                    continue
                failures.append(f"worker {worker.worker_id}: {outcome}")
                continue
            status, _, payload = outcome
            if status != 200:
                try:
                    detail = json.loads(payload).get("error", "")
                except (json.JSONDecodeError, AttributeError):
                    detail = payload.decode("latin-1", "replace")[:200]
                failures.append(f"worker {worker.worker_id}: {detail}")
        return failures

    async def _coordinate_rebuild(self) -> None:
        """Rebuild on worker 0, then two-phase swap the whole fleet.

        Worker 0 snapshots its shadow graph, builds a fresh index, and
        saves it next to the serving one; the router then drives the
        ordinary two-phase reload with the saved path *plus* the
        snapshot's ``base_seqno``, so every worker adopts the new base
        and replays exactly its post-snapshot batches onto it.  The
        workers' graphs are identical by construction (updates land
        all-or-nothing), so one build serves all N.
        """
        try:
            builder = self._first_live()
            if builder is None:
                raise FleetError("no live worker can run the rebuild")
            status, _, payload = await self._upstream(
                builder, "POST", "/admin/rebuild", b"{}"
            )
            if status != 200:
                raise FleetError(
                    f"rebuild on worker {builder.worker_id} failed: "
                    f"HTTP {status} {payload.decode('latin-1', 'replace')[:200]}"
                )
            report = json.loads(payload)
            body = json.dumps(
                {
                    "path": report["path"],
                    "base_seqno": report["base_seqno"],
                },
                separators=(",", ":"),
            ).encode()
            failures = await self._prepare_reload(body)
            if failures:
                raise FleetError(
                    f"rebuild swap rejected: {'; '.join(failures)}"
                )
            committed = await self._commit("/admin/reload/commit")
            commit_failures = self._phase_failures(committed)
            if commit_failures:  # pragma: no cover - commit cannot fail
                raise FleetError(
                    f"rebuild swap commit failed: {'; '.join(commit_failures)}"
                )
            # A worker respawning after this point adopts exactly this
            # base to close any epoch gap.
            self._last_rebuild = (
                str(report["path"]), int(report["base_seqno"])
            )
            self.recorder.incr("fleet.rebuild.count")
        except Exception:
            self.recorder.incr("fleet.rebuild.failed")
        finally:
            self._rebuild_task = None


def _died(worker: _Worker, outcome: BaseException) -> bool:
    """Whether a fan-out failed on ``worker`` because its process died:
    it is ejected, and catches up on respawn, instead of failing the
    phase."""
    return isinstance(outcome, FleetError) and (
        not worker.up or not worker.process.is_alive()
    )


def _commit_reports(committed) -> Optional[List[dict]]:
    """The JSON reports of one commit fan-out's surviving workers;
    ``None`` unless every worker that is still alive reported a 200."""
    reports = []
    for worker, outcome in committed:
        if isinstance(outcome, BaseException):
            if _died(worker, outcome):
                continue
            return None
        status, _, body = outcome
        try:
            report = json.loads(body)
        except ValueError:
            return None
        if status != 200 or not isinstance(report, dict):
            return None
        reports.append(report)
    return reports or None


def _changed_vertices(reports: Optional[List[dict]]) -> Optional[set]:
    """The union of the commit reports' ``changed_vertices``; ``None``
    unless every report has one (then the cache is cleared)."""
    changed: set = set()
    for report in reports or ():
        vertices = report.get("changed_vertices")
        if not isinstance(vertices, list):
            return None
        changed.update(vertices)
    return changed if reports else None


# ----------------------------------------------------------------------
# metrics merging
# ----------------------------------------------------------------------
def _bucket_bound(label: str) -> float:
    """Numeric upper bound of a histogram bucket label."""
    text = label.split(maxsplit=1)[-1]
    try:
        return float(text)
    except ValueError:
        return float("inf")


def merge_metrics_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge per-worker ``metrics_snapshot()`` dicts into one.

    Counters and gauges are summed (every gauge in the serving layer —
    queue depth, cache size, active connections — is additive across
    workers).  Histograms merge exactly on ``count``/``sum``/``min``/
    ``max`` and bucket-wise on the distribution; the merged quantiles
    are bucket upper bounds (the standard Prometheus-style estimate),
    which is the best any aggregator can do without raw samples.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, List[dict]] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0) + value
        for name, data in snapshot.get("histograms", {}).items():
            histograms.setdefault(name, []).append(data)
    merged_histograms = {}
    for name, parts in histograms.items():
        live = [part for part in parts if part.get("count")]
        if not live:
            merged_histograms[name] = parts[0]
            continue
        count = sum(part["count"] for part in live)
        total = sum(part["sum"] for part in live)
        low = min(part["min"] for part in live)
        high = max(part["max"] for part in live)
        buckets: Dict[str, int] = {}
        for part in live:
            for label, bucket_count in part.get("buckets", {}).items():
                buckets[label] = buckets.get(label, 0) + bucket_count
        ordered = sorted(buckets.items(), key=lambda kv: _bucket_bound(kv[0]))
        quantiles = {}
        for quantile, key in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
            needed = quantile * count
            seen = 0
            value = high
            for label, bucket_count in ordered:
                seen += bucket_count
                if seen >= needed:
                    bound = _bucket_bound(label)
                    value = bound if bound != float("inf") else high
                    break
            quantiles[key] = value
        merged_histograms[name] = {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "mean": total / count,
            **quantiles,
            "buckets": dict(ordered),
        }
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": merged_histograms,
    }


# ----------------------------------------------------------------------
# thread runner (tests, benchmarks)
# ----------------------------------------------------------------------
class FleetThread:
    """Run a :class:`FleetRouter` on a daemon thread with its own loop.

    The fleet analogue of :class:`~repro.serve.runner.ServerThread`::

        with FleetThread(path, workers=2) as (host, port):
            report = replay(host, port, pairs)
    """

    def __init__(
        self,
        index_path: str,
        workers: int,
        config: Optional[ServeConfig] = None,
        **router_kwargs,
    ) -> None:
        import threading

        self._index_path = str(index_path)
        self._workers = workers
        self._config = config or ServeConfig(port=0)
        self._router_kwargs = router_kwargs
        self.router: Optional[FleetRouter] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="spc-fleet", daemon=True
        )

    def start(self, timeout: float = 120.0) -> Tuple[str, int]:
        """Start the fleet; returns the router's ``(host, port)``."""
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("fleet thread did not start in time")
        if self._failure is not None:
            raise RuntimeError(
                f"fleet failed to start: {self._failure!r}"
            ) from self._failure
        assert self.router is not None
        return self.router.host, self.router.port

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the fleet and join the thread."""
        if (
            self._loop is not None
            and self.router is not None
            and not self._loop.is_closed()
        ):
            shutdown = self.router.shutdown()
            try:
                asyncio.run_coroutine_threadsafe(
                    shutdown, self._loop
                ).result(timeout)
            except (RuntimeError, asyncio.CancelledError):
                shutdown.close()  # loop already gone: fleet finished
        self._thread.join(timeout)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        self.router = FleetRouter(
            self._index_path,
            self._workers,
            self._config,
            **self._router_kwargs,
        )
        await self.router.start()
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.router.wait_stopped()

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
