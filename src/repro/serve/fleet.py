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
worker hop.  Commits — an update batch, a reload, a rebuilt base — run
one at a time under a seqlock generation that is odd while one is in
flight: an answer is cached only if no commit overlapped its request,
an update drops every pair touching a vertex whose labels moved, and a
reload clears the cache.

The router also maps the index its workers serve — the same v4 file
and ``load_index(path, verify=True)``, so the same page-cache pages —
and answers every cache miss from it itself.

**Live updates.**  On a live fleet the router owns the live tier, just
as a single live server does (:class:`~repro.serve.server.LiveTier`,
the same handler code): it recovers one
:class:`~repro.live.coordinator.UpdateCoordinator` from ``--wal-dir``
at start, and each ``POST /admin/update`` is validated, fsync'd to the
one WAL and repaired once, then its overlay diff is installed on every
live worker (``POST /admin/install``) before the 200.  Workers are
replicas: a :class:`~repro.live.overlay.LiveIndex` over the base the
router names, with no graph, coordinator or WAL of their own.  Past
the overlay threshold the router rebuilds the base, saves it next to
the served index, adopts it (the WAL pins its path) and joins every
worker to the new state.  *Joining* sends the router's whole state —
base path, ``(epoch, seqno)`` and patch table — under the commit lock;
it admits a worker at start, on respawn, after a rebuild, and after an
install the worker did not take (it is ejected until it has joined).
So every worker serves the router's version, and the router answers
every pair from its own overlay.

Every other request is forwarded to the next live worker, round-robin:
pairs whose local scan raises, ``explain``, requests carrying a
sampled inbound ``traceparent``, and the ``/admin/profile`` relay.
Every worker serves the same index and overlay, so any live one
answers exactly.  A forwarded hot ``GET /query`` is the client's own
bytes, and the worker's response is relayed verbatim.  A client that
pipelines keeps several queries in flight upstream, each on a pooled
keep-alive loopback connection of its own, and gets its answers back
in request order.  Queries are pure reads, so a request that dies with
its upstream connection (a worker restart, an injected ``conn.reset``
fault) is transparently resent a bounded number of times, and
re-dispatched once to another worker if its worker died, before the
client sees a retryable 502.

Fleet-wide endpoints:

* ``GET /query`` / ``POST /query`` — answered from the router cache,
  else from the router's own index, else by a worker.  A ``pairs``
  batch's forwarded members go out in chunks of at most
  ``queue_high_water`` pairs, one chunk at a time, so no worker is
  sent more than its admission bound at once; a chunk a busy worker
  still sheds answers its members with that worker's 503 and
  ``Retry-After``.
* ``GET /metrics`` — per-worker snapshots merged (counters and gauges
  summed, histograms merged bucket-wise) with the router's own;
  Prometheus text on request.  ``serve.requests`` is the router's own
  count: every ``/query`` a client sent the fleet, once.
* ``GET /health`` — fleet status: ``ok`` only if every worker is ok.
* ``POST /admin/reload`` — **two-phase** fleet reload of a static
  fleet: every worker, and the router, stages and fully verifies the
  new index (``prepare``), and only if all succeed does the router
  ``commit`` the swap everywhere.  One corrupt file → ``abort``
  everywhere, 409, old index keeps serving on all workers and at the
  router.  A live fleet refuses it, as a live server does.
* ``POST /admin/update`` — one delta batch, applied by the router's
  live tier and installed on every live worker (above).
* ``POST /admin/profile`` — relayed to a live worker, headers and all.
* ``POST /admin/trace`` — fleet trace capture: every worker's span
  ring (plus the router's own) drained, clock-aligned, and merged
  into one Chrome trace whose parent/child links cross the process
  boundary (router ``fleet.request`` → worker ``serve.request`` →
  ``serve.scan_batch``).
* ``GET /stats`` — per-worker stats fanned out and merged: a
  ``fleet.per_worker`` table (QPS, p99, epoch/seqno lag behind the
  router's version), ``fleet.answers`` (local vs forwarded misses and
  the mapped index), the router's ``live`` block, ``cache`` snapshot,
  and ``top_pairs`` from its Space-Saving sketch of every routed query.

``SIGTERM``/``SIGINT`` drain in cascade: the router stops accepting,
answers every request already read, then signals each worker to run
its own graceful drain — zero dropped requests end to end.

**Self-healing.**  The router supervises its workers: a worker whose
process dies (detected reactively by a failed proxied request, or
proactively by the periodic liveness probe) stops receiving traffic
immediately — its in-flight queries re-dispatch to the survivors, so
availability degrades but correctness never does — and, with
``respawn`` enabled, is respawned under capped-exponential backoff.
The replacement cold-starts from the same zero-copy v4 mmap of the
base the router serves, joins the router's state, and takes traffic
again only after a readiness probe answers.  A worker that dies
``flap_max_restarts`` times within ``flap_window_s`` trips its flap
circuit and stays down (``/health`` reports ``flapped`` and stays
degraded).  With *every* worker down, queries answer 503 with a
``Retry-After`` header instead of hanging.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import multiprocessing
import signal
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.serve.runner import ServerThread
from repro.serve.server import LiveTier, encode_result, encode_result_bytes
from repro.types import INF, QueryResult

#: Upstream response headers the router frames itself; every other
#: header of a relayed admin response is forwarded.
_FRAMING_HEADERS = frozenset({"content-length", "connection"})

#: Transparent resends of an idempotent request after a transport
#: failure (queries are pure reads; admin calls are never resent).
_UPSTREAM_RESENDS = 2

#: Idle upstream connections kept pooled per worker.
_POOL_SIZE = 32

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


async def _worker_serve(spec: WorkerSpec, conn) -> None:
    from repro.core.serialize import load_index
    from repro.faults import FaultPlan
    from repro.live.overlay import LiveIndex
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
        if spec.config.live_updates:
            # A replica: the router repairs every batch once and
            # installs the result here (POST /admin/install).
            index = LiveIndex(index)
        server = SPCServer(
            index, spec.config, fault_plan=plan, index_path=spec.index_path
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
    conn.send(("ready", server.port))
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
    #: Receiving traffic (and, on a live fleet, every batch's diff).  A
    #: dead worker is ejected the moment its death is detected, a live
    #: one that did not take a diff until it has joined again; either
    #: is re-admitted only once it has joined the router's state.
    up: bool = True
    #: Process incarnation: 0 for the original spawn, +1 per respawn.
    generation: int = 0
    #: Recent death times (monotonic) inside the flap window.
    deaths: List[float] = field(default_factory=list)
    #: Lifetime death count (the flap window trims ``deaths``).
    total_deaths: int = 0
    #: Consecutive failed supervisor probes on a live process.
    probe_failures: int = 0
    #: A respawn or rejoin task currently owns this handle.
    respawning: bool = False
    #: Flap circuit: died too often, stays down until router restart.
    circuit_open: bool = False
    #: Human-readable cause of the most recent death.
    last_error: Optional[str] = None


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
class FleetRouter(LiveTier, FrontEnd):
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
        #: Graph file of a live fleet: the router loads it into the
        #: fleet's one coordinator.  ``None`` for a static fleet.
        self.live_graph_path = (
            str(live_graph_path) if live_graph_path is not None else None
        )
        #: Supervisor probe loop (None when probe_interval_s == 0).
        self._supervisor_task: Optional[asyncio.Task] = None
        #: In-flight respawn and rejoin tasks, cancelled on shutdown.
        self._respawn_tasks: set = set()
        #: The fleet's one result cache, as large as the workers'
        #: caches together; workers run without one.  Every hit is a
        #: query that never takes the router → worker hop.
        self.cache = ResultCache(
            num_workers * self.config.cache_size, recorder=self.recorder
        )
        #: Seqlock over commits (update, reload, rebuilt base): odd
        #: while one is in flight, and moved by its start and end.  See
        #: :meth:`_cacheable`.
        self._generation = 0
        #: Serializes commits and joins, so every worker takes the
        #: router's versions in order.
        self._commit_lock = asyncio.Lock()
        #: The index the workers serve, mapped by the router too (the
        #: same v4 file, so one copy in the page cache) — on a live
        #: fleet the coordinator's :class:`LiveIndex` over it — and
        #: the file's path.  Cache misses are answered from it
        #: (:meth:`_local_answers`).
        self._index = None
        self._index_path: Optional[str] = None
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
        """Spawn the workers; while they start, map the index they
        serve (on a live fleet, recover the live tier from the WAL);
        join them to it; bind the front port."""
        loop = asyncio.get_running_loop()
        live = self.live_graph_path is not None
        for worker_id in range(self.num_workers):
            spec = self._worker_spec(worker_id, generation=0)
            process, parent_conn = self._spawn_process(spec)
            self.workers.append(
                _Worker(worker_id, process, parent_conn, spec=spec)
            )
        opening = loop.run_in_executor(
            None, self._open_live if live else self._open_static
        )
        try:
            for worker in self.workers:
                message = await loop.run_in_executor(
                    None, self._await_ready, worker
                )
                if message[0] != "ready":
                    raise FleetError(
                        f"worker {worker.worker_id} failed to start: "
                        f"{message[1]}"
                    )
                worker.port = message[1]
            await opening
            if live:
                async with self._commit_lock:
                    for worker in self.workers:
                        await self._join(worker)
        except BaseException:
            await asyncio.gather(opening, return_exceptions=True)
            await self._terminate_workers()
            raise
        await self._listen()
        if self.config.probe_interval_s > 0:
            self._supervisor_task = loop.create_task(self._supervise())
        return self

    def _open_static(self) -> None:
        """Map the index the workers serve (a thread)."""
        from repro.core.serialize import load_index

        self._index = load_index(self.index_path, verify=True)
        self._index_path = self.index_path

    def _open_live(self) -> None:
        """Load the graph and the index into the fleet's one coordinator,
        recovered from ``--wal-dir`` when one is given (a thread)."""
        from repro.core.serialize import load_index
        from repro.faults import FaultPlan
        from repro.graph.io import read_graph_auto
        from repro.live import UpdateCoordinator, recover_coordinator

        graph = read_graph_auto(self.live_graph_path)
        index = load_index(self.index_path, verify=True)
        threshold = self.config.overlay_threshold
        base_path = self.index_path
        if self.config.wal_dir is None:
            updates = UpdateCoordinator(
                graph, index, overlay_threshold=threshold,
                recorder=self.recorder,
            )
        else:
            _refuse_worker_logs(self.config.wal_dir)
            updates, recovery = recover_coordinator(
                self.config.wal_dir,
                graph,
                index,
                overlay_threshold=threshold,
                recorder=self.recorder,
                fault_plan=FaultPlan.parse(
                    self.fault_spec, seed=self.fault_seed
                ) if self.fault_spec else None,
            )
            # A rotated WAL may pin a rebuilt base: the overlay sits on
            # that file, and the workers open it when they join.
            base_path = recovery.base_path or base_path
        self._init_live(updates)
        self._index = updates.live_index
        self._index_path = base_path

    def _worker_spec(self, worker_id: int, generation: int) -> WorkerSpec:
        return WorkerSpec(
            worker_id=worker_id,
            # The file the router serves now: a respawn after a reload
            # or a rebuild opens the same one.
            index_path=self._index_path or self.index_path,
            # The router owns the cache, the pair sketch and the live
            # tier; a live fleet's worker is a replica of its overlay.
            config=replace(
                self.config, host="127.0.0.1", port=0, cache_size=0,
                top_pairs_capacity=0, wal_dir=None,
                live_updates=self.live_graph_path is not None,
            ),
            fault_spec=self.fault_spec,
            # Distinct seeds: workers fault independently, not in
            # lockstep — one bad draw must not take out the fleet —
            # and every respawned generation rolls new dice.
            fault_seed=self.fault_seed + worker_id + 7919 * generation,
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
            # Let an in-flight rebuild land: its base swap is committed
            # to the WAL and about to be joined by every worker.
            await asyncio.gather(rebuild, return_exceptions=True)
        await self._drain_connections()
        for worker in self.workers:
            self._close_pool(worker)
        await self._terminate_workers()
        await self._stop_live()
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
        loop, and a failed fan-out can all report the same death.
        Ejection is immediate — queries re-dispatch to the survivors,
        so availability degrades but correctness never does.
        """
        if worker.up:
            worker.up = False
            self._mark_dead(worker, reason)

    def _mark_dead(self, worker: _Worker, reason: str) -> None:
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

        The replacement cold-starts from the mmap'd base the router
        serves, and is re-admitted only once a readiness probe answers
        200 and it has joined the router's state.
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
            message = await asyncio.get_running_loop().run_in_executor(
                None, self._await_ready, worker
            )
            if message[0] != "ready":
                raise FleetError(
                    f"worker {worker.worker_id} respawn failed: "
                    f"{message[1]}"
                )
            worker.port = message[1]
            status, _, _body = await self._upstream(
                worker, "GET", "/health", resend=True
            )
            if status != 200:
                raise FleetError(
                    f"worker {worker.worker_id} readiness probe answered "
                    f"HTTP {status}"
                )
            await self._admit(worker)
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

    # ------------------------------------------------------------------
    # joining the router's live state
    # ------------------------------------------------------------------
    def _state_body(self) -> bytes:
        """The router's whole live state as an install body."""
        from repro.live.overlay import patch_rows

        state = self.updates.live_index.state
        return json.dumps(
            {
                "base": self._index_path,
                "epoch": state.epoch,
                "seqno": state.seqno,
                "patches": patch_rows(state.patches),
            },
            separators=(",", ":"),
        ).encode()

    async def _join(self, worker: _Worker) -> None:
        """Install the router's whole state on ``worker``.  The caller
        holds the commit lock, so no diff slips between this state and
        the next; raises :class:`FleetError` when the worker refuses."""
        status, _, payload = await self._upstream(
            worker, "POST", "/admin/install", self._state_body(),
            resend=True,
        )
        if status != 200:
            raise FleetError(
                f"worker {worker.worker_id} did not join: HTTP {status} "
                f"{payload.decode('latin-1', 'replace')[:200]}"
            )

    async def _admit(self, worker: _Worker) -> None:
        """Put ``worker`` back in rotation.  A live fleet's worker joins
        first, and is marked up under the same commit lock, so it takes
        every diff committed after the state it joined."""
        async with self._commit_lock:
            if self.updates is not None:
                await self._join(worker)
            worker.up = True

    def _settle(self, outcomes, what: str) -> int:
        """Count the workers that took a fan-out to ``/admin/install``;
        a worker that died is ejected (and respawns), one still alive
        that did not take it is ejected until it has joined."""
        done = 0
        for worker, outcome in outcomes:
            if not isinstance(outcome, BaseException) and outcome[0] == 200:
                done += 1
            elif _died(worker, outcome):
                self._on_worker_death(worker, f"died mid-{what}: {outcome}")
            elif worker.up:
                worker.up = False
                worker.last_error = f"{what} failed: {_detail(outcome)}"
                self._close_pool(worker)
                if self._draining:
                    continue
                self.recorder.incr("fleet.worker.rejoins")
                task = asyncio.get_running_loop().create_task(
                    self._rejoin(worker)
                )
                self._respawn_tasks.add(task)
                task.add_done_callback(self._respawn_tasks.discard)
        return done

    async def _rejoin(self, worker: _Worker) -> None:
        """Join an ejected live worker again; one that cannot join is
        replaced like a dead one (killed, then respawned)."""
        worker.respawning = True
        try:
            await self._admit(worker)
            worker.last_error = None
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if worker.process.is_alive():
                worker.process.kill()
            self._mark_dead(worker, f"could not rejoin: {exc}")
        finally:
            worker.respawning = False

    @contextlib.asynccontextmanager
    async def _commit_window(self):
        """One commit at a time, under the seqlock: the generation is
        odd while it runs, so no answer computed across it is cached
        (:meth:`_cacheable`)."""
        async with self._commit_lock:
            self._generation += 1
            try:
                yield
            finally:
                self._generation += 1

    async def _publish_batch(self, report) -> dict:
        """Install an applied batch's diff on every live worker."""
        from repro.live.overlay import patch_rows

        body = json.dumps(
            {
                "epoch": report.epoch,
                "seqno": report.seqno,
                "changed": patch_rows(report.changed),
            },
            separators=(",", ":"),
        ).encode()
        outcomes = await self._fanout("POST", "/admin/install", body)
        return {"workers": self._settle(outcomes, "install")}

    async def _adopt_rebuilt(self, new_index, base_seqno: int) -> dict:
        """Save a rebuilt base next to the served index and open it from
        there (the pages the workers will map); then, in one commit,
        adopt it — the WAL's new epoch file pins its path — and join
        every live worker to the new state."""
        from repro.core.serialize import load_index, save_index

        loop = asyncio.get_running_loop()
        epoch = self.updates.live_index.state.epoch + 1
        path = f"{self.index_path}.epoch-{epoch}"

        def _save_and_open():
            save_index(new_index, path, format="binary")
            return load_index(path, verify=True)

        mapped = await loop.run_in_executor(
            self._rebuild_executor, _save_and_open
        )
        async with self._commit_window():
            info = await loop.run_in_executor(
                self._update_executor,
                self.updates.adopt_base, mapped, base_seqno, path,
            )
            self._index_path = path
            outcomes = await self._fanout(
                "POST", "/admin/install", self._state_body(), resend=True
            )
            self._settle(outcomes, "join")
        return info

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
    # the router's own index
    # ------------------------------------------------------------------
    async def _open_index(self, path: str):
        """``path`` opened and checksummed end to end, off the loop —
        the same ``load_index(path, verify=True)`` a worker runs."""
        from repro.core.serialize import load_index

        return await asyncio.get_running_loop().run_in_executor(
            None, functools.partial(load_index, path, verify=True)
        )

    def _local_answers(self, pairs) -> List[Optional[QueryResult]]:
        """Answers to cache-missed ``pairs`` from the router's own index,
        ``None`` where a worker must answer.

        The router serves what its workers serve — the same file, and
        on a live fleet the overlay it installs on them — so a pair is
        answered here unless its scan raises (an unknown vertex): that
        one is left to a worker, so error answers stay the workers'
        own.  With every worker down the fleet is down: nothing is
        answered here.  Only the first ``queue_high_water`` pairs of
        one request are scanned here, on the loop; the rest go to the
        workers, whose admission control bounds them.
        """
        answers: List[Optional[QueryResult]] = [None] * len(pairs)
        if self._first_live() is None:
            return answers
        index = self._index
        batch = list(pairs[: self.config.queue_high_water])
        try:
            results = index.query_batch(batch)
        except Exception:
            results = [_query_or_none(index, pair) for pair in batch]
        cacheable = self._cacheable(self._generation)
        local = 0
        for slot, result in enumerate(results):
            if result is not None:
                answers[slot] = result
                local += 1
                if cacheable:
                    self.cache.put(*batch[slot], result)
        if local:
            self.recorder.incr("fleet.answers.local", local)
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
                return await self._handle_update(
                    request, request.headers.get("x-request-id")
                )
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
        are skipped — they join the router's state when they come
        back."""
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
        if self.updates is not None:
            self._live_gauges()
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
        if self.updates is not None:
            payload["live"] = self._live_stats()
        payload["cache"] = self.cache.snapshot()
        if self.top_pairs is not None:
            payload["top_pairs"] = self.top_pairs.block()
        return 200, payload, ()

    def _per_worker_rows(self, stats: Dict[int, dict]) -> List[dict]:
        """One freshness/throughput row per reporting worker.

        On a live fleet ``epoch_lag``/``seqno_lag`` are how far a
        worker's installed overlay is behind the router's version — a
        worker behind it would serve stale counts, and ``repro-spc
        top`` renders exactly these rows.
        """
        version = None
        if self.updates is not None:
            state = self.updates.live_index.state
            version = (state.epoch, state.seqno)
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
            live = parsed.get("live")
            if version is not None and isinstance(live, dict):
                epoch = live.get("epoch", 0)
                seqno = live.get("seqno", 0)
                row["epoch"] = epoch
                row["seqno"] = seqno
                row["epoch_lag"] = version[0] - epoch
                row["seqno_lag"] = version[1] - seqno
            rows.append(row)
        return rows

    def _answers_snapshot(self) -> dict:
        """Who answered the cache misses — the router's own index or a
        worker — and the file the router maps."""
        counters = self.recorder.counters

        def count(name: str) -> int:
            counter = counters.get(name)
            return counter.value if counter is not None else 0

        return {
            "local": count("fleet.answers.local"),
            "forwarded": count("fleet.answers.forwarded"),
            "index_path": self._index_path,
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
        if self.updates is not None:
            return 409, {
                "reloaded": False,
                "error": "live-update fleet: a reload would desynchronize "
                "the delta overlay from the served labels; the overlay "
                "threshold's rebuild-and-swap replaces the base instead",
            }, ()
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

    async def _commit(self, path: str) -> List[Tuple[_Worker, object]]:
        """The reload's commit fan-out, in one commit window: before it
        closes, the cache empties and the router swaps in the index it
        staged."""
        async with self._commit_window():
            committed: List[Tuple[_Worker, object]] = []
            try:
                committed = await self._fanout("POST", path, b"{}")
            finally:
                self.cache.clear()
                if self._staged is not None:
                    self._index, self._index_path = self._staged
                    self._staged = None
        return committed

    def _phase_failures(
        self, outcomes: Sequence[Tuple[_Worker, object]]
    ) -> List[str]:
        """Per-worker error strings from one fan-out's outcomes.

        A worker whose *process died* mid-phase is not a failure: it is
        ejected (and queued for respawn) and the phase proceeds on the
        survivors — a crash must degrade capacity, not block a reload.
        """
        failures = []
        for worker, outcome in outcomes:
            if isinstance(outcome, BaseException) and _died(worker, outcome):
                self._on_worker_death(worker, f"died mid-fanout: {outcome}")
            elif isinstance(outcome, BaseException) or outcome[0] != 200:
                failures.append(
                    f"worker {worker.worker_id}: {_detail(outcome)}"
                )
        return failures


def _died(worker: _Worker, outcome) -> bool:
    """Whether a fan-out failed on ``worker`` because its process died:
    it is ejected, and respawns, instead of failing the phase."""
    return isinstance(outcome, FleetError) and (
        not worker.up or not worker.process.is_alive()
    )


def _detail(outcome) -> str:
    """Why one worker's fan-out outcome was not a 200."""
    if isinstance(outcome, BaseException):
        return str(outcome)
    status, _, payload = outcome
    try:
        return json.loads(payload).get("error", "") or f"HTTP {status}"
    except (ValueError, AttributeError):
        return payload.decode("latin-1", "replace")[:200]


def _query_or_none(index, pair) -> Optional[QueryResult]:
    """``index``'s answer to one pair, ``None`` if its scan raises."""
    try:
        return index.query(*pair)
    except Exception:
        return None


def _refuse_worker_logs(wal_dir: str) -> None:
    """Refuse a WAL directory an older fleet left: one log per worker
    under ``worker-<id>/`` and none at the top.  Starting from it would
    begin at the original base and drop every batch they acknowledged."""
    from repro.live.wal import WriteAheadLog

    if WriteAheadLog.epoch_files(wal_dir):
        return
    old = sorted(
        path.name
        for path in Path(wal_dir).glob("worker-*")
        if WriteAheadLog.epoch_files(path)
    )
    if old:
        raise FleetError(
            f"WAL directory {wal_dir} holds per-worker logs "
            f"({', '.join(old)}) from an older fleet and no fleet log; "
            "starting would drop their batches (move one worker's "
            f"wal-*.log files up into {wal_dir} to recover from them)"
        )


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
class FleetThread(ServerThread):
    """Run a :class:`FleetRouter` on a daemon thread with its own loop.

    The fleet analogue of :class:`~repro.serve.runner.ServerThread`::

        with FleetThread(path, workers=2) as (host, port):
            report = replay(host, port, pairs)
    """

    front_end = FleetRouter
    thread_name = "spc-fleet"

    def __init__(
        self,
        index_path: str,
        workers: int,
        config: Optional[ServeConfig] = None,
        **router_kwargs,
    ) -> None:
        super().__init__(
            str(index_path), config, num_workers=workers, **router_kwargs
        )

    @property
    def router(self) -> Optional[FleetRouter]:
        return self.server

    def start(self, timeout: float = 120.0) -> Tuple[str, int]:
        return super().start(timeout)

    def stop(self, timeout: float = 60.0) -> None:
        super().stop(timeout)
