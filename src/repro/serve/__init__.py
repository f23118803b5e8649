"""Concurrent query serving: HTTP front end over the batch kernel.

The indexes answer ``Q(s, t)`` fastest through :meth:`SPCIndex.query_batch`
(one vectorised arena scan amortises id and LCA resolution), but a
network server receives queries one at a time.  This package closes the
gap with a **micro-batching coalescer**: concurrent in-flight requests
are gathered for a bounded window (``max_batch`` requests or
``max_wait_us`` microseconds, whichever first) and resolved in a single
``query_batch`` call, so throughput under load approaches the batch
kernel rather than the per-pair path.

Layers, innermost first:

* :mod:`repro.serve.cache` — LRU result cache on normalized
  ``(min(s, t), max(s, t))`` keys (queries are symmetric).
* :mod:`repro.serve.coalescer` — the :class:`MicroBatcher` turning
  awaitable single submissions into ``query_batch`` calls on a worker
  thread.
* :mod:`repro.serve.http` — minimal stdlib HTTP/1.1 framing over
  asyncio streams.
* :mod:`repro.serve.frontend` — the client-facing HTTP front end
  (pipelined connection loop, drain, trace sampling, ``/metrics``
  negotiation) that the server and the fleet router share.
* :mod:`repro.serve.server` — :class:`SPCServer`: routing, admission
  control (load shedding), per-request deadlines, request correlation
  ids + structured request logging, ``/health`` (SLO-aware readiness),
  ``/metrics`` (JSON or Prometheus text), ``/stats`` (rolling SLO
  window), graceful drain on SIGTERM.
* :mod:`repro.serve.client` — workload-replay load generator reporting
  achieved QPS, latency percentiles, and request-id echo errors.
* :mod:`repro.serve.runner` — :class:`ServerThread`, a helper running a
  server on a daemon thread (tests, benchmarks, examples).
* :mod:`repro.serve.fleet` — ``serve --workers N``: a router over N
  worker processes sharing one mmap'd index through the OS page cache,
  with one result cache, aggregated ``/metrics``/``/health`` and a
  two-phase fleet-wide ``/admin/reload``.
* :mod:`repro.serve.top` — ``repro-spc top``, a polling terminal
  dashboard over ``/stats`` + ``/metrics`` (per-worker rows against a
  fleet router).
* :mod:`repro.serve.analyze` — ``repro-spc analyze``, the workload
  analytics report over the Space-Saving ``top_pairs`` block.

Start one from the command line with ``repro-spc serve index.bin`` and
read :doc:`docs/serving.md </serving>` for the protocol and the knobs.
"""

from repro.serve.analyze import render_analysis
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ResultCache
from repro.serve.client import LoadReport, RetryPolicy, replay, run_workload
from repro.serve.coalescer import MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.fleet import (
    FleetRouter,
    FleetThread,
    merge_metrics_snapshots,
)
from repro.serve.runner import ServerThread
from repro.serve.server import SPCServer
from repro.serve.top import render_dashboard, run_top

__all__ = [
    "CircuitBreaker",
    "FleetRouter",
    "FleetThread",
    "LoadReport",
    "MicroBatcher",
    "ResultCache",
    "RetryPolicy",
    "SPCServer",
    "ServeConfig",
    "ServerThread",
    "merge_metrics_snapshots",
    "render_analysis",
    "render_dashboard",
    "replay",
    "run_top",
    "run_workload",
]
