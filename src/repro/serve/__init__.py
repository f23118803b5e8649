"""Concurrent query serving: HTTP front end over the batch kernel.

A query is answered on the event loop the moment it is read: result
cache, then one :meth:`SPCIndex.query_batch` call over the request's
misses (one pair for a GET, the whole batch for a POST ``pairs`` body),
then encode.  The CTLS scan costs a few microseconds, less than any
queueing around it would, so nothing waits for it; instead a
connection writes all the answers that became ready in one loop tick
in one socket write, which is what a pipelining client needs.  The
single server and the fleet router answer through the same function,
:func:`repro.serve.server.scan_answers`.

Layers, innermost first:

* :mod:`repro.serve.cache` — LRU result cache on normalized
  ``(min(s, t), max(s, t))`` keys (queries are symmetric).
* :mod:`repro.serve.http` — minimal stdlib HTTP/1.1 framing over
  asyncio streams.
* :mod:`repro.serve.frontend` — the client-facing HTTP front end
  (pipelined connection loop, drain, trace sampling, ``/metrics``
  negotiation) that the server and the fleet router share.
* :mod:`repro.serve.server` — :class:`SPCServer`: routing, the one
  answer path, admission control (load shedding), the circuit
  breaker's fallback with its deadline, request correlation
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
