"""Concurrent query serving: HTTP front end over the batch kernel.

A query is answered on the event loop the moment it is read: result
cache, then one :meth:`SPCIndex.query_batch` call over the request's
misses (one pair for a GET, the whole batch for a POST ``pairs`` body),
then encode.  The CTLS scan costs a few microseconds, less than any
queueing around it would, so nothing waits for it; instead a
connection writes all the answers that became ready in one loop tick
in one socket write, which is what a pipelining client needs.  One
process answers every query, alone or under ``serve --workers N``'s
supervisor.

Layers, innermost first:

* :mod:`repro.serve.cache` — LRU result cache on normalized
  ``(min(s, t), max(s, t))`` keys (queries are symmetric).
* :mod:`repro.serve.http` — minimal stdlib HTTP/1.1 framing over
  asyncio streams.
* :mod:`repro.serve.frontend` — the client-facing HTTP front end
  (pipelined connection loop, drain, trace sampling, ``/metrics``
  negotiation).
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
* :mod:`repro.serve.fleet` — ``serve --workers N``: the one answering
  server as the child of a small supervisor, which holds the listening
  socket, forwards signals and respawns the child (a live child
  recovers every acknowledged batch from its write-ahead log).
* :mod:`repro.serve.top` — ``repro-spc top``, a polling terminal
  dashboard over ``/stats`` + ``/metrics``.
* :mod:`repro.serve.analyze` — ``repro-spc analyze``, the workload
  analytics report over the Space-Saving ``top_pairs`` block.

Start one from the command line with ``repro-spc serve index.bin`` and
read :doc:`docs/serving.md </serving>` for the protocol and the knobs.
"""

import importlib

#: Where each public name is defined, imported on first access: the
#: ``serve --workers N`` supervisor imports :mod:`repro.serve.fleet`
#: and none of the serving stack it supervises.
_EXPORTS = {
    "CircuitBreaker": "repro.serve.breaker",
    "FleetRouter": "repro.serve.fleet",
    "LoadReport": "repro.serve.client",
    "ResultCache": "repro.serve.cache",
    "RetryPolicy": "repro.serve.client",
    "SPCServer": "repro.serve.server",
    "ServeConfig": "repro.serve.config",
    "ServerThread": "repro.serve.runner",
    "render_analysis": "repro.serve.analyze",
    "render_dashboard": "repro.serve.top",
    "replay": "repro.serve.client",
    "run_top": "repro.serve.top",
    "run_workload": "repro.serve.client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.serve' has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
