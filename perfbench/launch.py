"""``repro-spc`` with spans around each layer's public entry points.

``python perfbench/launch.py <repro-spc arguments>`` runs the CLI
unchanged except that the calls listed in :data:`TARGETS` are timed.
multiprocessing's spawn start method re-imports this file (as
``__mp_main__``) in every fleet worker, so the module-level
:func:`install` reaches the workers as well as the router.

Each span records name, start, end, its own id, the id of the span that
caused it and the request id (``X-Request-Id``) of the connection that
made it.  Spans stay in memory and are written at exit to
``$PERFBENCH_TRACE_DIR/spans-<pid>.json``; ``traced.py`` merges them
into one Chrome trace.  Without that variable nothing is installed.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

TRACE_ENV = "PERFBENCH_TRACE_DIR"

#: ``(module, attribute path, span name, modules that imported it by name)``.
#: Only public functions, plus the server's byte-level ``/query`` parse,
#: which is where a single server reads the hot request shape.
TARGETS = (
    ("repro.core.ctl", "CTLIndex.build", "core.build", ()),
    ("repro.core.ctls", "CTLSIndex.build", "core.build", ()),
    ("repro.core.serialize", "save_index", "serialize.save_index",
     ("repro.cli",)),
    ("repro.core.serialize", "load_index", "serialize.load_index",
     ("repro.cli",)),
    ("repro.serve.fleet", "FleetRouter.start", "fleet.start", ()),
    ("repro.serve.http", "parse_request", "http.parse_request",
     ("repro.serve.server", "repro.serve.fleet")),
    ("repro.serve.server", "SPCServer._fast_query", "http.fast_query", ()),
    ("repro.serve.http", "response_bytes", "http.response_bytes",
     ("repro.serve.server", "repro.serve.fleet")),
    ("repro.core.ctl", "CTLIndex.query_batch", "index.query_batch", ()),
    ("repro.core.ctls", "CTLSIndex.query_batch", "index.query_batch", ()),
    ("repro.live.overlay", "LiveIndex.query_batch", "live.query_batch", ()),
    ("repro.live.overlay", "patched_scan", "live.patched_scan", ()),
    ("repro.serve.cache", "ResultCache.get", "cache.get", ()),
    ("repro.live.coordinator", "UpdateCoordinator.validate_batch",
     "live.validate_batch", ()),
    ("repro.live.coordinator", "UpdateCoordinator.apply_batch",
     "live.apply_batch", ()),
    ("repro.live.wal", "WriteAheadLog.append_batch", "live.wal.append_batch",
     ()),
)

#: Spans whose ``items`` is the number of pairs in their batch.
BATCHED = {"index.query_batch", "live.query_batch"}

#: Spans kept per name for the Chrome trace; totals count every span.
KEEP_PER_NAME = 2000


class SpanRecorder:
    """In-memory spans of one process.

    Every span adds to its name's ``totals`` entry ``[calls, self ns,
    items]``, where self time is the span's duration minus the time its
    child spans took; the first :data:`KEEP_PER_NAME` spans of each name
    are also kept whole for the trace.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.totals: dict = {}
        self._child_ns: dict = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._prefix = os.getpid() << 24
        self.current = contextvars.ContextVar("perfbench_span", default=0)
        self.request_id = contextvars.ContextVar("perfbench_rid", default=None)

    def _begin(self):
        span_id = self._prefix | next(self._ids)
        return span_id, self.current.get(), self.current.set(span_id)

    def _end(self, name, start, span_id, parent, token, items) -> None:
        end = time.perf_counter_ns()
        self.current.reset(token)
        duration = end - start
        # Scans run on the server's executor thread beside the event loop.
        with self._lock:
            if parent:
                self._child_ns[parent] = (
                    self._child_ns.get(parent, 0) + duration)
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0, 0]
            total[0] += 1
            total[1] += duration - self._child_ns.pop(span_id, 0)
            total[2] += items
            keep = total[0] <= KEEP_PER_NAME
        if keep:
            self.spans.append((name, start, end, span_id, parent,
                               self.request_id.get(),
                               threading.get_native_id(), items))

    def wrap(self, name: str, fn):
        items_of = (lambda a: len(a[1])) if name in BATCHED else (lambda a: 1)
        rid_of = _RID_OF.get(name)
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id, parent, token = self._begin()
                start = time.perf_counter_ns()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._end(name, start, span_id, parent, token,
                              items_of(args))
                if rid_of is not None:
                    self.request_id.set(rid_of(args, result))
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, token = self._begin()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(name, start, span_id, parent, token, items_of(args))
            if rid_of is not None:
                self.request_id.set(rid_of(args, result))
            return result
        return traced

    def dump(self, directory: str, role: str) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "role": role,
                       "totals": self.totals, "spans": self.spans}, handle)


def _rid_from_request(args, request):
    return request.headers.get("x-request-id")


def _rid_from_head(args, result):
    head = args[1]
    mark = head.find(b"X-Request-Id:")
    if mark < 0:
        return None
    return head[mark + 13 : head.index(b"\r", mark)].strip().decode("latin-1")


#: How a parse span learns the request id its connection now serves.
_RID_OF = {"http.parse_request": _rid_from_request,
           "http.fast_query": _rid_from_head}


def install(recorder: SpanRecorder) -> None:
    """Replace every target with its traced wrapper, in place."""
    for module_name, path, name, importers in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__)))
            continue
        wrapped = recorder.wrap(name, raw)
        setattr(owner, attr, wrapped)
        for importer in importers:
            setattr(importlib.import_module(importer), attr, wrapped)


def _role() -> str:
    if __name__ == "__main__":
        return sys.argv[1] if len(sys.argv) > 1 else "cli"
    return "worker"


if os.environ.get(TRACE_ENV):
    # Runs in the launching process and, through spawn's re-import of
    # the main module, in every fleet worker.
    RECORDER = SpanRecorder()
    install(RECORDER)
    atexit.register(RECORDER.dump, os.environ[TRACE_ENV], _role())


if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
