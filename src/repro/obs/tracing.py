"""Span events, trace contexts, Chrome trace-event export, and merges.

The export format is the Chrome trace-event JSON object form —
``{"traceEvents": [...]}`` with complete (``"ph": "X"``) events — which
both ``chrome://tracing`` and https://ui.perfetto.dev load directly.
Nesting in the viewer comes from time containment on the same
``pid``/``tid``; distributed captures additionally carry explicit
``trace_id``/``span_id``/``parent_id`` args so a request can be
followed across processes.

Three layers live here:

* **Process-local spans** — :class:`SpanEvent` plus
  :func:`chrome_trace_payload`/:func:`write_chrome_trace`, what the
  build recorder and ``repro-spc build --trace`` emit.
* **Distributed trace context** — :class:`TraceContext` implements the
  W3C ``traceparent`` shape (128-bit trace id, 64-bit parent span id,
  sampled flag) so a caller can hand a request's identity to the server
  over one HTTP header.
* **Cross-process capture** — each process keeps traced spans in a
  bounded :class:`SpanCollector` ring; :func:`merge_trace_fragments`
  aligns fragments from many processes onto one timeline.  Every
  producer timestamps against :data:`CLOCK_EPOCH` (one
  ``perf_counter`` origin per process) and a fragment reports the wall
  time of that origin (:func:`wall_clock_anchor`), which is the whole
  clock handshake: processes on one host share ``time.time()``, so
  shifting each fragment by its anchor puts all spans on a common
  timeline without any readiness-protocol changes.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

TRACE_CATEGORY = "repro"

#: Process-wide monotonic clock origin.  Every span producer in this
#: process — recorder spans, the traced-span collector, the sampling
#: profiler — measures ``perf_counter() - CLOCK_EPOCH``, so their
#: events line up on one timeline in a merged Chrome trace.
CLOCK_EPOCH = time.perf_counter()

#: The hop header that carries a :class:`TraceContext` (W3C name).
TRACEPARENT_HEADER = "traceparent"

_TRACE_ID_LEN = 32  # 128-bit trace id, lowercase hex
_SPAN_ID_LEN = 16  # 64-bit span id, lowercase hex
_HEX = set("0123456789abcdef")


def wall_clock_anchor() -> float:
    """Unix wall time corresponding to this process's :data:`CLOCK_EPOCH`.

    Fragments from different processes are aligned by their anchors at
    merge time (see :func:`merge_trace_fragments`); computing the
    anchor fresh per capture keeps it immune to NTP steps that happened
    since process start.
    """
    return time.time() - (time.perf_counter() - CLOCK_EPOCH)


def new_span_id() -> str:
    """A fresh random 64-bit span id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


def _is_hex(value: str, length: int) -> bool:
    return len(value) == length and all(c in _HEX for c in value)


@dataclass(frozen=True)
class TraceContext:
    """One hop of a distributed trace: ``(trace id, span id, sampled)``.

    ``span_id`` names the *current* span — the one a downstream hop
    should use as its parent.  The wire form is the W3C
    ``traceparent`` header: ``00-<32 hex>-<16 hex>-<2 hex flags>``.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    @classmethod
    def generate(cls, sampled: bool = True) -> "TraceContext":
        """A fresh root context with random trace and span ids."""
        return cls(os.urandom(16).hex(), new_span_id(), sampled)

    def child(self) -> "TraceContext":
        """Same trace, new span id (one hop down)."""
        return TraceContext(self.trace_id, new_span_id(), self.sampled)

    def to_header(self) -> str:
        """The ``traceparent`` header value for this context."""
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id}-{self.span_id}-{flags}"

    @classmethod
    def parse(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` value; ``None`` if malformed.

        Strict per the W3C grammar: four dash-separated fields, a known
        (non-``ff``) two-hex-digit version, non-zero lowercase-hex ids.
        A malformed header is treated as absent, never as an error —
        tracing must not break request handling.
        """
        if not header:
            return None
        parts = header.strip().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, flags = parts
        if not _is_hex(version, 2) or version == "ff":
            return None
        if not _is_hex(trace_id, _TRACE_ID_LEN) or set(trace_id) == {"0"}:
            return None
        if not _is_hex(span_id, _SPAN_ID_LEN) or set(span_id) == {"0"}:
            return None
        if not _is_hex(flags, 2):
            return None
        return cls(trace_id, span_id, bool(int(flags, 16) & 0x01))


class SpanCollector:
    """Per-process bounded ring buffer of trace-correlated spans.

    Unlike the recorder's span list (which grows without bound and has
    no ids), the collector keeps the most recent ``capacity`` spans
    with their trace/span/parent ids, ready to be shipped as one
    *fragment* of a distributed capture.  Appends are O(1) and
    lock-guarded, so any thread of the process may record.
    """

    def __init__(self, capacity: int = 4096, *, role: str = "server"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.role = role
        self.recorded = 0
        self._spans: deque = deque(maxlen=capacity)
        self._lock = Lock()

    def __len__(self) -> int:
        return len(self._spans)

    def record(
        self,
        name: str,
        *,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str] = None,
        start: float,
        duration: float,
        attrs: Optional[dict] = None,
        tid: int = 1,
    ) -> None:
        """Record one completed span.

        ``start`` is a raw ``time.perf_counter()`` reading (the natural
        thing for callers to have on hand); it is re-based onto
        :data:`CLOCK_EPOCH` here so fragments are self-describing.
        """
        span = {
            "name": name,
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "start": start - CLOCK_EPOCH,
            "duration": duration,
            "tid": tid,
            "attrs": dict(attrs) if attrs else {},
        }
        with self._lock:
            self._spans.append(span)
            self.recorded += 1

    def fragment(self, *, clear: bool = False) -> dict:
        """This process's share of a distributed capture (JSON-ready)."""
        with self._lock:
            spans = list(self._spans)
            if clear:
                self._spans.clear()
        return {
            "pid": os.getpid(),
            "role": self.role,
            "wall_at_epoch": wall_clock_anchor(),
            "capacity": self.capacity,
            "recorded": self.recorded,
            "spans": spans,
        }


@dataclass
class SpanEvent:
    """One completed span: a named, timed section with attributes.

    ``start`` is seconds since the recorder epoch (the process-local
    :data:`CLOCK_EPOCH`); ``duration`` is seconds.
    """

    name: str
    start: float
    duration: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """``start + duration`` in epoch seconds."""
        return self.start + self.duration


def chrome_trace_payload(
    events: Iterable[SpanEvent], *, pid: int = None
) -> dict:
    """The Chrome trace-event JSON object for ``events``."""
    if pid is None:
        pid = os.getpid()
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": event.name,
                "cat": TRACE_CATEGORY,
                "ph": "X",
                "ts": round(event.start * 1e6, 3),
                "dur": round(event.duration * 1e6, 3),
                "pid": pid,
                "tid": 1,
                "args": dict(event.attrs),
            }
            for event in events
        ],
    }


def write_chrome_trace(
    path: Union[str, Path], events: Iterable[SpanEvent]
) -> None:
    """Write ``events`` to ``path`` as Chrome trace-event JSON."""
    with open(path, "w") as handle:
        json.dump(chrome_trace_payload(events), handle)


def merge_trace_fragments(fragments: Sequence[dict]) -> dict:
    """Merge per-process capture fragments into one Chrome trace.

    Each fragment is a :meth:`SpanCollector.fragment` dict.  Spans are
    shifted onto a shared timeline: fragment ``F``'s span at epoch
    offset ``s`` lands at ``(F.wall_at_epoch - base) + s`` seconds,
    where ``base`` is the earliest anchor across fragments — the clock
    handshake described in the module docstring.  Each process gets a
    ``process_name`` metadata event naming its role (``server``,
    ``cli``, ...), and every span's args carry its
    ``trace_id``/``span_id``/``parent_id`` so cross-process links
    survive the merge explicitly, not just by time containment.
    """
    frags = [
        f
        for f in fragments
        if isinstance(f, dict) and isinstance(f.get("wall_at_epoch"), (int, float))
    ]
    if not frags:
        return {"displayTimeUnit": "ms", "traceEvents": []}
    base = min(float(f["wall_at_epoch"]) for f in frags)
    events: List[dict] = []
    for frag in frags:
        pid = int(frag.get("pid", 0))
        offset = float(frag["wall_at_epoch"]) - base
        role = str(frag.get("role") or f"pid-{pid}")
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": role},
            }
        )
        for span in frag.get("spans", ()):
            if not isinstance(span, dict):
                continue
            args = dict(span.get("attrs") or {})
            args["trace_id"] = span.get("trace_id")
            args["span_id"] = span.get("span_id")
            if span.get("parent_id"):
                args["parent_id"] = span["parent_id"]
            events.append(
                {
                    "name": str(span.get("name", "span")),
                    "cat": TRACE_CATEGORY,
                    "ph": "X",
                    "ts": round(max(0.0, offset + float(span["start"])) * 1e6, 3),
                    "dur": round(max(0.0, float(span["duration"])) * 1e6, 3),
                    "pid": pid,
                    "tid": int(span.get("tid", 1)),
                    "args": args,
                }
            )
    events.sort(key=lambda e: (e.get("ts", -1.0), e.get("pid", 0)))
    return {"displayTimeUnit": "ms", "traceEvents": events}


def cross_process_links(payload: dict) -> List[Tuple[dict, dict]]:
    """``(parent event, child event)`` pairs that span two processes.

    Resolved through the explicit span ids in event args, so a merged
    capture can be *asserted* to link (the CI trace-smoke bar), not
    just eyeballed in a viewer.
    """
    events = [
        e
        for e in payload.get("traceEvents", [])
        if isinstance(e, dict) and e.get("ph") == "X"
    ]
    by_id: Dict[Tuple[str, str], dict] = {}
    for event in events:
        args = event.get("args") or {}
        trace_id, span_id = args.get("trace_id"), args.get("span_id")
        if trace_id and span_id:
            by_id[(trace_id, span_id)] = event
    links = []
    for event in events:
        args = event.get("args") or {}
        parent_id = args.get("parent_id")
        if not parent_id:
            continue
        parent = by_id.get((args.get("trace_id"), parent_id))
        if parent is not None and parent.get("pid") != event.get("pid"):
            links.append((parent, event))
    return links


def span_summary(events: Iterable[SpanEvent]) -> Dict[str, dict]:
    """Aggregate span timings per name (the flat JSON summary).

    Returns ``{name: {count, total_seconds, min_seconds, max_seconds}}``
    with names in first-seen order.
    """
    summary: Dict[str, dict] = {}
    for event in events:
        entry = summary.get(event.name)
        if entry is None:
            summary[event.name] = {
                "count": 1,
                "total_seconds": event.duration,
                "min_seconds": event.duration,
                "max_seconds": event.duration,
            }
        else:
            entry["count"] += 1
            entry["total_seconds"] += event.duration
            entry["min_seconds"] = min(entry["min_seconds"], event.duration)
            entry["max_seconds"] = max(entry["max_seconds"], event.duration)
    return summary


def validate_chrome_trace(payload: object) -> List[str]:
    """Schema-check a Chrome trace payload; returns a list of problems.

    An empty list means the payload is a well-formed object-format
    trace of complete events, plus the ``process_name`` metadata
    (``"ph": "M"``) events that merged fleet captures label their
    processes with.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            errors.append(f"{where}: missing 'name'")
        if "args" in event and not isinstance(event["args"], dict):
            errors.append(f"{where}: 'args' is not an object")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: '{key}' is not an integer")
        if event.get("ph") == "M":
            continue  # metadata events carry no timing
        if event.get("ph") != "X":
            errors.append(f"{where}: 'ph' is not 'X'")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"{where}: '{key}' is not a non-negative number")
    return errors
