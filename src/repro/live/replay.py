"""Timestamped delta files and the update-replay streaming client.

Wire format — JSON lines, one delta batch per line::

    {"at": 0.0, "updates": [[4, 17, 9], [17, 23, 4]]}
    {"at": 1.5, "updates": [[4, 17, 7]]}

``at`` is the batch's offset in seconds from the start of the recording
and ``updates`` lists ``[a, b, new_weight]`` edge-weight writes.  Blank
lines and ``#`` comment lines are ignored, so files can be annotated.

:func:`stream_deltas` replays such a file against a live server's
``POST /admin/update`` at the recorded rate (or faster/slower via the
``speed`` multiplier; ``speed=0`` streams as fast as the server
acknowledges).  Each POST is synchronous: a batch is only "sent" once
the server confirmed the repair landed, which is what makes replay
reports' epoch/seqno trajectories meaningful.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import LiveUpdateError, ParseError
from repro.graph.graph import Graph
from repro.types import Vertex, Weight

PathLike = Union[str, Path]


@dataclass(frozen=True)
class DeltaBatch:
    """One batch of edge-weight updates at a recorded time offset."""

    at: float
    updates: Tuple[Tuple[Vertex, Vertex, Weight], ...]


@dataclass
class UpdateStreamReport:
    """Outcome of one :func:`stream_deltas` run."""

    batches_sent: int = 0
    batches_failed: int = 0
    updates_sent: int = 0
    #: Wall-clock seconds per acknowledged batch (HTTP round trip).
    apply_latencies: List[float] = field(default_factory=list)
    #: Last epoch/seqno acknowledged by the server.
    last_epoch: int = 0
    last_seqno: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.batches_failed == 0


def read_delta_file(path: PathLike) -> List[DeltaBatch]:
    """Parse a JSON-lines delta file; batches sorted by time offset."""
    batches: List[DeltaBatch] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"invalid JSON in delta file: {exc}", line_number
                ) from None
            if not isinstance(payload, dict):
                raise ParseError(
                    "delta batch must be a JSON object", line_number
                )
            at = payload.get("at", 0.0)
            if not isinstance(at, (int, float)) or isinstance(at, bool):
                raise ParseError(
                    f"batch 'at' must be a number, got {at!r}", line_number
                )
            raw = payload.get("updates")
            if not isinstance(raw, list) or not raw:
                raise ParseError(
                    "batch 'updates' must be a non-empty list", line_number
                )
            updates = []
            for item in raw:
                if (
                    not isinstance(item, (list, tuple))
                    or len(item) != 3
                ):
                    raise ParseError(
                        f"update must be [a, b, weight], got {item!r}",
                        line_number,
                    )
                updates.append(tuple(item))
            batches.append(DeltaBatch(float(at), tuple(updates)))
    batches.sort(key=lambda batch: batch.at)
    return batches


def write_delta_file(path: PathLike, batches: Sequence[DeltaBatch]) -> None:
    """Write batches as JSON lines (the :func:`read_delta_file` format)."""
    with open(path, "w", encoding="utf-8") as handle:
        for batch in batches:
            handle.write(
                json.dumps(
                    {
                        "at": batch.at,
                        "updates": [list(update) for update in batch.updates],
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


def synthesize_deltas(
    graph: Graph,
    *,
    batches: int,
    edges_per_batch: int = 4,
    interval_s: float = 1.0,
    seed: int = 0,
) -> List[DeltaBatch]:
    """Random weight-delta batches over a graph's existing edges.

    Weights are drawn from ``[1, 2 * w_max]`` so the stream mixes
    increases and decreases; used by CI smoke jobs and benchmarks.
    """
    edges = [(u, v, w) for u, v, w, _ in graph.edges()]
    if not edges:
        raise LiveUpdateError("cannot synthesize deltas: graph has no edges")
    rng = random.Random(seed)
    w_max = max(w for _, _, w in edges)
    high = max(2, int(2 * w_max))
    result: List[DeltaBatch] = []
    for i in range(batches):
        updates = tuple(
            (u, v, rng.randint(1, high))
            for u, v, _ in rng.sample(edges, min(edges_per_batch, len(edges)))
        )
        result.append(DeltaBatch(round(i * interval_s, 6), updates))
    return result


def stream_deltas(
    host: str,
    port: int,
    batches: Sequence[DeltaBatch],
    *,
    speed: float = 1.0,
    timeout_s: float = 30.0,
    on_batch: Optional[Callable[[int, dict], None]] = None,
) -> UpdateStreamReport:
    """POST each batch to ``/admin/update`` at the recorded rate.

    ``speed`` scales the recorded timeline (2.0 = twice as fast,
    ``0`` = no pacing).  A batch whose connection breaks (a server
    restart) is resent once on a fresh one: the writes are absolute,
    so a batch that landed before the break applies again as a no-op.
    Failed batches are recorded and streaming continues, mirroring how
    a real traffic feed outlives one bad message.
    ``on_batch(index, response_payload)`` fires per 200.
    """
    report = UpdateStreamReport()
    if not batches:
        return report
    connection = http.client.HTTPConnection(host, port, timeout=timeout_s)
    origin = batches[0].at
    started = time.monotonic()
    try:
        for i, batch in enumerate(batches):
            if speed > 0:
                due = started + (batch.at - origin) / speed
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            body = json.dumps(
                {"updates": [list(update) for update in batch.updates]}
            ).encode()
            sent = time.perf_counter()
            for _ in range(2):
                try:
                    connection.request(
                        "POST",
                        "/admin/update",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    raw = response.read()
                    status = response.status
                    break
                except (OSError, http.client.HTTPException) as exc:
                    error = exc
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout_s
                    )
            else:
                report.batches_failed += 1
                report.errors.append(f"batch {i}: {error}")
                continue
            elapsed = time.perf_counter() - sent
            if status != 200:
                report.batches_failed += 1
                detail = raw.decode("utf-8", "replace")[:200]
                report.errors.append(f"batch {i}: HTTP {status} {detail}")
                continue
            report.batches_sent += 1
            report.updates_sent += len(batch.updates)
            report.apply_latencies.append(elapsed)
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                payload = {}
            report.last_epoch = int(payload.get("epoch", report.last_epoch))
            report.last_seqno = int(payload.get("seqno", report.last_seqno))
            if on_batch is not None:
                on_batch(i, payload)
    finally:
        connection.close()
    return report
