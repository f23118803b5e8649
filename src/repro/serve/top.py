"""``repro-spc top`` — a live terminal dashboard over a running server.

Polls ``GET /stats`` (the rolling SLO window) and ``GET /metrics`` (the
lifetime JSON snapshot) and renders both as one text frame: QPS and
latency percentiles over the window, error/shed/cache-hit rates, and
lifetime totals.  The
renderer is a pure function of the two payloads
(:func:`render_dashboard`), so tests drive it with fixture dicts and
the CLI just loops fetch → render → sleep.

Everything here is stdlib: :mod:`http.client` for the two GETs, ANSI
clear-screen for the live mode, ``--once`` for a single frame (usable
from scripts and the CI smoke job).
"""

from __future__ import annotations

import http.client
import json
import sys
import time
from typing import IO, Optional, Tuple

__all__ = ["fetch_json", "render_dashboard", "run_top"]

#: Clear screen + home — emitted between live frames.
_CLEAR = "\x1b[2J\x1b[H"



def fetch_json(
    host: str, port: int, path: str, timeout: float = 5.0
) -> Tuple[int, dict]:
    """One synchronous ``GET`` returning ``(status, decoded body)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        return response.status, (json.loads(body) if body else {})
    finally:
        conn.close()


def _fmt_ms(value: Optional[float]) -> str:
    return f"{value:9.3f}" if value is not None else "      n/a"


def _fmt_rate(value: Optional[float]) -> str:
    return f"{value * 100:6.2f}%" if value is not None else "    n/a"


def render_dashboard(
    stats: dict,
    metrics: dict,
    *,
    target: str = "",
    health_status: str = "",
) -> str:
    """One dashboard frame from the ``/stats`` + ``/metrics`` payloads."""
    counters = metrics.get("counters", {})
    window = stats.get("window")
    slo = stats.get("slo", {})
    cache = stats.get("cache", {})
    lines = []
    title = "repro-spc top"
    if target:
        title += f" — {target}"
    status_bits = []
    if health_status:
        status_bits.append(f"health {health_status}")
    if slo:
        status_bits.append(f"slo {slo.get('status', '?')}")
    uptime = stats.get("uptime_seconds")
    if uptime is not None:
        status_bits.append(f"up {uptime:.0f}s")
    if status_bits:
        title += "  [" + " · ".join(status_bits) + "]"
    lines.append(title)
    lines.append("=" * len(title))
    if window:
        lines.append(
            f"window {window['window_seconds']}s:"
            f"  qps {window['qps']:8.1f}"
            f"  requests {window['requests']}"
        )
        latency = window["latency_ms"]
        lines.append(
            "latency ms:"
            f"  p50 {_fmt_ms(latency['p50'])}"
            f"  p95 {_fmt_ms(latency['p95'])}"
            f"  p99 {_fmt_ms(latency['p99'])}"
        )
        lines.append(
            "rates:"
            f"  errors {_fmt_rate(window['error_rate'])}"
            f"  shed {_fmt_rate(window['shed_rate'])}"
            f"  cache-hit {_fmt_rate(window['cache_hit_rate'])}"
            f"  queue-peak {window['queue_depth_max']}"
        )
    else:
        lines.append("window: (SLO tracking disabled)")
    for breach in slo.get("breaches", []):
        lines.append(f"BREACH: {breach}")
    lines.append("")
    lines.append(
        "lifetime:"
        f"  requests {counters.get('serve.requests', 0)}"
        f"  ok {counters.get('serve.responses.ok', 0)}"
        f"  shed {counters.get('serve.shed', 0)}"
        f"  timeouts {counters.get('serve.timeouts', 0)}"
    )
    if cache:
        lines.append(
            "cache:"
            f"  size {cache.get('size', 0)}/{cache.get('capacity', 0)}"
            f"  hits {cache.get('hits', 0)}"
            f"  misses {cache.get('misses', 0)}"
            f"  hit-rate {cache.get('hit_rate', 0.0) * 100:.1f}%"
        )
    live = stats.get("live")
    if isinstance(live, dict):
        freshness = (
            f"  staleness {live['staleness_s']:.1f}s"
            if "staleness_s" in live
            else ""
        )
        lines.append(
            "live:"
            f"  epoch {live.get('epoch', 0)}"
            f"  seqno {live.get('seqno', 0)}"
            f"  overlay {live.get('overlay_entries', 0)}"
            + freshness
        )
    supervisor = stats.get("supervisor")
    if isinstance(supervisor, dict):
        lines.append(
            f"supervised: generation {supervisor.get('generation', '?')}"
            f"  pid {supervisor.get('pid', '?')}"
        )
    return "\n".join(lines) + "\n"


def run_top(
    host: str,
    port: int,
    *,
    interval: float = 2.0,
    once: bool = False,
    iterations: Optional[int] = None,
    out: Optional[IO[str]] = None,
) -> int:
    """Fetch-render loop; returns a process exit code.

    ``once`` prints a single frame without clearing the screen.
    ``iterations`` bounds the live loop (used by tests); ``None`` runs
    until interrupted.
    """
    stream = out if out is not None else sys.stdout
    target = f"{host}:{port}"
    frame = 0
    while True:
        try:
            _, stats = fetch_json(host, port, "/stats")
            _, metrics = fetch_json(host, port, "/metrics")
            health_code, health = fetch_json(host, port, "/health")
            health_status = health.get("status", f"http {health_code}")
        except (OSError, ValueError, http.client.HTTPException) as exc:
            # HTTPException covers non-HTTP peers (BadStatusLine,
            # RemoteDisconnected) — without it a port that answers but
            # does not speak HTTP produced a traceback instead of the
            # one-line error scripts and the CI smoke job assert on.
            print(f"repro-spc top: cannot reach {target}: {exc}",
                  file=sys.stderr)
            return 1
        text = render_dashboard(
            stats, metrics, target=target, health_status=health_status
        )
        if once:
            stream.write(text)
            return 0
        stream.write(_CLEAR + text)
        stream.flush()
        frame += 1
        if iterations is not None and frame >= iterations:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
    return 0
