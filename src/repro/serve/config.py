"""Tunable knobs of the serving layer, validated in one place."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ReproError


class ServeConfigError(ReproError):
    """A serving configuration value is out of range."""


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one :class:`~repro.serve.server.SPCServer`
    (and of the :class:`~repro.serve.fleet.FleetRouter` supervising it
    under ``serve --workers N``)."""

    #: Interface to bind; loopback by default.
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it back off the server).
    port: int = 8355
    #: LRU result-cache capacity in entries; 0 disables caching.
    cache_size: int = 4096
    #: Shed (HTTP 503) a POST batch of more pairs than this, and a
    #: fallback query once this many fallback queries are waiting.
    queue_high_water: int = 256
    #: Deadline of a fallback query (HTTP 504 past it).
    request_timeout_ms: int = 1000
    #: Seconds to wait for in-flight connections during graceful drain.
    drain_grace_s: float = 5.0
    #: Structured JSON-lines request log destination: a path, ``"-"``
    #: for stderr, or ``None`` (default) to disable logging entirely.
    access_log: Optional[str] = None
    #: Latency above which a request also emits a ``slow_query`` record.
    slow_query_ms: float = 100.0
    #: Keep 1 in N access records for fast 200s (1 = log everything,
    #: 0 = log only slow/non-200 requests); slow and failed requests
    #: are always logged.
    log_sample_every: int = 1
    #: Seed of the deterministic access-log sampler.
    log_seed: int = 0
    #: Rolling SLO window length in seconds; 0 disables window
    #: tracking (``/stats`` then reports no window and readiness never
    #: degrades).
    slo_window_s: int = 30
    #: Readiness objective: degrade when windowed p99 latency exceeds
    #: this many milliseconds (0 disables the objective).
    slo_p99_ms: float = 0.0
    #: Readiness objective: degrade when the windowed error rate
    #: exceeds this fraction (0 disables the objective).
    slo_error_rate: float = 0.0
    #: Trip the scan circuit breaker after this many *consecutive*
    #: request failures on the index path (0 disables the breaker).
    #: While open, ``/health`` degrades and queries route to the
    #: fallback index when one is configured.
    breaker_threshold: int = 10
    #: Seconds between index probes while the breaker is open; a
    #: successful probe closes it.
    breaker_cooldown_s: float = 5.0
    #: CPython thread switch interval (``sys.setswitchinterval``)
    #: applied while the server runs; 0 leaves the process default.
    #: The event loop shares the GIL with the update, rebuild, log and
    #: fallback threads, and the interpreter default (5 ms) lets one of
    #: them hold it that long while answers wait on the loop — a short
    #: interval cuts that handoff latency.  Process-global: the
    #: previous value is restored on drain.
    switch_interval_s: float = 1e-4
    #: Accept streamed edge-weight deltas on ``POST /admin/update``.
    #: Requires the server to be constructed with an
    #: :class:`~repro.live.coordinator.UpdateCoordinator` (the CLI
    #: wires one from ``--live-updates --graph``).
    live_updates: bool = False
    #: Patched overlay entries that trigger a background
    #: rebuild-and-swap of the base index; 0 lets the overlay grow
    #: forever (rebuilds only on demand).
    overlay_threshold: int = 20000
    #: Per-process ring-buffer capacity (spans) of the distributed
    #: trace collector; 0 disables tracing entirely — no traceparent
    #: parsing, no spans, no ``/admin/trace``.
    trace_buffer: int = 4096
    #: Locally sample 1 in N requests into a new trace when the client
    #: sent no ``traceparent`` (1 traces everything, 0 traces nothing
    #: locally); an inbound sampled traceparent is always honoured
    #: regardless, so a caller's sampling decision propagates.
    trace_sample_every: int = 64
    #: Space-Saving heavy-hitter sketch capacity over symmetric
    #: ``(s, t)`` query pairs, surfaced as the ``top_pairs`` block in
    #: ``/stats``; 0 disables workload analytics.
    top_pairs_capacity: int = 256
    #: Directory of the durable live-update write-ahead log; ``None``
    #: (default) keeps accepted batches in memory only.
    wal_dir: Optional[str] = None
    #: Supervisor only: seconds between ``GET /health`` probes of the
    #: child (a child that answers none of three in a row is killed);
    #: 0 disables the probe.  A child that exits is seen at once.
    probe_interval_s: float = 1.0
    #: Flap circuit: a child that dies ``flap_max_restarts`` times
    #: within ``flap_window_s`` seconds ends the supervisor, non-zero.
    flap_window_s: float = 30.0
    flap_max_restarts: int = 5
    #: First respawn delay; doubles per recent death up to the cap.
    respawn_backoff_s: float = 0.1
    respawn_backoff_max_s: float = 5.0

    def __post_init__(self) -> None:
        if self.cache_size < 0:
            raise ServeConfigError("cache_size must be >= 0")
        if self.queue_high_water < 1:
            raise ServeConfigError("queue_high_water must be >= 1")
        if self.request_timeout_ms <= 0:
            raise ServeConfigError("request_timeout_ms must be > 0")
        if self.drain_grace_s < 0:
            raise ServeConfigError("drain_grace_s must be >= 0")
        if not 0 <= self.port <= 65535:
            raise ServeConfigError(f"port {self.port} is out of range")
        if self.slow_query_ms < 0:
            raise ServeConfigError("slow_query_ms must be >= 0")
        if self.log_sample_every < 0:
            raise ServeConfigError("log_sample_every must be >= 0")
        if self.slo_window_s < 0:
            raise ServeConfigError("slo_window_s must be >= 0")
        if self.slo_p99_ms < 0:
            raise ServeConfigError("slo_p99_ms must be >= 0")
        if not 0 <= self.slo_error_rate <= 1:
            raise ServeConfigError("slo_error_rate must be in [0, 1]")
        if self.switch_interval_s < 0:
            raise ServeConfigError("switch_interval_s must be >= 0")
        if self.breaker_threshold < 0:
            raise ServeConfigError("breaker_threshold must be >= 0")
        if self.breaker_cooldown_s < 0:
            raise ServeConfigError("breaker_cooldown_s must be >= 0")
        if self.overlay_threshold < 0:
            raise ServeConfigError("overlay_threshold must be >= 0")
        if self.trace_buffer < 0:
            raise ServeConfigError("trace_buffer must be >= 0")
        if self.trace_sample_every < 0:
            raise ServeConfigError("trace_sample_every must be >= 0")
        if self.top_pairs_capacity < 0:
            raise ServeConfigError("top_pairs_capacity must be >= 0")
        if self.probe_interval_s < 0:
            raise ServeConfigError("probe_interval_s must be >= 0")
        if self.flap_window_s < 0:
            raise ServeConfigError("flap_window_s must be >= 0")
        if self.flap_max_restarts < 1:
            raise ServeConfigError("flap_max_restarts must be >= 1")
        if self.respawn_backoff_s <= 0:
            raise ServeConfigError("respawn_backoff_s must be > 0")
        if self.respawn_backoff_max_s < self.respawn_backoff_s:
            raise ServeConfigError(
                "respawn_backoff_max_s must be >= respawn_backoff_s"
            )
