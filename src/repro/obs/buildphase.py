"""Build-phase observability: where index construction spends its time.

Two complementary views, both cheap enough to leave on:

* :class:`BuildPhaseTracker` wraps the *coarse* pipeline steps the CLI
  drives (load graph → build → pack → serialize) and annotates each
  with wall time, peak-RSS delta, and — when tracing is enabled — the
  ``tracemalloc`` net-allocation delta.
* :func:`phase_breakdown` folds the *fine* span stream the builders
  already emit (``partition.balanced_cut``, ``ctls.build.labels``,
  ``ctls.build.shortcuts``, …) into the canonical pipeline phases, so
  ``--progress`` output and the embedded ``build_info`` header agree on
  one vocabulary.

The resulting ``build_info`` dict (:func:`make_build_info`) travels in
the v1 document and the v4 header: ``repro-spc stats`` and the server's
``/stats`` endpoint can then answer "how was the index that is serving
right now built, and at what cost?".
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.obs.perf import capture_environment
from repro.obs.tracing import SpanEvent

__all__ = [
    "BuildPhaseTracker",
    "PhaseStat",
    "ProgressPrinter",
    "make_build_info",
    "peak_rss_bytes",
    "phase_breakdown",
]

#: Fine span name → canonical pipeline phase.  Spans not listed here
#: (per-node envelopes, SSSPC internals) are already counted inside a
#: listed ancestor and must not be double-booked.
_PHASE_OF_SPAN: Dict[str, str] = {
    "partition.balanced_cut": "partition",
    "ctls.build.labels": "labels",
    "ctl.build.labels": "labels",
    "tl.build.labels": "labels",
    "ctls.build.shortcuts": "spc_graph",
    "ctls.build.pack": "pack",
    "tl.build.decomposition": "decomposition",
    "tl.build.lca": "lca",
}

#: Presentation order of the canonical phases.
PHASE_ORDER = (
    "partition",
    "decomposition",
    "labels",
    "spc_graph",
    "lca",
    "pack",
    "serialize",
)


def peak_rss_bytes() -> Optional[int]:
    """The process's peak resident set in bytes, or ``None`` off-POSIX.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise
    to bytes.  This is a *high-water mark*: per-phase deltas are only
    nonzero for the phase that pushed the peak, which is exactly the
    phase a memory investigation cares about.
    """
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


@dataclass
class PhaseStat:
    """One completed coarse phase."""

    name: str
    seconds: float
    rss_delta_bytes: Optional[int] = None
    alloc_delta_bytes: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "seconds": round(self.seconds, 6),
        }
        if self.rss_delta_bytes is not None:
            data["rss_delta_bytes"] = self.rss_delta_bytes
        if self.alloc_delta_bytes is not None:
            data["alloc_delta_bytes"] = self.alloc_delta_bytes
        if self.attrs:
            data.update(self.attrs)
        return data


class BuildPhaseTracker:
    """Times coarse phases and reports memory movement per phase.

    ``progress`` (when given) receives one formatted line as each phase
    completes — the live half of ``repro-spc build --progress``.
    ``trace_allocations=True`` turns on :mod:`tracemalloc` for the
    tracker's lifetime (noticeable slowdown, precise numbers); without
    it only the free peak-RSS high-water readings are taken.
    """

    def __init__(
        self,
        progress: Optional[Callable[[str], None]] = None,
        *,
        trace_allocations: bool = False,
    ) -> None:
        self.progress = progress
        self.phases: List[PhaseStat] = []
        self._trace_allocations = trace_allocations
        self._owns_tracemalloc = False
        if trace_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        self._t0 = time.perf_counter()

    def close(self) -> None:
        """Stop tracemalloc if this tracker started it."""
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._owns_tracemalloc = False

    @contextmanager
    def phase(self, name: str, **attrs: object):
        """Time one phase; yields the mutable ``attrs`` dict."""
        rss0 = peak_rss_bytes()
        alloc0 = (
            tracemalloc.get_traced_memory()[0]
            if tracemalloc.is_tracing()
            else None
        )
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            seconds = time.perf_counter() - start
            rss1 = peak_rss_bytes()
            alloc1 = (
                tracemalloc.get_traced_memory()[0]
                if tracemalloc.is_tracing()
                else None
            )
            stat = PhaseStat(
                name=name,
                seconds=seconds,
                rss_delta_bytes=(
                    rss1 - rss0 if rss0 is not None and rss1 is not None
                    else None
                ),
                alloc_delta_bytes=(
                    alloc1 - alloc0
                    if alloc0 is not None and alloc1 is not None
                    else None
                ),
                attrs=dict(attrs),
            )
            self.phases.append(stat)
            if self.progress is not None:
                self.progress(self.format_line(stat))

    @property
    def total_seconds(self) -> float:
        return time.perf_counter() - self._t0

    @staticmethod
    def format_line(stat: PhaseStat) -> str:
        bits = [f"[build] {stat.name:<12} {stat.seconds:8.3f}s"]
        if stat.rss_delta_bytes:
            bits.append(f"rss +{stat.rss_delta_bytes / 1e6:.1f} MB")
        if stat.alloc_delta_bytes:
            bits.append(f"alloc {stat.alloc_delta_bytes / 1e6:+.1f} MB")
        for key, value in stat.attrs.items():
            bits.append(f"{key}={value}")
        return "  ".join(bits)

    def summary(self) -> List[Dict[str, object]]:
        return [stat.to_dict() for stat in self.phases]


class ProgressPrinter:
    """Throttled per-node progress line for ``build --progress``.

    The builder invokes the callback once per cut-tree node — thousands
    of times on a real graph — so the printer drops updates closer
    together than ``min_interval_s`` and always prints the final state.
    """

    def __init__(
        self,
        write: Callable[[str], None],
        *,
        min_interval_s: float = 0.5,
    ) -> None:
        self._write = write
        self._min_interval_s = min_interval_s
        # None until the first update: the first line always prints
        # (``perf_counter`` has an arbitrary origin, so comparing it
        # against 0.0 would make "does the first update print" depend
        # on host uptime).
        self._last: Optional[float] = None
        self._latest: Optional[Dict[str, object]] = None

    def __call__(self, state: Dict[str, object]) -> None:
        self._latest = state
        now = time.perf_counter()
        if (
            self._last is not None
            and now - self._last < self._min_interval_s
        ):
            return
        self._last = now
        self._emit(state)
        self._latest = None  # printed: finish() need not repeat it

    def _emit(self, state: Dict[str, object]) -> None:
        self._write(
            "[build] node {nodes:>5}  depth {depth:>3}  cut {cut:>4}  "
            "labels {labels:>9}  {elapsed:7.1f}s".format(**state)
        )

    def finish(self) -> None:
        """Print the final state even if the throttle just fired."""
        if self._latest is not None:
            self._emit(self._latest)
            self._latest = None


def phase_breakdown(events: Iterable[SpanEvent]) -> Dict[str, Dict[str, object]]:
    """Fold fine builder spans into canonical pipeline phases.

    Returns ``{phase: {seconds, count}}`` in :data:`PHASE_ORDER` order,
    phases that never ran omitted.
    """
    totals: Dict[str, Dict[str, object]] = {}
    for event in events:
        phase = _PHASE_OF_SPAN.get(event.name)
        if phase is None:
            continue
        entry = totals.setdefault(phase, {"seconds": 0.0, "count": 0})
        entry["seconds"] += event.duration
        entry["count"] += 1
    ordered = {
        phase: {
            "seconds": round(totals[phase]["seconds"], 6),
            "count": totals[phase]["count"],
        }
        for phase in PHASE_ORDER
        if phase in totals
    }
    # Preserve anything mapped but not in the canonical order (future
    # builders) rather than silently dropping it.
    for phase, entry in totals.items():
        ordered.setdefault(
            phase,
            {"seconds": round(entry["seconds"], 6), "count": entry["count"]},
        )
    return ordered


def make_build_info(
    *,
    algorithm: str,
    build_seconds: float,
    label_entries: Optional[int] = None,
    phases: Optional[Dict[str, Dict[str, object]]] = None,
    coarse: Optional[List[Dict[str, object]]] = None,
    extras: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The provenance dict embedded in index headers.

    Captures enough to correlate a BENCH record with the exact index
    that served it: what was built, when, where, how long each phase
    took, and how fast labels were produced.
    """
    env = capture_environment()
    info: Dict[str, object] = {
        "algorithm": algorithm,
        "built_at": env["date"],
        "git_sha": env["git_sha"],
        "host": env["host"],
        "python": env["python"],
        "build_seconds": round(build_seconds, 6),
    }
    if label_entries is not None:
        info["label_entries"] = label_entries
        if build_seconds > 0:
            info["labels_per_second"] = round(label_entries / build_seconds, 1)
    rss = peak_rss_bytes()
    if rss is not None:
        info["peak_rss_bytes"] = rss
    if phases:
        info["phases"] = phases
    if coarse:
        info["steps"] = coarse
    if extras:
        info.update(extras)
    return info
