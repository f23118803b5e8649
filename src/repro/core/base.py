"""Common interface of all shortest-path-counting indexes.

``TLIndex``, ``CTLIndex`` and ``CTLSIndex`` all answer
``query(s, t) -> QueryResult(distance, count)`` and expose the same
statistics surface, so benchmarks and applications treat them
interchangeably.  The three labeling indexes share one query path,
:class:`ArenaIndex`: each states only its scan window.

Query instrumentation lives here: when :mod:`repro.obs` is configured,
every query records its latency, visited label entries, and LCA depth
into the active recorder.  When observability is off (the default) the
only extra work per query is one module-attribute check.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.exceptions import IndexQueryError
from repro.types import QueryResult, QueryStats, Vertex

#: The conventional ``Q(v, v)`` answer, shared so batch loops can avoid
#: allocating one :class:`QueryResult` per same-vertex pair.
SELF_QUERY_RESULT = QueryResult(0, 1)


@dataclass
class BuildStats:
    """Instrumentation collected while constructing an index.

    Populated from the build-scoped :class:`~repro.obs.Recorder` via
    :meth:`from_recorder` — construction code increments recorder
    counters (``build.ssspc_runs``, ``build.shortcuts_added``, ...)
    instead of threading this object through every helper.

    ``peak_memory_estimate`` is a model-based estimate (bytes) covering
    label storage plus the largest working graph, mirroring the paper's
    Fig. 12 without depending on allocator internals.
    """

    seconds: float = 0.0
    ssspc_runs: int = 0
    shortcuts_added: int = 0
    shortcuts_pruned: int = 0
    peak_edges: int = 0
    peak_memory_estimate: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_recorder(
        cls,
        rec,
        *,
        seconds: float,
        total_label_entries: int = 0,
        arena=None,
    ) -> "BuildStats":
        """Read the ``build.*`` metrics of a build-scoped recorder.

        ``peak_memory_estimate`` models the packed arena layout when
        ``arena`` (a :class:`repro.labels.LabelArena`) is given — its
        real offset-table and array itemsize bytes — plus 24 bytes per
        edge of the largest working graph (the ``build.peak_edges``
        gauge).  Without an arena it falls back to the flat 8-bytes-per-
        entry label model.
        """
        peak_edges = int(rec.gauge_value("build.peak_edges"))
        if arena is not None:
            label_bytes = arena.nbytes()
        else:
            label_bytes = 8 * total_label_entries
        return cls(
            seconds=seconds,
            ssspc_runs=int(rec.counter_value("build.ssspc_runs")),
            shortcuts_added=int(rec.counter_value("build.shortcuts_added")),
            shortcuts_pruned=int(rec.counter_value("build.shortcuts_pruned")),
            peak_edges=peak_edges,
            peak_memory_estimate=label_bytes + 24 * peak_edges,
        )


@dataclass(frozen=True)
class IndexStats:
    """Static shape of a built index (paper's h, w, size accounting)."""

    num_vertices: int
    num_edges: int
    tree_nodes: int
    height: int
    width: int
    total_label_entries: int
    size_bytes: int


class SPCIndex(abc.ABC):
    """Abstract base for shortest path counting indexes.

    Subclasses are built with a ``build(graph, ...)`` classmethod and
    implement :meth:`_query_scan`; the base class turns it into the
    public :meth:`query`/:meth:`query_with_stats` pair and records
    observability metrics when :mod:`repro.obs` is configured.
    """

    #: Human-readable algorithm name used in benchmark reports.
    name: str = "abstract"

    @abc.abstractmethod
    def _query_scan(
        self, source: Vertex, target: Vertex
    ) -> Tuple[QueryResult, int]:
        """Answer ``Q(s, t)``; returns ``(result, visited_labels)``."""

    @abc.abstractmethod
    def stats(self) -> IndexStats:
        """Static index statistics (sizes use the 32-bit entry model)."""

    def query(self, source: Vertex, target: Vertex) -> QueryResult:
        """Answer ``Q(s, t)``: shortest distance and path count."""
        if not obs.ENABLED:
            return self._query_scan(source, target)[0]
        started = time.perf_counter()
        result, visited = self._query_scan(source, target)
        self._record_query(
            time.perf_counter() - started, visited, source, target
        )
        return result

    def query_with_stats(self, source: Vertex, target: Vertex) -> QueryStats:
        """Like :meth:`query`, also reporting visited label entries."""
        if not obs.ENABLED:
            result, visited = self._query_scan(source, target)
            return QueryStats(result, visited)
        started = time.perf_counter()
        result, visited = self._query_scan(source, target)
        self._record_query(
            time.perf_counter() - started, visited, source, target
        )
        return QueryStats(result, visited)

    def _lca_depth(self, source: Vertex, target: Vertex) -> Optional[int]:
        """Tree depth of the queried pair's LCA node, if the index has one."""
        return None

    def _record_query(
        self, elapsed: float, visited: int, source: Vertex, target: Vertex
    ) -> None:
        rec = obs.recorder()
        rec.incr("query.count")
        rec.observe("query.latency_seconds", elapsed)
        rec.observe("query.visited_labels", visited)
        depth = self._lca_depth(source, target)
        if depth is not None:
            rec.observe("query.lca_depth", depth)

    def query_batch(self, pairs):
        """Answer a batch of ``Q(s, t)`` queries; returns a result list.

        This default just loops over :meth:`query`.  The labeling
        indexes override it with :meth:`ArenaIndex.query_batch`, one
        batched scan of the packed label arena.
        """
        query = self.query
        return [query(s, t) for s, t in pairs]

    def _record_batch(self, elapsed: float, count: int, visited: int) -> None:
        """Record one batch's observability metrics (obs is enabled)."""
        rec = obs.recorder()
        rec.incr("query.count", count)
        rec.incr("query.batch.count")
        rec.observe("query.batch.size", count)
        rec.observe("query.batch.seconds", elapsed)
        if count:
            rec.observe("query.visited_labels", visited / count)

    def distance(self, source: Vertex, target: Vertex):
        """Shortest distance ``sd(s, t)`` (``INF`` when disconnected)."""
        return self.query(source, target).distance

    def count(self, source: Vertex, target: Vertex) -> int:
        """Shortest path count ``spc(s, t)`` (0 when disconnected)."""
        return self.query(source, target).count

    def size_bytes(self) -> int:
        """Index size in bytes under the paper's accounting model."""
        return self.stats().size_bytes

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"{type(self).__name__}(n={stats.num_vertices}, "
            f"h={stats.height}, w={stats.width}, "
            f"entries={stats.total_label_entries})"
        )


class ArenaIndex(SPCIndex):
    """An index whose queries merge a window of two packed label rows.

    CTL-Query, CTLS-Query and TL-Query all merge the same label
    positions ``[start, end)`` of both endpoints in ``self.arena`` (a
    :class:`~repro.labels.LabelArena`); they differ only in which
    positions.  Subclasses state that rule once, as :meth:`_window` on
    dense ids, and this class turns it into the scalar and batched
    query paths.
    """

    @abc.abstractmethod
    def _window(self, a: int, b: int) -> Tuple[int, int]:
        """Label positions ``[start, end)`` merged for dense ids ``a, b``."""

    def window(self, source: Vertex, target: Vertex) -> Tuple[int, int]:
        """Label positions ``[start, end)`` that ``Q(s, t)`` merges."""
        ids = self.arena.vertex_ids
        try:
            return self._window(ids[source], ids[target])
        except KeyError as exc:
            raise IndexQueryError(f"vertex {exc.args[0]} is not indexed") from exc

    def _query_scan(self, source: Vertex, target: Vertex):
        ids = self.arena.vertex_ids
        try:
            a = ids[source]
            b = ids[target]
        except KeyError as exc:
            raise IndexQueryError(f"vertex {exc.args[0]} is not indexed") from exc
        if source == target:
            return SELF_QUERY_RESULT, 0
        start, end = self._window(a, b)
        distance, count = self.arena.scan(a, b, start, end)
        return QueryResult(distance, count), end - start

    def query_batch(self, pairs, side=None):
        """Answer many pairs with one batched arena scan.

        Phase 1 resolves ids and scan windows for every pair in a single
        tight loop; phase 2 hands all windows to
        :meth:`LabelArena.scan_batch`, which merges them in one
        vectorised pass when numpy is available.  ``side`` (a
        :class:`~repro.labels.arena.SideRows`) replaces some vertices'
        rows: each endpoint's row is read from it when it has one there.
        """
        enabled = obs.ENABLED
        started = time.perf_counter() if enabled else 0.0
        ids = self.arena.vertex_ids
        offsets = self.arena.offsets if side is None else side.starts
        window = self._window
        results: List[Optional[QueryResult]] = []
        append = results.append
        starts_a: List[int] = []
        starts_b: List[int] = []
        lengths: List[int] = []
        slots: List[int] = []
        visited = 0
        for s, t in pairs:
            try:
                a = ids[s]
                b = ids[t]
            except KeyError as exc:
                raise IndexQueryError(
                    f"vertex {exc.args[0]} is not indexed"
                ) from exc
            if s == t:
                append(SELF_QUERY_RESULT)
                continue
            start, end = window(a, b)
            starts_a.append(offsets[a] + start)
            starts_b.append(offsets[b] + start)
            lengths.append(end - start)
            slots.append(len(results))
            visited += end - start
            append(None)
        rows = None if side is None else side.arena
        for slot, scanned in zip(
            slots, self.arena.scan_batch(starts_a, starts_b, lengths, rows)
        ):
            results[slot] = QueryResult(*scanned)
        if enabled:
            self._record_batch(
                time.perf_counter() - started, len(results), visited
            )
        return results
