"""LRU cache of query results keyed on normalized vertex pairs.

Graphs are undirected, so ``Q(s, t) == Q(t, s)`` exactly; caching under
``(min(s, t), max(s, t))`` doubles the effective hit surface of any
workload with symmetric traffic.  Hit/miss totals are kept locally and
mirrored into the server's recorder (``serve.cache.hits`` /
``serve.cache.misses``) so ``/metrics`` exposes them.

:class:`TopPairs` is the workload view beside it: a Space-Saving
sketch of the queried pairs, with every cache lookup attributed to the
heavy-hitter set or the tail.  The server owns one, next to the cache
it attributes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.obs import NULL_RECORDER, SpaceSaving
from repro.types import QueryResult, Vertex

Key = Tuple[Vertex, Vertex]


class ResultCache:
    """A bounded LRU of ``pair -> QueryResult`` (capacity 0 disables)."""

    __slots__ = ("capacity", "hits", "misses", "_entries", "_recorder")

    def __init__(self, capacity: int, *, recorder=NULL_RECORDER) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Key, QueryResult]" = OrderedDict()
        self._recorder = recorder

    @staticmethod
    def key_of(source: Vertex, target: Vertex) -> Key:
        """The normalized cache key of one query pair."""
        return (source, target) if source <= target else (target, source)

    def get(self, source: Vertex, target: Vertex) -> Optional[QueryResult]:
        """The cached answer for the pair, refreshing its recency."""
        if self.capacity == 0:
            return None
        result = self._entries.get(self.key_of(source, target))
        if result is None:
            self.misses += 1
            self._recorder.incr("serve.cache.misses")
            return None
        self._entries.move_to_end(self.key_of(source, target))
        self.hits += 1
        self._recorder.incr("serve.cache.hits")
        return result

    def put(self, source: Vertex, target: Vertex, result: QueryResult) -> None:
        """Insert (or refresh) the pair, evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        key = self.key_of(source, target)
        self._entries[key] = result
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (hot reload: results may differ now)."""
        self._entries.clear()

    def invalidate(self, vertices) -> int:
        """Drop every entry whose pair touches a vertex in ``vertices``.

        The targeted form of :meth:`clear` used by the live-update
        path: a delta batch only changes answers of pairs touching a
        vertex whose labels were patched, so everything else stays
        cached.  Returns the number of entries dropped (mirrored into
        ``serve.cache.invalidated``).
        """
        if not self._entries or not vertices:
            return 0
        doomed = [
            key for key in self._entries
            if key[0] in vertices or key[1] in vertices
        ]
        for key in doomed:
            del self._entries[key]
        if doomed:
            self._recorder.incr("serve.cache.invalidated", len(doomed))
        return len(doomed)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return self.key_of(*key) in self._entries

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        """JSON-friendly cache statistics for ``/metrics``."""
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


class TopPairs:
    """Heavy-hitter pairs plus cache attribution (the ``top_pairs`` block).

    ``offer`` counts one query of a symmetric pair key and attributes
    its cache lookup — ``hit`` true or false, ``None`` when no lookup
    was made (an ``explain`` query) — to the pairs the sketch already
    tracked (hot) or to the rest (tail).  A hot set that misses the
    cache is sized wrong.
    """

    __slots__ = ("sketch", "_counts")

    def __init__(self, capacity: int) -> None:
        self.sketch = SpaceSaving(capacity)
        #: ``[hot hits, hot misses, tail hits, tail misses]``.
        self._counts = [0, 0, 0, 0]

    def offer(self, key: Key, hit: Optional[bool]) -> None:
        """Count one query of ``key`` and attribute its lookup."""
        hot = self.sketch.offer(key)
        if hit is not None:
            self._counts[(0 if hot else 2) + (0 if hit else 1)] += 1

    def block(self) -> dict:
        """The JSON ``top_pairs`` block of ``/stats``."""
        attribution = {}
        for side, offset in (("hot", 0), ("tail", 2)):
            hits, misses = self._counts[offset : offset + 2]
            lookups = hits + misses
            attribution[side] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / lookups if lookups else 0.0,
            }
        return {
            "sketch": self.sketch.to_dict(),
            "top": [
                {"pair": list(key), "count": count, "error": error}
                for key, count, error in self.sketch.top(20)
            ],
            "cache_attribution": attribution,
        }
