"""Space-Saving heavy-hitter sketch over hashable stream keys.

The serving tier needs to *observe* its own key distribution — which
``(s, t)`` pairs are hot — without keeping a counter per distinct pair
(a road-network workload has quadratically many).  Space-Saving
(Metwally, Agrawal, El Abbadi 2005) tracks at most ``capacity``
candidate keys in O(capacity) memory with the classic guarantees over
a stream of ``N`` offers:

* every reported estimate **over**-counts: ``true <= estimate`` and
  ``estimate - true <= error <= N / capacity``;
* any key whose true frequency exceeds ``N / capacity`` is guaranteed
  to be tracked.

Offers are O(1) amortised (dict moves between count buckets plus a
monotone min-count cursor), so the sketch can sit on the server's
per-query hot path.  Sketches are **mergeable** across workers
(Agarwal et al., *Mergeable Summaries*): a key absent from a full
sketch may have occurred up to that sketch's min count, so the merge
adds ``min_count`` for absent keys to both the estimate and the error
— the summed error bound ``sum_i N_i / capacity`` survives, so
per-process sketches fold into one ``top_pairs`` view.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

Key = Hashable

#: One reported entry: ``(key, estimated count, max overcount)``.
TopEntry = Tuple[Key, int, int]


class SpaceSaving:
    """Bounded-memory heavy-hitter counter (Space-Saving algorithm)."""

    __slots__ = (
        "capacity", "total", "_counts", "_errors", "_buckets", "_min",
        "_floor",
    )

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Stream length: total weight offered (pre-merge offers only).
        self.total = 0
        self._counts: Dict[Key, int] = {}
        self._errors: Dict[Key, int] = {}
        #: count -> set of keys currently at that count; with the
        #: monotone ``_min`` cursor this gives O(1) amortised eviction.
        self._buckets: Dict[int, set] = {}
        self._min = 0
        #: Extra upper bound on untracked keys carried through merges
        #: (a key dropped by merge truncation, or unseen by every
        #: source sketch, may still have occurred this often).
        self._floor = 0

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Key) -> bool:
        return key in self._counts

    @property
    def min_count(self) -> int:
        """Smallest tracked estimate (0 while under capacity).

        This is the per-key error ceiling: an untracked key occurred at
        most ``min_count`` times, and no estimate overcounts by more.
        """
        if len(self._counts) < self.capacity:
            return 0
        return self._min

    @property
    def untracked_bound(self) -> int:
        """Largest count an untracked key could truly have."""
        return max(self._floor, self.min_count)

    def _move(self, key: Key, old: int, new: int) -> None:
        bucket = self._buckets[old]
        bucket.discard(key)
        if not bucket:
            del self._buckets[old]
        self._buckets.setdefault(new, set()).add(key)
        self._counts[key] = new

    def _advance_min(self) -> None:
        # The cursor only moves up (counts never decrease), so the
        # total scan work over a stream of N offers is <= max(min)
        # <= N / capacity — amortised O(1) per offer.
        while self._min not in self._buckets:
            self._min += 1

    def offer(self, key: Key, count: int = 1) -> bool:
        """Count one occurrence of ``key`` (``count`` of them).

        Returns whether ``key`` was already tracked before this offer —
        callers attributing per-key behaviour (cache hits among heavy
        hitters vs the tail) get the membership test for free.
        """
        self.total += count
        counts = self._counts
        current = counts.get(key)
        if current is not None:
            self._move(key, current, current + count)
            if current == self._min:
                self._advance_min()
            return True
        buckets = self._buckets
        if len(counts) < self.capacity:
            counts[key] = count
            self._errors[key] = 0
            buckets.setdefault(count, set()).add(key)
            if len(counts) == self.capacity:
                self._min = min(buckets)
            return False
        # Full: the new key inherits the minimum counter — the classic
        # Space-Saving replacement that keeps estimates upper bounds.
        # This branch sits on the server's per-request path for every
        # first-sighted pair, so it is written flat: the victim is
        # popped straight out of its bucket and the bucket moves are
        # inlined rather than routed through :meth:`_move`.
        errors = self._errors
        floor = self._min
        bucket = buckets[floor]
        victim = bucket.pop()
        del counts[victim]
        del errors[victim]
        new = floor + count
        counts[key] = new
        errors[key] = floor
        target = buckets.get(new)
        if target is None:
            buckets[new] = {key}
        else:
            target.add(key)
        if not bucket:
            del buckets[floor]
            self._advance_min()
        return False

    def estimate(self, key: Key) -> Tuple[int, int]:
        """``(estimate, error)`` for ``key``.

        Untracked keys report ``(min_count, min_count)`` — the tightest
        upper bound the sketch can give.
        """
        count = self._counts.get(key)
        if count is None:
            bound = self.untracked_bound
            return bound, bound
        return count, self._errors[key]

    def top(self, n: Optional[int] = None) -> List[TopEntry]:
        """The tracked keys, heaviest first (deterministic tie-break)."""
        entries = sorted(
            (
                (key, count, self._errors[key])
                for key, count in self._counts.items()
            ),
            key=lambda e: (-e[1], e[2], repr(e[0])),
        )
        return entries if n is None else entries[:n]

    # ------------------------------------------------------------------
    # serialization + merge (fleet aggregation)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready snapshot (keys serialized as-is, so use
        JSON-safe keys — the server stores ``[low, high]`` pairs as
        2-lists via :meth:`top`-shaped entries)."""
        return {
            "capacity": self.capacity,
            "total": self.total,
            "floor": self._floor,
            "entries": [
                [key, count, error] for key, count, error in self.top()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpaceSaving":
        """Rebuild a sketch from :meth:`to_dict` output.

        Keys that arrived as JSON lists are normalised to tuples so a
        round-tripped sketch merges cleanly with a live one.
        """
        sketch = cls(int(payload["capacity"]))
        entries = payload.get("entries", [])
        for key, count, error in entries:
            if isinstance(key, list):
                key = tuple(key)
            sketch._counts[key] = int(count)
            sketch._errors[key] = int(error)
            sketch._buckets.setdefault(int(count), set()).add(key)
        if len(sketch._counts) >= sketch.capacity:
            sketch._min = min(sketch._buckets)
        sketch.total = int(payload.get("total", 0))
        sketch._floor = int(payload.get("floor", 0))
        return sketch

    @classmethod
    def merge(
        cls,
        sketches: Sequence["SpaceSaving"],
        capacity: Optional[int] = None,
    ) -> "SpaceSaving":
        """Fold worker sketches into one (mergeable-summaries rule).

        For each key in the union: the merged estimate sums each
        sketch's estimate, substituting that sketch's ``min_count``
        where the key is untracked (it may have occurred that often
        unseen); errors sum the same way.  The heaviest ``capacity``
        keys are kept, so the result is again a valid Space-Saving
        summary of the concatenated streams.
        """
        if not sketches:
            raise ValueError("merge needs at least one sketch")
        if capacity is None:
            capacity = max(s.capacity for s in sketches)
        union: set = set()
        for sketch in sketches:
            union.update(sketch._counts)
        merged = cls(capacity)
        scored: List[TopEntry] = []
        for key in union:
            count = error = 0
            for sketch in sketches:
                est, err = sketch.estimate(key)
                count += est
                error += err
            scored.append((key, count, error))
        scored.sort(key=lambda e: (-e[1], e[2], repr(e[0])))
        for key, count, error in scored[:capacity]:
            merged._counts[key] = count
            merged._errors[key] = error
            merged._buckets.setdefault(count, set()).add(key)
        if len(merged._counts) >= capacity:
            merged._min = min(merged._buckets)
        # Untracked keys in the merged view: dropped by the truncation
        # just above (bounded by the largest dropped estimate) or
        # unseen by every source (bounded by the summed source bounds).
        dropped = scored[capacity][1] if len(scored) > capacity else 0
        absent = sum(s.untracked_bound for s in sketches)
        merged._floor = max(dropped, absent)
        merged.total = sum(s.total for s in sketches)
        return merged


def pair_key(source: int, target: int) -> Tuple[int, int]:
    """The symmetric sketch key for an ``(s, t)`` query — SPC queries
    are undirected, so both orientations count toward one pair."""
    return (source, target) if source <= target else (target, source)
