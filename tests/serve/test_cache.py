"""ResultCache: normalization, LRU eviction, counters."""

from repro.obs import Recorder
from repro.serve.cache import ResultCache, TopPairs
from repro.types import QueryResult

R1 = QueryResult(10, 2)
R2 = QueryResult(7, 1)


def test_symmetric_key_normalization():
    cache = ResultCache(8)
    cache.put(3, 5, R1)
    assert cache.get(5, 3) == R1
    assert cache.get(3, 5) == R1
    assert len(cache) == 1


def test_lru_eviction_order():
    cache = ResultCache(2)
    cache.put(0, 1, R1)
    cache.put(2, 3, R2)
    assert cache.get(0, 1) == R1  # refresh (0, 1)
    cache.put(4, 5, R1)  # evicts (2, 3), the least recently used
    assert cache.get(2, 3) is None
    assert cache.get(0, 1) == R1
    assert cache.get(4, 5) == R1


def test_hit_miss_counters_and_recorder():
    recorder = Recorder()
    cache = ResultCache(4, recorder=recorder)
    assert cache.get(1, 2) is None
    cache.put(1, 2, R1)
    assert cache.get(2, 1) == R1
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5
    counters = recorder.metrics_snapshot()["counters"]
    assert counters["serve.cache.hits"] == 1
    assert counters["serve.cache.misses"] == 1


def test_capacity_zero_disables():
    cache = ResultCache(0)
    cache.put(1, 2, R1)
    assert cache.get(1, 2) is None
    assert len(cache) == 0
    # disabled lookups are not counted as misses either
    assert cache.misses == 0


def test_snapshot_shape():
    cache = ResultCache(4)
    cache.put(1, 2, R1)
    cache.get(1, 2)
    snap = cache.snapshot()
    assert snap["capacity"] == 4
    assert snap["size"] == 1
    assert snap["hits"] == 1
    assert 0.0 <= snap["hit_rate"] <= 1.0


def test_invalidate_drops_pairs_touching_the_vertices():
    recorder = Recorder()
    cache = ResultCache(8, recorder=recorder)
    for pair in ((1, 2), (3, 4), (5, 1), (6, 7)):
        cache.put(*pair, R1)
    assert cache.invalidate({1, 7}) == 3
    assert (3, 4) in cache and len(cache) == 1
    assert cache.invalidate(set()) == 0
    counters = recorder.metrics_snapshot()["counters"]
    assert counters["serve.cache.invalidated"] == 3


def test_top_pairs_attributes_lookups_to_hot_and_tail():
    top = TopPairs(2)
    top.offer((1, 2), False)  # tail miss: not tracked before the offer
    top.offer((1, 2), True)   # hot hit
    top.offer((3, 4), None)   # counted, no lookup to attribute
    block = top.block()
    assert block["top"][0] == {"pair": [1, 2], "count": 2, "error": 0}
    assert block["sketch"]["total"] == 3
    attribution = block["cache_attribution"]
    assert attribution["hot"] == {"hits": 1, "misses": 0, "hit_rate": 1.0}
    assert attribution["tail"] == {"hits": 0, "misses": 1, "hit_rate": 0.0}
