"""The shared LRU behind every cache: routing rows, routed paths and
tree legs, RP plans and built scenarios."""

from repro.lru import LRU


def test_evicts_least_recently_used_first():
    cache = LRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # "b" is now the least recently used
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2


def test_counts_evictions_and_clear_keeps_the_count():
    cache = LRU(1)
    for key in range(4):
        cache.put(key, str(key))
    assert cache.evictions == 3
    assert cache.get(3) == "3" and len(cache) == 1
    cache.clear()
    assert len(cache) == 0 and cache.get(3) is None
    assert cache.evictions == 3

