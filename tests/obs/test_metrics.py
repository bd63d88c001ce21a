"""Tests for the counters and their registry."""

import pytest

from repro.obs.metrics import Counter, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        assert reg.names() == ["a", "z"]

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.counter("b")
        assert reg.snapshot() == {"b": 0, "c": 3}
