"""Tests for timeout policies."""

import pytest

from repro.core.timeouts import FixedTimeout, ProportionalTimeout


class TestFixedTimeout:
    def test_constant(self):
        policy = FixedTimeout(75.0)
        assert policy.timeout(1.0) == 75.0
        assert policy.timeout(1000.0) == 75.0
        assert policy.t0 == 75.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            FixedTimeout(0.0)
        with pytest.raises(ValueError):
            FixedTimeout(-5.0)
        with pytest.raises(ValueError):
            FixedTimeout(float("nan"))

    def test_rejects_infinite_t0(self):
        with pytest.raises(ValueError, match="t0"):
            FixedTimeout(float("inf"))

    def test_repr(self):
        assert "75.0" in repr(FixedTimeout(75.0))


class TestProportionalTimeout:
    def test_scales_with_rtt(self):
        policy = ProportionalTimeout(factor=2.0, slack=3.0)
        assert policy.timeout(10.0) == pytest.approx(23.0)
        assert policy.factor == 2.0
        assert policy.slack == 3.0

    def test_timeout_exceeds_rtt(self):
        policy = ProportionalTimeout()
        for rtt in (0.0, 1.0, 50.0, 1000.0):
            assert policy.timeout(rtt) > rtt

    def test_rejects_factor_below_one(self):
        with pytest.raises(ValueError):
            ProportionalTimeout(factor=0.9)
        with pytest.raises(ValueError):
            ProportionalTimeout(factor=float("nan"))

    def test_rejects_negative_slack(self):
        with pytest.raises(ValueError):
            ProportionalTimeout(slack=-1.0)
        with pytest.raises(ValueError):
            ProportionalTimeout(slack=float("nan"))

    def test_repr(self):
        assert "1.5" in repr(ProportionalTimeout(factor=1.5))

    def test_zero_rtt_zero_slack_still_positive(self):
        # Regression: a client colocated with its peer (rtt 0) under a
        # slack-free policy used to get a 0 timeout — an attempt that
        # expires the instant it is armed and retries in a zero-delay
        # loop.  The floor guarantees every armed timeout is positive.
        policy = ProportionalTimeout(factor=1.5, slack=0.0)
        assert policy.timeout(0.0) > 0.0
        assert policy.timeout(0.0) == policy.floor

    def test_floor_is_a_noop_for_realistic_rtts(self):
        # The default floor (1e-3) must never perturb real timeouts:
        # factor*rtt + slack >= slack = 1.0 >> 1e-3 for any rtt >= 0.
        policy = ProportionalTimeout()
        for rtt in (0.0, 0.5, 1.0, 50.0, 1000.0):
            assert policy.timeout(rtt) == 1.5 * rtt + 1.0

    def test_custom_floor_applies(self):
        policy = ProportionalTimeout(factor=1.0, slack=0.0, floor=5.0)
        assert policy.timeout(2.0) == 5.0  # below the floor -> floored
        assert policy.timeout(10.0) == 10.0  # above -> untouched
        assert policy.floor == 5.0

    def test_rejects_non_positive_floor(self):
        with pytest.raises(ValueError):
            ProportionalTimeout(floor=0.0)
        with pytest.raises(ValueError):
            ProportionalTimeout(floor=-1.0)
        with pytest.raises(ValueError):
            ProportionalTimeout(floor=float("nan"))

    @pytest.mark.parametrize("knob", ["factor", "slack", "floor"])
    def test_rejects_infinite_knobs(self, knob):
        with pytest.raises(ValueError, match=knob):
            ProportionalTimeout(**{knob: float("inf")})
