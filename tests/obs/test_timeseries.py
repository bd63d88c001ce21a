"""Unit tests for the windowed sim-time telemetry collector."""

import pytest

from repro.obs.events import AttemptEvent, BackoffEvent, TimerEvent
from repro.obs.timeseries import (
    SPARK_LEVELS,
    TimeSeriesCollector,
    Window,
    render_sparklines,
    sparkline,
)


def _attempt(time, status, client=1, seq=0, protocol="RP"):
    return AttemptEvent(
        time=time, protocol=protocol, client=client, seq=seq, status=status
    )


# -- windowing ------------------------------------------------------------


def test_events_land_in_their_window():
    c = TimeSeriesCollector(window=10.0)
    c.write(_attempt(3.0, "started"))
    c.write(_attempt(12.0, "succeeded"))
    c.finalize(20.0)
    assert c.num_windows == 2
    first, second = c.windows
    assert (first.start, first.end) == (0.0, 10.0)
    assert first.attempt_starts == 1
    assert first.starts_by_protocol == {"RP": 1}
    assert second.succeeded == 1


def test_window_boundary_belongs_to_the_next_window():
    c = TimeSeriesCollector(window=10.0)
    c.write(_attempt(10.0, "started"))
    c.finalize(10.0)
    assert c.windows[-1].start == 10.0
    assert c.windows[-1].attempt_starts == 1


def test_empty_gap_windows_materialize_as_zero():
    c = TimeSeriesCollector(window=10.0)
    c.write(_attempt(1.0, "started"))
    c.write(_attempt(55.0, "succeeded", client=2))
    c.finalize(60.0)
    series = c.series()
    assert series["bus_events"] == [1, 0, 0, 0, 0, 1]
    # The started-but-unterminated recovery stays open through the gap.
    assert series["open_recoveries"][0] == 1


def test_negative_time_rejected():
    c = TimeSeriesCollector()
    with pytest.raises(ValueError):
        c.write(_attempt(-1.0, "started"))


def test_constructor_validation():
    for window in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="window"):
            TimeSeriesCollector(window=window)
    with pytest.raises(ValueError):
        TimeSeriesCollector(max_windows=1)


# -- coalescing -----------------------------------------------------------


def test_coalescing_bounds_window_count():
    c = TimeSeriesCollector(window=1.0, max_windows=4)
    for t in range(16):
        c.write(_attempt(float(t), "started", client=t, seq=t))
    c.finalize(16.0)
    assert c.num_windows <= 4
    assert c.coalesced == 2
    assert c.width == 4.0
    # No event was lost to the merges.
    assert sum(w.attempt_starts for w in c.windows) == 16


#: ``Window.to_dict()`` keys and ``series()`` names (one protocol, RP)
#: as they stood when each window field was written out by hand.  Every
#: consumer sorts them or looks them up by name, so the pin is on the
#: names, not their order.
WINDOW_KEYS = [
    "start", "width", "bus_events", "attempt_transitions",
    "starts_by_protocol", "succeeded", "timed_out", "abandoned",
    "timers_armed", "timers_fired", "timers_cancelled", "backoffs",
    "faults", "members", "events_processed", "request_hops", "nack_hops",
    "repair_hops", "data_hops", "pending_timers", "open_recoveries",
    "requesting", "waiting",
]
SERIES_NAMES = [
    "window_start", "bus_events", "attempt_transitions", "attempt_starts",
    "succeeded", "timed_out", "abandoned", "timers_armed", "timers_fired",
    "timers_cancelled", "backoffs", "faults", "members",
    "events_processed", "request_hops", "nack_hops", "repair_hops",
    "data_hops", "pending_timers", "open_recoveries", "requesting",
    "waiting", "attempts.RP",
]
WINDOW_INT_COUNTS = [
    "bus_events", "attempt_transitions", "succeeded", "timed_out",
    "abandoned", "timers_armed", "timers_fired", "timers_cancelled",
    "backoffs", "faults", "members", "events_processed", "request_hops",
    "nack_hops", "repair_hops", "data_hops",
]
WINDOW_GAUGES = ["pending_timers", "open_recoveries", "requesting", "waiting"]


def test_window_dict_keys_are_pinned():
    assert sorted(Window(0.0, 10.0).to_dict()) == sorted(WINDOW_KEYS)


def test_series_names_are_pinned():
    c = TimeSeriesCollector(window=10.0)
    c.write(_attempt(1.0, "started"))
    c.finalize(10.0)
    assert sorted(c.series()) == sorted(SERIES_NAMES)


def test_merge_adds_counts_and_keeps_later_gauges():
    # Distinct values per field, so a field merged into another shows.
    a = Window(0.0, 10.0)
    b = Window(10.0, 10.0)
    for i, name in enumerate(WINDOW_INT_COUNTS + WINDOW_GAUGES, start=1):
        setattr(a, name, i)
        setattr(b, name, 100 * i)
    a.starts_by_protocol = {"RP": 1, "SRM": 2}
    b.starts_by_protocol = {"RP": 3, "RMA": 4}
    a.merge(b)
    assert (a.start, a.width) == (0.0, 20.0)
    for i, name in enumerate(WINDOW_INT_COUNTS, start=1):
        assert getattr(a, name) == 101 * i, name
    for i, name in enumerate(WINDOW_GAUGES, start=len(WINDOW_INT_COUNTS) + 1):
        assert getattr(a, name) == 100 * i, name
    assert a.starts_by_protocol == {"RP": 4, "SRM": 2, "RMA": 4}


# -- phase tracking -------------------------------------------------------


def test_open_recovery_phase_split():
    c = TimeSeriesCollector(window=100.0)
    c.write(_attempt(1.0, "started"))          # open, requesting
    c.write(_attempt(2.0, "started", client=2))
    c.write(_attempt(3.0, "timed_out", client=2))  # still open, waiting
    c.finalize(50.0)
    w = c.windows[-1]
    assert (w.open_recoveries, w.requesting, w.waiting) == (2, 1, 1)


def test_terminal_statuses_close_the_recovery():
    c = TimeSeriesCollector(window=100.0)
    for client, status in ((1, "succeeded"), (2, "retracted"), (3, "abandoned")):
        c.write(_attempt(1.0, "started", client=client))
        c.write(_attempt(2.0, status, client=client))
    c.finalize(50.0)
    assert c.windows[-1].open_recoveries == 0


def test_timer_and_backoff_counting():
    c = TimeSeriesCollector(window=10.0)
    c.write(TimerEvent(time=1.0, action="armed"))
    c.write(TimerEvent(time=2.0, action="fired"))
    c.write(TimerEvent(time=3.0, action="cancelled"))
    c.write(BackoffEvent(time=4.0))
    c.finalize(10.0)
    w = c.windows[0]
    assert (w.timers_armed, w.timers_fired, w.timers_cancelled) == (1, 1, 1)
    assert w.backoffs == 1


# -- finalize / digests ---------------------------------------------------


def test_finalize_is_idempotent():
    c = TimeSeriesCollector(window=10.0)
    c.write(_attempt(1.0, "started"))
    c.finalize(25.0)
    n = c.num_windows
    c.finalize(99.0)  # ignored: already finalized
    assert c.num_windows == n
    assert c.end_time == 25.0


def test_digests_change_when_the_series_changes():
    def build(second_time):
        c = TimeSeriesCollector(window=10.0)
        c.write(_attempt(1.0, "started"))
        c.write(_attempt(second_time, "succeeded"))
        c.finalize(40.0)
        return c.digests()

    a, b = build(15.0), build(25.0)
    assert a.keys() == b.keys()
    assert a["succeeded"]["total"] == b["succeeded"]["total"] == 1
    assert a["succeeded"]["crc"] != b["succeeded"]["crc"]
    assert "window_start" not in a


def test_per_protocol_attempt_series():
    c = TimeSeriesCollector(window=10.0)
    c.write(_attempt(1.0, "started", protocol="RP"))
    c.write(_attempt(2.0, "started", client=2, protocol="SRM"))
    c.finalize(10.0)
    series = c.series()
    assert series["attempts.RP"] == [1]
    assert series["attempts.SRM"] == [1]
    assert c.protocols() == ["RP", "SRM"]


# -- sparklines -----------------------------------------------------------


def test_sparkline_scales_and_marks_sparse_values():
    line = sparkline([0, 1, 100])
    assert line[0] == " "
    assert line[1] == SPARK_LEVELS[1]  # nonzero never disappears
    assert line[2] == SPARK_LEVELS[-1]


def test_sparkline_folds_long_series():
    assert len(sparkline([1] * 1000, width=64)) <= 64
    assert sparkline([]) == ""
    assert sparkline([0, 0, 0]) == "   "


def test_render_sparklines_header_and_rows():
    c = TimeSeriesCollector(window=10.0)
    c.write(_attempt(1.0, "started"))
    c.write(_attempt(12.0, "succeeded"))
    c.finalize(20.0)
    block = render_sparklines(c)
    assert block.startswith("windows: 2 x 10 ms")
    assert "attempt_starts" in block
    assert "open_recoveries" in block
