"""Unit tests for statistics monitors (repro.sim.monitor)."""

import math

import pytest

from repro.sim import SeriesRecorder, Tally


class TestTally:
    def test_empty_stats_are_nan(self):
        t = Tally()
        assert math.isnan(t.mean)
        assert math.isnan(t.variance)
        assert math.isnan(t.std)

    def test_single_sample(self):
        t = Tally()
        t.record(4.0)
        assert t.mean == 4.0
        assert t.min == t.max == 4.0
        assert math.isnan(t.variance)

    def test_known_values(self):
        t = Tally()
        for x in (2.0, 4.0, 6.0):
            t.record(x)
        assert t.mean == 4.0
        assert t.variance == 4.0
        assert t.std == 2.0
        assert t.total == 12.0

    def test_merge_empty_cases(self):
        a, b = Tally(), Tally()
        b.record(1.0)
        a.merge(b)
        assert a.mean == 1.0
        a.merge(Tally())  # merging empty changes nothing
        assert a.count == 1


class TestSeriesRecorder:
    def test_records_and_converts(self):
        s = SeriesRecorder("lat")
        s.record(1.0, 10.0)
        s.record(2.0, 20.0)
        t, v = s.to_arrays()
        assert list(t) == [1.0, 2.0]
        assert list(v) == [10.0, 20.0]
        assert len(s) == 2

    def test_rate_over_span(self):
        s = SeriesRecorder()
        for i in range(11):
            s.record(i * 0.5, 0.0)  # 11 samples over 5 s
        assert s.rate() == pytest.approx(11 / 5.0)

    def test_rate_with_window(self):
        s = SeriesRecorder()
        for i in range(10):
            s.record(float(i), 0.0)
        assert s.rate(window=(0.0, 4.0)) == pytest.approx(5 / 4.0)

    def test_rate_empty(self):
        assert SeriesRecorder().rate() == 0.0
