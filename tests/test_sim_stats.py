"""Unit tests for output-analysis statistics (repro.sim.stats)."""

import pytest

from repro.sim.stats import percentile


class TestPercentile:
    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @pytest.mark.parametrize("q", [-1, -0.001, 100.001, 200])
    def test_q_outside_range_raises(self, q):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], q)

    @pytest.mark.parametrize("q", [0, 0.5, 50, 99, 100])
    def test_single_sample_is_every_percentile(self, q):
        assert percentile([7.5], q) == 7.5

    def test_p0_is_min_and_p100_is_max(self):
        values = [9.0, 1.0, 5.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_nearest_rank_is_an_observed_sample(self):
        values = [10.0, 20.0, 30.0, 40.0]
        # ceil(q/100 * 4)-th order statistic, never an interpolation.
        assert percentile(values, 25) == 10.0
        assert percentile(values, 26) == 20.0
        assert percentile(values, 50) == 20.0
        assert percentile(values, 75) == 30.0
        assert percentile(values, 76) == 40.0

    def test_input_order_is_irrelevant(self):
        assert percentile([3.0, 1.0, 2.0], 50) == \
            percentile([1.0, 2.0, 3.0], 50) == 2.0
