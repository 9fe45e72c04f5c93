"""Unit tests for the statistics accumulators."""

import pytest

from repro.sim.stats import (
    IntervalAccumulator,
    SummaryStats,
    TimeSeries,
    TimeWeightedStat,
)


# --------------------------------------------------------------------------- #
# IntervalAccumulator                                                          #
# --------------------------------------------------------------------------- #
def test_interval_accumulator_basic_busy_time():
    acc = IntervalAccumulator()
    acc.begin(1.0)
    acc.end(3.0)
    acc.begin(5.0)
    acc.end(6.0)
    assert acc.busy_time() == pytest.approx(3.0)


def test_interval_accumulator_nested_intervals_count_once():
    acc = IntervalAccumulator()
    acc.begin(0.0)
    acc.begin(1.0)
    acc.end(2.0)
    acc.end(4.0)
    assert acc.busy_time() == pytest.approx(4.0)


def test_interval_accumulator_open_interval_counts_up_to_now():
    acc = IntervalAccumulator()
    acc.begin(2.0)
    assert acc.busy_time(now=5.0) == pytest.approx(3.0)


def test_interval_accumulator_end_without_begin():
    acc = IntervalAccumulator()
    with pytest.raises(ValueError):
        acc.end(1.0)


# --------------------------------------------------------------------------- #
# TimeWeightedStat                                                             #
# --------------------------------------------------------------------------- #
def test_time_weighted_mean():
    stat = TimeWeightedStat(0.0)
    stat.update(2.0, 4.0)    # value 0 for [0,2)
    stat.update(4.0, 0.0)    # value 4 for [2,4)
    assert stat.mean(4.0) == pytest.approx(2.0)


def test_time_weighted_adjust_deltas():
    # Relative moves, as the LWP cluster's activity counter drives it.
    stat = TimeWeightedStat(0.0)
    stat.update(1.0, stat.value + 3)
    stat.update(2.0, stat.value - 1)
    assert stat.value == 2
    assert stat.mean(3.0) == pytest.approx((0 + 3 + 2) / 3)


def test_time_weighted_rejects_time_reversal():
    stat = TimeWeightedStat(0.0)
    stat.update(5.0, 1.0)
    with pytest.raises(ValueError):
        stat.update(4.0, 2.0)


# --------------------------------------------------------------------------- #
# TimeSeries                                                                   #
# --------------------------------------------------------------------------- #
def test_time_series_value_at_piecewise_constant():
    series = TimeSeries()
    series.record(0.0, 1.0)
    series.record(2.0, 5.0)
    assert series.value_at(0.5) == 1.0
    assert series.value_at(2.0) == 5.0
    assert series.value_at(10.0) == 5.0


def test_time_series_requires_monotonic_times():
    series = TimeSeries()
    series.record(1.0, 0.0)
    with pytest.raises(ValueError):
        series.record(0.5, 0.0)


def test_time_series_resample_grid():
    series = TimeSeries()
    series.record(0.0, 0.0)
    series.record(1.0, 10.0)
    series.record(3.0, 20.0)
    resampled = series.resample(1.0, end=3.0)
    assert resampled.times() == [0.0, 1.0, 2.0, 3.0]
    assert resampled.values() == [0.0, 10.0, 10.0, 20.0]


def test_time_series_resample_empty_and_bad_step():
    series = TimeSeries()
    assert len(series.resample(1.0)) == 0
    series.record(0.0, 1.0)
    with pytest.raises(ValueError):
        series.resample(0.0)


# --------------------------------------------------------------------------- #
# SummaryStats                                                                 #
# --------------------------------------------------------------------------- #
def test_summary_stats_min_mean_max():
    stats = SummaryStats([3.0, 1.0, 2.0])
    assert stats.min == 1.0
    assert stats.max == 3.0
    assert stats.mean == pytest.approx(2.0)


def test_summary_stats_add_keeps_sorted_percentiles():
    stats = SummaryStats(v for v in (5.0, 1.0, 3.0, 2.0, 4.0))
    assert stats.percentile(0) == 1.0
    assert stats.percentile(50) == 3.0
    assert stats.percentile(100) == 5.0


def test_summary_stats_cdf_points():
    stats = SummaryStats([1.0, 2.0])
    # Nearest-rank percentiles step through the empirical CDF.
    assert [stats.percentile(p) for p in (25, 50, 51, 100)] \
        == [1.0, 1.0, 2.0, 2.0]


def test_summary_stats_empty_raises():
    stats = SummaryStats()
    with pytest.raises(ValueError):
        _ = stats.min
    with pytest.raises(ValueError):
        stats.percentile(50)


def test_summary_stats_percentile_bounds():
    stats = SummaryStats([1.0])
    with pytest.raises(ValueError):
        stats.percentile(101)


# --------------------------------------------------------------------------- #
# LatencyReservoir                                                             #
# --------------------------------------------------------------------------- #
def test_reservoir_exact_below_capacity():
    from repro.sim.stats import LatencyReservoir
    reservoir = LatencyReservoir(capacity=100, seed=3)
    values = [float(v) for v in range(1, 51)]
    for v in values:
        reservoir.observe(v)
    assert reservoir.count == 50
    assert len(reservoir) == 50         # every sample kept: exact
    assert reservoir.percentile(0) == 1.0
    assert reservoir.max == 50.0
    assert reservoir.mean == pytest.approx(sum(values) / 50)
    assert reservoir.percentile(50) == 25.0
    assert reservoir.percentile(100) == 50.0
    assert reservoir.percentile(99) == 50.0


def test_reservoir_bounded_memory_and_sane_estimates():
    from repro.sim.stats import LatencyReservoir
    reservoir = LatencyReservoir(capacity=256, seed=7)
    for v in range(10_000):
        reservoir.observe(float(v))
    assert len(reservoir) == 256
    assert reservoir.count > len(reservoir)     # a uniform sample now
    assert reservoir.count == 10_000
    assert reservoir.max == 9999.0
    # The uniform-sample median must land near the true median.
    assert 3000.0 < reservoir.percentile(50) < 7000.0
    # p100 is always the exact maximum, even when sampled.
    assert reservoir.percentile(100) == 9999.0


def test_reservoir_deterministic_for_fixed_seed():
    from repro.sim.stats import LatencyReservoir
    def fill(seed):
        r = LatencyReservoir(capacity=64, seed=seed)
        for v in range(1000):
            r.observe(float(v % 97))
        # Every nearest rank: the reservoir's whole sorted sample.
        return [r.percentile(100.0 * rank / 64) for rank in range(65)]
    assert fill(11) == fill(11)
    assert fill(11) != fill(12)


def test_reservoir_rejects_bad_input():
    from repro.sim.stats import LatencyReservoir
    with pytest.raises(ValueError):
        LatencyReservoir(capacity=0)
    reservoir = LatencyReservoir()
    with pytest.raises(ValueError):
        reservoir.observe(-1.0)
    with pytest.raises(ValueError):
        _ = reservoir.mean
