"""Order statistics used by the run summaries."""

from perfbench.summary import smoothed_percentile, spread, tail_percentile


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(99) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(300) == 95.0
    assert tail_percentile(1_000) == 99.0
    assert tail_percentile(100_000) == 99.99


def test_spread_is_the_quartile_distance_over_the_median():
    result = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert result["median"] == 3.0
    assert result["n"] == 5
    assert abs(result["iqr_frac"] - 3.0 / 3.0) < 1e-12
    assert spread([7.0]) == {"median": 7.0, "iqr_frac": 0.0, "n": 1}


def test_smoothed_percentile_averages_a_window_around_the_rank():
    ordered = [float(x) for x in range(1, 101)]
    # p40..p60 for the median, p85..p95 for p90.
    assert smoothed_percentile(ordered, 50.0) == sum(range(40, 61)) / 21
    assert smoothed_percentile(ordered, 90.0) == sum(range(85, 96)) / 11
    assert smoothed_percentile([3.0], 50.0) == 3.0


def test_smoothed_median_does_not_jump_across_a_gap():
    # Two clusters meeting at the median: moving one sample across the
    # gap moves the plain median by the whole gap, the smoothed one by
    # a tenth of the cluster difference.
    low, high = [10.0] * 50, [40.0] * 50
    before = sorted(low + high)
    after = sorted(low[1:] + high + [40.0])
    assert abs(smoothed_percentile(after, 50.0)
               - smoothed_percentile(before, 50.0)) < 2.0
