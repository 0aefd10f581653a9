"""Tests for repro.stats.histogram."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats.histogram import DistanceHistogram, TimeHistogram


class TestTimeHistogram:
    def test_empty(self):
        hist = TimeHistogram()
        assert hist.mean_ms == 0.0
        assert hist.stdev_ms == 0.0
        assert hist.cdf() == []
        assert hist.fraction_below(100) == 0.0

    def test_mean_is_full_resolution(self):
        """Section 4.1.5: cumulative times keep full (microsecond)
        resolution even though the distribution is 1 ms bucketed."""
        hist = TimeHistogram()
        hist.record(0.25)
        hist.record(0.75)
        assert hist.mean_ms == pytest.approx(0.5)
        assert hist.buckets[0] == 2  # both land in the 0ms bucket

    def test_bucketing_at_1ms(self):
        hist = TimeHistogram()
        hist.record(3.999)
        hist.record(4.0)
        assert hist.buckets[3] == 1
        assert hist.buckets[4] == 1

    def test_fraction_below(self):
        hist = TimeHistogram()
        for value in (5.0, 15.0, 25.0, 35.0):
            hist.record(value)
        assert hist.fraction_below(20.0) == pytest.approx(0.5)
        assert hist.fraction_below(100.0) == 1.0
        assert hist.fraction_below(1.0) == 0.0

    def test_cdf_monotone_and_complete(self):
        hist = TimeHistogram()
        for value in (1.0, 2.0, 2.5, 9.0):
            hist.record(value)
        cdf = hist.cdf()
        fractions = [f for __, f in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_percentile(self):
        hist = TimeHistogram()
        for value in range(100):
            hist.record(float(value))
        assert hist.percentile(0.5) == pytest.approx(50.0, abs=1.0)
        assert hist.percentile(1.0) == pytest.approx(100.0, abs=1.0)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            TimeHistogram().percentile(1.5)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            TimeHistogram().record(-1.0)

    def test_merge(self):
        a, b = TimeHistogram(), TimeHistogram()
        a.record(1.0)
        b.record(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean_ms == pytest.approx(2.0)
        assert a.max_ms == 3.0

    def test_merge_resolution_mismatch(self):
        a = TimeHistogram(resolution_ms=1.0)
        b = TimeHistogram(resolution_ms=2.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_stdev(self):
        hist = TimeHistogram()
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            hist.record(value)
        assert hist.stdev_ms == pytest.approx(2.0)


class TestDistanceHistogram:
    def test_mean_and_zero_fraction(self):
        hist = DistanceHistogram()
        for distance in (0, 0, 0, 10):
            hist.record(distance)
        assert hist.mean == pytest.approx(2.5)
        assert hist.zero_fraction == pytest.approx(0.75)

    def test_empty(self):
        hist = DistanceHistogram()
        assert hist.mean == 0.0
        assert hist.zero_fraction == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DistanceHistogram().record(-1)

    def test_merge(self):
        a, b = DistanceHistogram(), DistanceHistogram()
        a.record(1)
        b.record(3)
        a.merge(b)
        assert a.count == 2 and a.mean == 2.0


@given(
    samples=st.lists(
        st.floats(min_value=0, max_value=10_000, allow_nan=False),
        min_size=1,
        max_size=300,
    )
)
def test_time_histogram_matches_numpy(samples):
    hist = TimeHistogram()
    for sample in samples:
        hist.record(sample)
    assert hist.count == len(samples)
    assert hist.mean_ms == pytest.approx(float(np.mean(samples)), rel=1e-9, abs=1e-9)
    assert hist.max_ms == max(samples)
    assert sum(hist.buckets.values()) == len(samples)


@given(
    samples=st.lists(
        st.floats(min_value=0, max_value=500, allow_nan=False),
        min_size=1,
        max_size=200,
    ),
    threshold=st.floats(min_value=0, max_value=600, allow_nan=False),
)
def test_fraction_below_agrees_with_bucketed_count(samples, threshold):
    hist = TimeHistogram()
    for sample in samples:
        hist.record(sample)
    expected = sum(1 for s in samples if int(s) < int(threshold)) / len(samples)
    assert hist.fraction_below(threshold) == pytest.approx(expected)


# ----------------------------------------------------------------------
# Streaming log-scale histograms (repro.stats.streaming)
# ----------------------------------------------------------------------

from repro.stats.streaming import LogHistogram, merge_histograms  # noqa: E402


def _log_hist(samples):
    hist = LogHistogram()
    for sample in samples:
        hist.record(sample)
    return hist


class TestLogHistogram:
    def test_empty(self):
        hist = LogHistogram()
        assert hist.count == 0
        assert hist.mean_ms == 0.0
        assert hist.percentile(0.5) == 0.0
        assert len(hist.counts) == hist.num_bins

    def test_exact_cumulative_stats(self):
        hist = _log_hist([1.0, 10.0, 100.0])
        assert hist.count == 3
        assert hist.mean_ms == pytest.approx(37.0)
        assert hist.max_ms == 100.0

    def test_percentile_relative_error_is_bounded(self):
        """A log bin's width bounds the percentile's relative error at
        10**(1/bins_per_decade) - 1 (~7.5% at 32 bins/decade)."""
        hist = LogHistogram()
        samples = [0.5 * 1.11**i for i in range(120)]
        for sample in samples:
            hist.record(sample)
        exact = sorted(samples)[int(0.95 * len(samples))]
        bound = 10 ** (1 / hist.bins_per_decade)
        assert exact / bound <= hist.percentile(0.95) <= exact * bound

    def test_clamping_keeps_true_max(self):
        hist = LogHistogram(min_value_ms=1.0, decades=2)
        hist.record(0.001)  # below the first edge
        hist.record(1e9)  # beyond the last edge
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1
        assert hist.max_ms == 1e9
        assert hist.percentile(1.0) == 1e9

    def test_merge_requires_identical_config(self):
        with pytest.raises(ValueError, match="differing configuration"):
            LogHistogram().merge(LogHistogram(bins_per_decade=8))

    def test_merge_is_associative_and_order_independent(self):
        a = _log_hist([1, 2, 3, 500])
        b = _log_hist([10, 20])
        c = _log_hist([0.3, 7000.0])

        ab_c = merge_histograms([merge_histograms([a, b]), c])
        a_bc = merge_histograms([a, merge_histograms([b, c])])
        cba = merge_histograms([c, b, a])
        for other in (a_bc, cba):
            assert ab_c.counts == other.counts
            assert ab_c.count == other.count
            assert ab_c.max_ms == other.max_ms
            assert ab_c.total_ms == pytest.approx(other.total_ms)

    def test_merge_leaves_inputs_untouched(self):
        a = _log_hist([1.0])
        merge_histograms([a, _log_hist([2.0, 3.0])])
        assert a.count == 1

    def test_merge_empty_iterable_rejected(self):
        with pytest.raises(ValueError):
            merge_histograms([])

    def test_absorb_time_histogram_preserves_exact_sums(self):
        time_hist = TimeHistogram()
        for sample in (0.2, 1.7, 19.5, 250.0):
            time_hist.record(sample)
        log_hist = LogHistogram()
        log_hist.absorb_time_histogram(time_hist)
        assert log_hist.count == time_hist.count
        assert log_hist.total_ms == pytest.approx(time_hist.total_ms)
        assert log_hist.max_ms == time_hist.max_ms
        assert sum(log_hist.counts) == time_hist.count

    def test_payload_roundtrip(self):
        hist = _log_hist([0.9, 4.2, 33.0, 33.0, 9000.0])
        clone = LogHistogram.from_payload(hist.payload())
        assert clone.counts == hist.counts
        assert clone.count == hist.count
        assert clone.total_ms == hist.total_ms
        assert clone.max_ms == hist.max_ms
        assert clone.percentile(0.95) == hist.percentile(0.95)

    def test_payload_only_carries_nonzero_bins(self):
        payload = _log_hist([5.0]).payload()
        assert len(payload["bins"]) == 1

    def test_weighted_record(self):
        hist = LogHistogram()
        hist.record(10.0, weight=5)
        assert hist.count == 5
        assert hist.mean_ms == pytest.approx(10.0)
        hist.record(10.0, weight=0)
        assert hist.count == 5


@given(
    chunks=st.lists(
        st.lists(
            st.floats(min_value=0, max_value=100_000, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        min_size=2,
        max_size=6,
    )
)
def test_log_histogram_merge_equals_single_stream(chunks):
    """Sharded recording then merging == recording everything in one
    histogram — the property fleet aggregation rests on."""
    merged = merge_histograms([_log_hist(chunk) for chunk in chunks])
    single = _log_hist([s for chunk in chunks for s in chunk])
    assert merged.counts == single.counts
    assert merged.count == single.count
    assert merged.max_ms == single.max_ms
    assert merged.total_ms == pytest.approx(single.total_ms)
    for q in (0.5, 0.95, 0.99):
        assert merged.percentile(q) == single.percentile(q)
