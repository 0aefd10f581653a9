"""Tests for repro.workload.distributions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.workload.distributions import (
    geometric_run_length,
    geometric_run_lengths,
    poisson_arrivals,
    sorted_counts,
    top_k_share,
    zipf_weights,
)


class TestZipfWeights:
    def test_normalized(self):
        weights = zipf_weights(100, 1.3)
        assert weights.sum() == pytest.approx(1.0)
        assert len(weights) == 100

    def test_monotone_decreasing(self):
        weights = zipf_weights(50, 1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_exponent_zero_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert np.allclose(weights, 0.1)

    def test_higher_exponent_more_skewed(self):
        flat = zipf_weights(100, 0.8)
        steep = zipf_weights(100, 1.8)
        assert steep[0] > flat[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)


class TestTopKShare:
    def test_basic(self):
        counts = [90, 5, 3, 2]
        assert top_k_share(counts, 1) == pytest.approx(0.9)
        assert top_k_share(counts, 4) == pytest.approx(1.0)

    def test_unsorted_input(self):
        assert top_k_share([2, 90, 8], 1) == pytest.approx(0.9)

    def test_k_beyond_length(self):
        assert top_k_share([1, 1], 10) == 1.0

    def test_empty_or_zero(self):
        assert top_k_share([], 5) == 0.0
        assert top_k_share([0, 0], 1) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            top_k_share([1], -1)


class TestSortedCounts:
    def test_descending(self):
        assert sorted_counts({1: 5, 2: 9, 3: 1}) == [9, 5, 1]


class TestGeometricRunLength:
    def test_bounds(self):
        rng = np.random.default_rng(0)
        for __ in range(200):
            length = geometric_run_length(rng, mean=3.0, cap=8)
            assert 1 <= length <= 8

    def test_mean_close_to_target(self):
        rng = np.random.default_rng(1)
        samples = [geometric_run_length(rng, 4.0, 1000) for __ in range(5000)]
        assert np.mean(samples) == pytest.approx(4.0, rel=0.1)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            geometric_run_length(rng, 0.5, 10)
        with pytest.raises(ValueError):
            geometric_run_length(rng, 2.0, 0)

    @pytest.mark.parametrize("mean", [12.0, 6.0, 1 / 0.33, 1 / 0.34, 2.0, 1 / 0.9])
    def test_batched_draws_match_scalar_draws(self, mean):
        """numpy's geometric sampler searches for p >= 1/3 and inverts
        below; either way one batched call gives the scalar values and
        leaves the generator where the scalar calls do."""
        scalar_rng = np.random.default_rng(7)
        batch_rng = np.random.default_rng(7)
        scalar = [geometric_run_length(scalar_rng, mean, 9) for __ in range(500)]
        assert geometric_run_lengths(batch_rng, mean, 9, 500) == scalar
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_batched_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            geometric_run_lengths(rng, 0.5, 10, 3)
        with pytest.raises(ValueError):
            geometric_run_lengths(rng, 2.0, 0, 3)


class TestPoissonArrivals:
    def test_arrivals_sorted_and_in_range(self):
        rng = np.random.default_rng(2)
        arrivals = poisson_arrivals(rng, rate_per_ms=0.01, duration_ms=10_000)
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 10_000 for t in arrivals)

    def test_rate_determines_count(self):
        rng = np.random.default_rng(3)
        arrivals = poisson_arrivals(rng, rate_per_ms=0.01, duration_ms=1e6)
        assert len(arrivals) == pytest.approx(10_000, rel=0.1)

    def test_clumping_preserves_rate(self):
        rng = np.random.default_rng(4)
        clumped = poisson_arrivals(
            rng, rate_per_ms=0.01, duration_ms=1e6, clump_mean=4.0
        )
        assert len(clumped) == pytest.approx(10_000, rel=0.15)

    def test_clumping_increases_burstiness(self):
        """With clumping, inter-arrival variance rises above Poisson."""
        rng = np.random.default_rng(5)
        plain = poisson_arrivals(rng, 0.01, 1e6)
        clumped = poisson_arrivals(rng, 0.01, 1e6, clump_mean=5.0,
                                   clump_spread_ms=100.0)
        cv_plain = np.std(np.diff(plain)) / np.mean(np.diff(plain))
        cv_clumped = np.std(np.diff(clumped)) / np.mean(np.diff(clumped))
        assert cv_clumped > cv_plain

    def test_zero_rate_gives_nothing(self):
        rng = np.random.default_rng(0)
        assert poisson_arrivals(rng, 0.0, 1000.0) == []

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, -1.0, 10.0)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, 1.0, 0.0)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, 1.0, 10.0, clump_mean=0.5)


@given(n=st.integers(min_value=1, max_value=2000),
       s=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
def test_zipf_weights_always_a_distribution(n, s):
    weights = zipf_weights(n, s)
    assert weights.min() >= 0
    assert weights.sum() == pytest.approx(1.0)


@given(
    counts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=100),
    k=st.integers(min_value=0, max_value=120),
)
def test_top_k_share_monotone_in_k(counts, k):
    assert 0.0 <= top_k_share(counts, k) <= top_k_share(counts, k + 1) <= 1.0
