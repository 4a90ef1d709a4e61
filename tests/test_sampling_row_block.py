"""Tests for row- and block-level samplers."""

import numpy as np
import pytest

from repro import Table
from repro.audit.acceptance import coverage_lower_bound
from repro.estimators.horvitz_thompson import scale_up_weights
from repro.sampling.base import WeightedSample
from repro.sampling.block import (
    block_bernoulli_sample,
    block_fixed_sample,
    estimate_avg_blockwise,
    estimate_count_blockwise,
    estimate_sum_blockwise,
    naive_vs_clustered_variance,
)
from repro.sampling.row import bernoulli_sample, srs_sample, systematic_sample
from repro.storage.blocks import clustered_layout, shuffled_layout
from repro.workloads import clustered_values


@pytest.fixture
def table(rng):
    n = 50_000
    return Table(
        {"v": rng.exponential(10, n), "g": rng.integers(0, 5, n)},
        name="t",
        block_size=256,
    )


class TestWeightedSample:
    def test_alignment_enforced(self, table):
        with pytest.raises(ValueError):
            WeightedSample(table, np.ones(3), "x", table.num_rows)

    def test_estimate_shortcuts(self, table, rng):
        s = bernoulli_sample(table, 0.05, rng)
        assert s.estimate_sum("v").value == pytest.approx(
            table["v"].sum(), rel=0.15
        )
        assert s.estimate_count().value == pytest.approx(table.num_rows, rel=0.1)
        assert s.estimate_avg("v").value == pytest.approx(
            table["v"].mean(), rel=0.1
        )

    def test_filtered_keeps_weights_valid(self, table, rng):
        # filtering commutes with Bernoulli sampling: the surviving rows'
        # weights estimate the filtered population
        s = bernoulli_sample(table, 0.05, rng)
        mask = s.table["g"] == 2
        est = scale_up_weights(s.table["v"][mask], s.weights[mask])
        truth = table["v"][table["g"] == 2].sum()
        assert est.value == pytest.approx(truth, rel=0.2)

    def test_sampling_fraction(self, table, rng):
        s = srs_sample(table, 500, rng)
        assert s.sampling_fraction == pytest.approx(0.01)


class TestRowSamplers:
    def test_bernoulli_size_concentrates(self, table, rng):
        s = bernoulli_sample(table, 0.1, rng)
        assert abs(s.num_rows - 5000) < 400

    def test_bernoulli_weights_constant(self, table, rng):
        s = bernoulli_sample(table, 0.2, rng)
        assert np.allclose(s.weights, 5.0)

    def test_bernoulli_rate_validation(self, table):
        with pytest.raises(ValueError):
            bernoulli_sample(table, 0.0)

    def test_srs_exact_size_without_replacement(self, table, rng):
        s = srs_sample(table, 1000, rng)
        assert s.num_rows == 1000

    def test_srs_size_capped(self, rng):
        t = Table({"v": np.arange(10)})
        s = srs_sample(t, 100, rng)
        assert s.num_rows == 10

    def test_srs_negative_size(self, table):
        with pytest.raises(ValueError):
            srs_sample(table, -1)

    def test_systematic_step(self, rng):
        t = Table({"v": np.arange(100)})
        s = systematic_sample(t, 10, rng)
        assert s.num_rows == 10
        diffs = np.diff(np.sort(s.table["v"]))
        assert (diffs == 10).all()

    def test_systematic_unbiased_on_shuffled(self, table, rng):
        s = systematic_sample(table, 20, rng)
        assert s.estimate_sum("v").value == pytest.approx(
            table["v"].sum(), rel=0.2
        )


class TestBlockSamplers:
    def test_bernoulli_blocks_whole(self, table, rng):
        s = block_bernoulli_sample(table, 0.1, rng)
        ids, counts = np.unique(s.table["__block_id"], return_counts=True)
        assert (counts == 256).all() or counts[-1] <= 256

    def test_fixed_blocks_count(self, table, rng):
        s = block_fixed_sample(table, 12, rng)
        assert int(s.params["sampled_blocks"]) == 12

    def test_fixed_blocks_capped(self, rng):
        t = Table({"v": np.arange(100)}, block_size=50)
        s = block_fixed_sample(t, 10, rng)
        assert int(s.params["sampled_blocks"]) == 2

    def test_sum_estimate_shuffled_layout(self, table, rng):
        s = block_bernoulli_sample(table, 0.05, rng)
        est = estimate_sum_blockwise(s, "v")
        assert est.value == pytest.approx(table["v"].sum(), rel=0.1)

    def test_count_estimate(self, table, rng):
        s = block_bernoulli_sample(table, 0.1, rng)
        est = estimate_count_blockwise(s)
        assert est.value == pytest.approx(table.num_rows, rel=0.05)

    def test_avg_estimate(self, table, rng):
        s = block_bernoulli_sample(table, 0.1, rng)
        est = estimate_avg_blockwise(s, "v")
        assert est.value == pytest.approx(table["v"].mean(), rel=0.05)

    def test_clustered_layout_inflates_clustered_variance(self, rng):
        cols = clustered_values(20_000, block_size=200, seed=4)
        t = Table(cols, block_size=200)
        s = block_bernoulli_sample(t, 0.2, rng)
        naive, clustered = naive_vs_clustered_variance(s, "value")
        # On a clustered layout the honest (cluster) variance dwarfs the
        # naive i.i.d. one: the design effect the survey warns about.
        assert clustered > 5 * naive

    @pytest.mark.statistical
    def test_block_sum_coverage_clustered(self, rng):
        """The cluster-correct CI still covers on an adversarial layout."""
        cols = clustered_values(20_000, block_size=200, seed=5)
        t = Table(cols, block_size=200)
        truth = t["value"].sum()
        hits = 0
        for trial in range(60):
            s = block_bernoulli_sample(t, 0.25, np.random.default_rng(trial))
            lo, hi = estimate_sum_blockwise(s, "value").ci(0.95)
            hits += lo <= truth <= hi
        assert hits >= coverage_lower_bound(60, 0.95)

    def test_rate_validation(self, table):
        with pytest.raises(ValueError):
            block_bernoulli_sample(table, 2.0)
        with pytest.raises(ValueError):
            block_fixed_sample(table, -1)
