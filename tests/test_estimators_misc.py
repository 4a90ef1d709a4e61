"""Tests for Poisson (HT) and block-design estimates, bootstrap,
propagation, and cluster diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro import ErrorSpecError, Table
from repro.audit.acceptance import coverage_lower_bound, mc_mean_within
from repro.engine.expressions import BinaryOp, Column, Literal
from repro.estimators.bootstrap import (
    bootstrap_ci,
    coverage_probability,
    poissonized_bootstrap_total,
)
from repro.estimators.propagation import (
    allocate_expression,
    allocate_for_product,
    allocate_for_quotient,
    allocate_for_sum,
    propagate_difference,
    propagate_product,
    propagate_quotient,
    propagate_sum,
)
from repro.estimators.subsampling import design_effect_from_rows, jackknife_blocks
from repro.sampling.base import WeightedSample
from repro.sampling.measure_biased import measure_biased_sample
from repro.sampling.row import bernoulli_sample
from repro.sampling.universe import universe_sample


def _poisson(values, inclusion_probs):
    """The Poisson sample that kept ``values`` with ``inclusion_probs``."""
    return WeightedSample(
        Table({"y": np.asarray(values, dtype=np.float64)}),
        1.0 / np.asarray(inclusion_probs, dtype=np.float64),
        "measure_biased", len(values),
    )


def _blocks(block_sums, total_blocks):
    """A fixed-size sample of one-row blocks with the given sums."""
    m = len(block_sums)
    return WeightedSample(
        Table({"y": block_sums, "__block_id": np.arange(m)}),
        np.full(m, total_blocks / m), "block_fixed", total_blocks,
        {"total_blocks": total_blocks, "sampled_blocks": m},
    )


class TestHorvitzThompson:
    def test_uniform_probs_recover_scaling(self):
        y = np.array([1.0, 2.0, 3.0])
        est = _poisson(y, np.full(3, 0.1)).estimate_sum("y")
        assert est.value == pytest.approx(60.0)

    @pytest.mark.statistical
    def test_unbiased_under_nonuniform_design(self, rng):
        values = rng.exponential(10, 5000)
        pi = np.clip(values / values.max(), 0.02, 1.0)
        totals = []
        for _ in range(150):
            keep = rng.random(5000) < pi
            totals.append(_poisson(values[keep], pi[keep]).estimate_sum("y").value)
        assert mc_mean_within(totals, values.sum())

    def test_count(self):
        est = _poisson(np.ones(10), np.full(10, 0.5)).estimate_count()
        assert est.value == pytest.approx(20.0)

    def test_mean_weighted(self):
        # two strata: rare rows (pi=0.1) valued 100, common (pi=1) valued 0
        values = np.array([100.0, 0.0, 0.0])
        pi = np.array([0.1, 1.0, 1.0])
        est = _poisson(values, pi).estimate_avg("y")
        assert est.value == pytest.approx(1000.0 / 12.0)

    def test_invalid_probs(self):
        table = Table({"y": np.arange(10.0)})
        with pytest.raises(ValueError):
            bernoulli_sample(table, 0.0)
        with pytest.raises(ValueError):
            bernoulli_sample(table, 1.5)

    def test_alignment(self):
        with pytest.raises(ValueError):
            WeightedSample(Table({"y": np.array([1.0])}), np.array([2.0, 2.0]), "x", 1)

    def test_scale_up_weights(self):
        sample = WeightedSample(
            Table({"y": np.array([2.0, 4.0])}), np.array([10.0, 10.0]), "x", 20
        )
        assert sample.estimate_sum("y").value == pytest.approx(60.0)

    def test_weights_below_one_rejected(self):
        with pytest.raises(ValueError):
            measure_biased_sample(Table({"y": np.arange(10.0)}), "y", 0)
        with pytest.raises(ValueError):
            universe_sample(Table({"k": np.arange(10)}), "k", 2.0)


class TestBootstrap:
    def test_mean_ci_contains_truth_usually(self, rng):
        pop = rng.normal(50, 10, 2000)
        res = bootstrap_ci(pop[:400], np.mean, num_replicates=300, rng=rng)
        assert res.ci_low < 50 < res.ci_high

    def test_point_estimate_is_statistic(self, rng):
        data = rng.random(100)
        res = bootstrap_ci(data, np.median, num_replicates=50, rng=rng)
        assert res.value == pytest.approx(np.median(data))

    def test_empty_sample(self):
        res = bootstrap_ci(np.array([]), np.mean, num_replicates=10)
        assert math.isnan(res.value)

    def test_poissonized_total(self, rng):
        pop = rng.exponential(5, 20_000)
        rate = 0.05
        mask = rng.random(len(pop)) < rate
        res = poissonized_bootstrap_total(pop[mask], rate, num_replicates=300, rng=rng)
        assert res.ci_low < pop.sum() < res.ci_high

    @pytest.mark.statistical
    def test_coverage_probability_interface(self, rng):
        pop = rng.normal(0, 1, 3000)

        def interval(sample, r):
            res = bootstrap_ci(sample, np.mean, num_replicates=100, rng=r)
            return res.ci_low, res.ci_high

        cov = coverage_probability(pop, np.mean, interval, 200, num_trials=40)
        assert coverage_lower_bound(40, 0.95) / 40 <= cov <= 1.0


class TestPropagation:
    @given(hst.floats(0, 0.3), hst.floats(0, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_product_bound_holds(self, e1, e2):
        # worst case realized at x(1+e1) * y(1+e2)
        bound = propagate_product([e1, e2])
        realized = (1 + e1) * (1 + e2) - 1
        assert realized <= bound + 1e-12

    @given(hst.floats(0, 0.3), hst.floats(0, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_quotient_bound_holds(self, en, ed):
        bound = propagate_quotient(en, ed)
        # worst case: numerator high, denominator low
        realized = (1 + en) / (1 - ed) - 1
        assert realized <= bound + 1e-9

    def test_quotient_denominator_blowup(self):
        assert propagate_quotient(0.01, 1.0) == math.inf

    def test_sum_bound(self):
        assert propagate_sum([0.1, 0.02]) == pytest.approx(0.1)

    def test_difference_cancellation(self):
        assert propagate_difference(0.01, 0.01, 100.0, 99.9) > 1.0
        assert propagate_difference(0.01, 0.01, 100.0, 100.0) == math.inf

    @given(hst.floats(0.01, 0.5), hst.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_product_allocation_inverts(self, target, k):
        per = allocate_for_product(target, k)
        assert propagate_product([per] * k) <= target + 1e-9

    @given(hst.floats(0.01, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_quotient_allocation_inverts(self, target):
        per = allocate_for_quotient(target)
        assert propagate_quotient(per, per) <= target + 1e-9

    def test_sum_allocation_full_budget(self):
        assert allocate_for_sum(0.07) == 0.07

    def test_negative_error_rejected(self):
        with pytest.raises(ErrorSpecError):
            propagate_product([-0.1])

    def test_allocate_expression_quotient(self):
        expr = BinaryOp("/", Column("a"), Column("b"))
        alloc = allocate_expression(expr, 0.1)
        assert alloc["a"] == pytest.approx(0.1 / 2.1)
        assert alloc["b"] == pytest.approx(0.1 / 2.1)

    def test_allocate_expression_bare_column(self):
        alloc = allocate_expression(Column("a"), 0.05)
        assert alloc == {"a": 0.05}

    def test_allocate_expression_takes_min(self):
        # a appears both bare-ish and inside a product: keep the tighter.
        expr = BinaryOp("+", Column("a"), BinaryOp("*", Column("a"), Column("b")))
        alloc = allocate_expression(expr, 0.1)
        assert alloc["a"] <= 0.1


class TestClusterVariance:
    def test_per_block_totals(self):
        # blocks 0 and 7, two rows each, sampled of 10: 10 · mean(3, 7)
        sample = WeightedSample(
            Table({"y": np.array([1.0, 2.0, 3.0, 4.0]), "__block_id": np.array([0, 0, 7, 7])}),
            np.full(4, 5.0), "block_fixed", 20, {"total_blocks": 10, "sampled_blocks": 2},
        )
        assert sample.estimate_sum("y").value == pytest.approx(5 * 10.0)
        assert sample.estimate_count().value == pytest.approx(20.0)
        assert sample.estimate_count().sample_size == 2

    def test_block_sum_estimates_total(self, rng):
        # 100 blocks of 10 rows; sample 30 block sums.
        block_sums = rng.normal(100, 10, 100)
        sampled = block_sums[:30]
        est = _blocks(sampled, 100).estimate_sum("y")
        assert est.value == pytest.approx(100 * sampled.mean())
        assert est.variance > 0

    def test_block_sum_census_has_zero_variance(self, rng):
        block_sums = rng.normal(100, 10, 50)
        est = _blocks(block_sums, 50).estimate_sum("y")
        assert est.variance == pytest.approx(0.0, abs=1e-9)

    def test_block_avg_ratio(self, rng):
        sums = rng.normal(500, 20, 40)
        counts = np.full(40, 10.0)
        rows = np.repeat(sums / 10.0, 10)
        sample = WeightedSample(
            Table({"y": rows, "__block_id": np.repeat(np.arange(40), 10)}),
            np.full(400, 5.0), "block_fixed", 2000,
            {"total_blocks": 200, "sampled_blocks": 40},
        )
        est = sample.estimate_avg("y")
        assert est.value == pytest.approx(sums.sum() / counts.sum())

    def test_design_effect_clustered_vs_shuffled(self, rng):
        n, bs = 20_000, 100
        blocks = np.repeat(np.arange(n // bs), bs)
        clustered = np.repeat(rng.normal(0, 10, n // bs), bs) + rng.normal(0, 0.1, n)
        shuffled = rng.permutation(clustered)
        deff_clustered = design_effect_from_rows(clustered, blocks)
        deff_shuffled = design_effect_from_rows(shuffled, blocks)
        assert deff_clustered > 20
        assert deff_shuffled < 3

    def test_jackknife_linear_statistic_matches_classic(self, rng):
        vals = rng.normal(10, 2, 30)
        jk = jackknife_blocks(vals, np.mean)
        classic = np.var(vals, ddof=1) / len(vals)
        assert jk.variance == pytest.approx(classic, rel=0.05)

    def test_jackknife_single_block(self):
        est = jackknife_blocks(np.array([1.0]), np.mean)
        assert est.variance == math.inf
