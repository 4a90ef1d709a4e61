"""Tests for the Estimate view, the Bernoulli and SRS designs' estimates
(unbiasedness, coverage, FPC, ratios) and a-priori sample sizes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro import ErrorSpec, Table
from repro.estimators.closed_form import (
    Estimate,
    required_rate_for_sum,
    required_sample_size_for_mean,
)
from repro.sampling.base import WeightedSample
from repro.sampling.row import bernoulli_sample, srs_sample


@pytest.fixture(scope="module")
def population():
    rng = np.random.default_rng(11)
    return rng.gamma(2.0, 50.0, 50_000)


def _bernoulli(values, rate, population_rows):
    """The Bernoulli sample that kept ``values`` at ``rate``."""
    return WeightedSample(
        Table({"y": values}), np.full(len(values), 1.0 / rate),
        "bernoulli_rows", population_rows, {"rate": rate},
    )


def _srs(values, population_rows):
    """The SRS of ``population_rows`` rows that drew ``values``."""
    return WeightedSample(
        Table({"y": values}), np.full(len(values), population_rows / max(len(values), 1)),
        "srs_rows", population_rows, {"size": len(values)},
    )


class TestEstimateObject:
    def test_ci_symmetric(self):
        est = Estimate(100.0, 25.0, 1000)
        lo, hi = est.ci(0.95)
        assert hi - 100 == pytest.approx(100 - lo)
        assert hi - lo == pytest.approx(2 * 1.959964 * 5.0, rel=1e-3)

    def test_small_sample_uses_t(self):
        wide = Estimate(100.0, 25.0, 5).ci(0.95)
        narrow = Estimate(100.0, 25.0, 5000).ci(0.95)
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])

    def test_degenerate_sample(self):
        lo, hi = Estimate(1.0, 1.0, 1).ci(0.95)
        assert lo == -math.inf and hi == math.inf

    def test_satisfies_spec(self):
        tight = Estimate(100.0, 0.01, 10_000)
        assert tight.satisfies(ErrorSpec(0.05, 0.95))
        loose = Estimate(100.0, 10_000.0, 100)
        assert not loose.satisfies(ErrorSpec(0.05, 0.95))

    def test_relative_half_width_zero_value(self):
        assert Estimate(0.0, 1.0, 100).relative_half_width() == math.inf


class TestBernoulliEstimators:
    def test_sum_unbiased(self, population):
        rng = np.random.default_rng(0)
        rate = 0.02
        truth = population.sum()
        estimates = []
        for _ in range(60):
            mask = rng.random(len(population)) < rate
            sample = _bernoulli(population[mask], rate, len(population))
            estimates.append(sample.estimate_sum("y").value)
        assert np.mean(estimates) == pytest.approx(truth, rel=0.02)

    def test_sum_coverage(self, population):
        rng = np.random.default_rng(1)
        rate = 0.02
        truth = population.sum()
        hits = 0
        trials = 120
        for _ in range(trials):
            mask = rng.random(len(population)) < rate
            sample = _bernoulli(population[mask], rate, len(population))
            lo, hi = sample.estimate_sum("y").ci(0.95)
            hits += lo <= truth <= hi
        assert hits / trials >= 0.9  # allow MC slack below nominal 0.95

    def test_count(self):
        est = _bernoulli(np.ones(500), 0.05, 10_000).estimate_count()
        assert est.value == pytest.approx(10_000)
        assert est.variance > 0

    def test_avg_close(self, population):
        rng = np.random.default_rng(2)
        mask = rng.random(len(population)) < 0.05
        est = _bernoulli(population[mask], 0.05, len(population)).estimate_avg("y")
        assert est.value == pytest.approx(population.mean(), rel=0.05)

    def test_avg_empty(self):
        est = _bernoulli(np.array([]), 0.1, 100).estimate_avg("y")
        assert math.isnan(est.value)

    def test_rate_validation(self):
        table = Table({"y": np.arange(10.0)})
        with pytest.raises(ValueError):
            bernoulli_sample(table, 0.0)
        with pytest.raises(ValueError):
            bernoulli_sample(table, 1.5)


class TestSRSEstimators:
    def test_mean_with_fpc(self, population):
        rng = np.random.default_rng(3)
        idx = rng.choice(len(population), 5000, replace=False)
        est = _srs(population[idx], len(population)).estimate_avg("y")
        assert est.value == pytest.approx(population.mean(), rel=0.03)
        # FPC shrinks variance versus infinite population.
        inf_var = np.var(population[idx], ddof=1) / 5000
        assert est.variance < inf_var

    def test_full_census_zero_variance(self, population):
        est = _srs(population, len(population)).estimate_avg("y")
        assert est.variance == pytest.approx(0.0, abs=1e-9)

    def test_sum_scales_mean(self, population):
        rng = np.random.default_rng(4)
        idx = rng.choice(len(population), 1000, replace=False)
        sample = _srs(population[idx], len(population))
        mean, total = sample.estimate_avg("y"), sample.estimate_sum("y")
        assert total.value == pytest.approx(mean.value * len(population))

    def test_proportion_count(self):
        matching = np.arange(1000) < 50
        est = _srs(np.ones(1000), 100_000).estimate_count(matching)
        assert est.value == pytest.approx(5000)
        lo, hi = est.ci(0.95)
        assert lo < 5000 < hi

    def test_empty_sample(self):
        table = Table({"y": np.arange(100.0)})
        assert math.isnan(srs_sample(table, 0).estimate_avg("y").value)


class TestRatioEstimator:
    def test_matches_mean_when_denominator_ones(self, population):
        rng = np.random.default_rng(5)
        sample = population[rng.choice(len(population), 2000, replace=False)]
        est = _srs(sample, len(population)).estimate_avg("y")
        assert est.value == pytest.approx(sample.mean())

    def test_filtered_average(self, population):
        rng = np.random.default_rng(6)
        sample = population[rng.choice(len(population), 5000, replace=False)]
        match = sample > 100
        est = _srs(sample, len(population)).estimate_avg("y", match)
        assert est.value == pytest.approx(sample[match].mean(), rel=1e-9)

    def test_zero_denominator(self):
        est = _srs(np.array([1.0]), 10).estimate_avg("y", np.array([False]))
        assert math.isnan(est.value)


class TestPlanning:
    def test_required_size_grows_with_precision(self):
        loose = required_sample_size_for_mean(1.0, ErrorSpec(0.1, 0.95))
        tight = required_sample_size_for_mean(1.0, ErrorSpec(0.01, 0.95))
        assert tight > 50 * loose

    def test_required_size_fpc_caps_at_population(self):
        n = required_sample_size_for_mean(
            5.0, ErrorSpec(0.001, 0.99), population_size=1000
        )
        assert n <= 1000

    def test_required_size_delivers_error(self, population):
        spec = ErrorSpec(0.05, 0.95)
        cv = population.std() / population.mean()
        n = required_sample_size_for_mean(cv, spec, len(population))
        rng = np.random.default_rng(8)
        hits = 0
        for _ in range(100):
            idx = rng.choice(len(population), n, replace=False)
            est = _srs(population[idx], len(population)).estimate_avg("y")
            hits += abs(est.value - population.mean()) <= spec.relative_error * population.mean()
        assert hits >= 90

    def test_required_rate_for_sum_monotone(self, population):
        rng = np.random.default_rng(9)
        pilot = population[rng.random(len(population)) < 0.01]
        tight = required_rate_for_sum(pilot, 0.01, ErrorSpec(0.01, 0.95))
        loose = required_rate_for_sum(pilot, 0.01, ErrorSpec(0.10, 0.95))
        assert tight > loose

    @given(hst.floats(0.01, 0.3), hst.floats(0.5, 0.99))
    @settings(max_examples=30, deadline=None)
    def test_required_size_positive(self, err, conf):
        assert required_sample_size_for_mean(2.0, ErrorSpec(err, conf)) >= 1
