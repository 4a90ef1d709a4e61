"""Closed-form (CLT-based) estimators for sampled aggregates.

These are the workhorse estimators every sampling-based AQP system in the
survey uses: unbiased point estimates for SUM/COUNT/AVG computed from a
uniform sample, with normal-approximation confidence intervals. Two
sampling designs are supported, because their variances differ:

* **Bernoulli (Poisson) sampling** — each row kept independently with
  probability ``p``. The Horvitz–Thompson total has variance
  ``(1-p)/p · Σ y_i²`` (no finite-population correction needed; the
  randomness is in the inclusion indicators).
* **Simple random sampling (SRS) without replacement** of fixed size
  ``n`` from ``N`` — the classic ``(1 - n/N) · S² / n`` variance of the
  sample mean, scaled by ``N`` for totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec, student_t_ppf, z_value


@dataclass
class Estimate:
    """A point estimate with a variance and sample-size provenance."""

    value: float
    variance: float
    sample_size: int
    estimator: str = ""

    @property
    def std_error(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def ci(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Two-sided CLT confidence interval.

        Uses Student's t when the sample is small (<100) and the normal
        otherwise; with tiny samples the t correction matters for the
        coverage experiments.
        """
        if self.sample_size <= 1:
            return (-math.inf, math.inf)
        if self.sample_size < 100:
            crit = student_t_ppf(0.5 + confidence / 2.0, self.sample_size - 1)
        else:
            crit = z_value(confidence)
        half = crit * self.std_error
        return (self.value - half, self.value + half)

    def relative_half_width(self, confidence: float = 0.95) -> float:
        lo, hi = self.ci(confidence)
        if self.value == 0 or not math.isfinite(lo):
            return math.inf
        return (hi - lo) / 2.0 / abs(self.value)

    def satisfies(self, spec: ErrorSpec) -> bool:
        """Would this estimate's CI meet the error spec?"""
        return self.relative_half_width(spec.confidence) <= spec.relative_error

    def covers(self, truth: float, confidence: float = 0.95) -> bool:
        """Does the CI at ``confidence`` contain the exact answer?"""
        lo, hi = self.ci(confidence)
        return lo <= truth <= hi


# ----------------------------------------------------------------------
# Bernoulli / Poisson sampling estimators
# ----------------------------------------------------------------------

def bernoulli_sum(sample_values: np.ndarray, rate: float) -> Estimate:
    """HT estimate of a population SUM from a Bernoulli sample."""
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    y = np.asarray(sample_values, dtype=np.float64)
    n = len(y)
    total = float(np.sum(y)) / rate
    # HT variance for Poisson sampling, estimated from the sample:
    # Var = sum_i y_i^2 (1-p)/p; unbiased estimate divides by p once more.
    variance = float(np.sum(y * y)) * (1.0 - rate) / (rate * rate)
    return Estimate(total, variance, n, estimator="bernoulli_sum")


def bernoulli_count(sample_size: int, rate: float) -> Estimate:
    """HT estimate of a population COUNT from a Bernoulli sample."""
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    total = sample_size / rate
    variance = sample_size * (1.0 - rate) / (rate * rate)
    return Estimate(total, variance, sample_size, estimator="bernoulli_count")


def bernoulli_avg(sample_values: np.ndarray, rate: float) -> Estimate:
    """AVG as the ratio SUM/COUNT with delta-method variance.

    For a Bernoulli sample the sample mean is a consistent (ratio)
    estimator of the population mean; its variance is approximately
    ``(1-p) · S² / n`` where ``S²`` is the sample variance.
    """
    y = np.asarray(sample_values, dtype=np.float64)
    n = len(y)
    if n == 0:
        return Estimate(math.nan, math.inf, 0, estimator="bernoulli_avg")
    mean = float(np.mean(y))
    s2 = float(np.var(y, ddof=1)) if n > 1 else 0.0
    variance = (1.0 - rate) * s2 / n
    return Estimate(mean, variance, n, estimator="bernoulli_avg")


# ----------------------------------------------------------------------
# SRS-without-replacement estimators
# ----------------------------------------------------------------------

def srs_mean(sample_values: np.ndarray, population_size: int) -> Estimate:
    """Mean under SRS without replacement, with FPC."""
    y = np.asarray(sample_values, dtype=np.float64)
    n = len(y)
    if n == 0:
        return Estimate(math.nan, math.inf, 0, estimator="srs_mean")
    mean = float(np.mean(y))
    s2 = float(np.var(y, ddof=1)) if n > 1 else 0.0
    fpc = 1.0 - n / population_size if population_size > 0 else 1.0
    variance = max(fpc, 0.0) * s2 / n
    return Estimate(mean, variance, n, estimator="srs_mean")


def srs_sum(sample_values: np.ndarray, population_size: int) -> Estimate:
    """Total under SRS without replacement: N · mean."""
    mean_est = srs_mean(sample_values, population_size)
    return Estimate(
        mean_est.value * population_size,
        mean_est.variance * population_size * population_size,
        mean_est.sample_size,
        estimator="srs_sum",
    )


def ratio_from_sums(
    n: int,
    sum_num: float,
    sum_den: float,
    sum_num2: float,
    sum_den2: float,
    sum_cross: float,
) -> Estimate:
    """:func:`ratio_estimate` from precomputed moments.

    ``Σ(num - r·den)² = Σnum² - 2rΣ(num·den) + r²Σden²`` — identical to
    the residual form up to float rounding.
    """
    if n == 0 or sum_den == 0:
        return Estimate(math.nan, math.inf, n, estimator="ratio")
    r = sum_num / sum_den
    ss_resid = max(sum_num2 - 2.0 * r * sum_cross + r * r * sum_den2, 0.0)
    if n > 1:
        var = ss_resid * n / (n - 1) / (sum_den * sum_den)
    else:
        var = math.inf
    return Estimate(r, var, n, estimator="ratio")


def srs_proportion_count(
    matching: int, sample_size: int, population_size: int
) -> Estimate:
    """COUNT of rows matching a predicate from an SRS of the table."""
    if sample_size == 0:
        return Estimate(math.nan, math.inf, 0, estimator="srs_count")
    p_hat = matching / sample_size
    fpc = 1.0 - sample_size / population_size if population_size > 0 else 1.0
    var_p = max(fpc, 0.0) * p_hat * (1.0 - p_hat) / max(sample_size - 1, 1)
    return Estimate(
        p_hat * population_size,
        var_p * population_size * population_size,
        sample_size,
        estimator="srs_count",
    )


# ----------------------------------------------------------------------
# Ratio estimator (AVG over filtered subsets, per-group means, ...)
# ----------------------------------------------------------------------

def ratio_estimate(
    numerators: np.ndarray, denominators: np.ndarray
) -> Estimate:
    """Estimate ``Σ num / Σ den`` with delta-method (Taylor) variance.

    Both arrays are per-sample-row contributions (e.g. ``y_i`` and
    ``1{row matches}``). Used for AVG on Bernoulli samples and for
    per-group means where the group size is itself estimated.
    """
    num = np.asarray(numerators, dtype=np.float64)
    den = np.asarray(denominators, dtype=np.float64)
    n = len(num)
    sum_den = float(np.sum(den))
    if n == 0 or sum_den == 0:
        return Estimate(math.nan, math.inf, n, estimator="ratio")
    r = float(np.sum(num)) / sum_den
    residuals = num - r * den
    # Var(r) ~ n/(n-1) * sum(residuals^2) / (sum_den)^2
    if n > 1:
        var = float(np.sum(residuals * residuals)) * n / (n - 1) / (sum_den * sum_den)
    else:
        var = math.inf
    return Estimate(r, var, n, estimator="ratio")


# ----------------------------------------------------------------------
# Sample-size planning (inverse problems)
# ----------------------------------------------------------------------

def required_sample_size_for_mean(
    cv: float, spec: ErrorSpec, population_size: Optional[int] = None
) -> int:
    """Rows needed so a mean's relative CI half-width meets ``spec``.

    ``cv`` is the coefficient of variation (σ/|μ|) of the data. Follows
    from ``z·σ/(√n·μ) ≤ ε`` → ``n ≥ (z·cv/ε)²``, with an optional
    finite-population correction.
    """
    z = z_value(spec.confidence)
    if cv == 0:
        return 1
    n0 = (z * cv / spec.relative_error) ** 2
    if population_size is not None and population_size > 0:
        n0 = n0 / (1.0 + n0 / population_size)
    return max(1, int(math.ceil(n0)))


def required_rate_for_sum(
    sample_values: np.ndarray,
    pilot_rate: float,
    spec: ErrorSpec,
) -> float:
    """Bernoulli rate for a SUM estimate to meet ``spec``, from a pilot.

    Given pilot observations at rate ``q``, the final-rate variance of the
    HT total is ``(1-p)/p · Σ_pop y²`` with ``Σ_pop y² ≈ Σ_pilot y²/q``.
    Solving ``z·σ ≤ ε·|total|`` for ``p`` yields the returned rate
    (clamped to (0, 1]).
    """
    y = np.asarray(sample_values, dtype=np.float64)
    if len(y) == 0:
        return 1.0
    z = z_value(spec.confidence)
    total = float(np.sum(y)) / pilot_rate
    sum_sq = float(np.sum(y * y)) / pilot_rate
    if total == 0:
        return 1.0
    # (1-p)/p * sum_sq <= (eps*total/z)^2  =>  p >= sum_sq/(target + sum_sq)
    target = (spec.relative_error * abs(total) / z) ** 2
    rate = sum_sq / (target + sum_sq)
    return float(min(max(rate, 1e-9), 1.0))
