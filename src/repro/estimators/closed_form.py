"""The per-cell view of a sampled estimate, and a-priori sample sizes.

:class:`Estimate` is one cell of a library sample's moment table
(:meth:`repro.sampling.base.WeightedSample.moments`); its variance and
critical value come from :mod:`repro.online.estimation`. The
``required_*`` functions size a sample before it is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec, z_value


@dataclass
class Estimate:
    """A point estimate with a variance and sample-size provenance."""

    value: float
    variance: float
    sample_size: int

    @property
    def std_error(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def ci(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Two-sided CLT confidence interval at
        :func:`~repro.online.estimation.critical_value` of the units."""
        from ..online.estimation import critical_value  # online imports this module

        crit = critical_value(self.sample_size, confidence)
        if math.isinf(crit):
            return (-math.inf, math.inf)
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
