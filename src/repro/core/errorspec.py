"""Error specifications and their semantics.

An :class:`ErrorSpec` states the user's accuracy contract: *every* reported
aggregate, in every group, must have relative error at most ``relative_error``
— simultaneously — with probability at least ``confidence``. This "joint"
semantics is the strong form; splitting the failure probability across
aggregates via Boole's inequality (union bound) is how planners reduce it
to per-estimate requirements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List

from .exceptions import ErrorSpecError


@dataclass(frozen=True)
class ErrorSpec:
    """Target relative error at a confidence level.

    Parameters
    ----------
    relative_error:
        Maximum allowed ``|estimate - truth| / |truth|``, e.g. ``0.05``.
    confidence:
        Probability with which all estimates must satisfy it, e.g. ``0.95``.
    min_group_size:
        Group-by guarantee knob: groups with at least this many rows must
        appear in the result with high probability; smaller groups may be
        missed (every sampling-based system has such a floor).
    """

    relative_error: float
    confidence: float = 0.95
    min_group_size: int = 100

    def __post_init__(self) -> None:
        if not (0.0 < self.relative_error < 1.0):
            raise ErrorSpecError(
                f"relative_error must be in (0, 1), got {self.relative_error}"
            )
        if not (0.0 < self.confidence < 1.0):
            raise ErrorSpecError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.min_group_size < 1:
            raise ErrorSpecError("min_group_size must be >= 1")

    @property
    def failure_probability(self) -> float:
        return 1.0 - self.confidence

    def split_confidence(self, num_estimates: int) -> "ErrorSpec":
        """Per-estimate spec after a union bound over ``num_estimates``.

        If each estimate fails with probability at most
        ``(1 - confidence) / k``, the union bound guarantees the joint
        confidence.
        """
        if num_estimates < 1:
            raise ErrorSpecError("num_estimates must be >= 1")
        per_failure = self.failure_probability / num_estimates
        return replace(self, confidence=1.0 - per_failure)

    def split_error(self, num_factors: int) -> "ErrorSpec":
        """Per-factor spec when a composite aggregate multiplies/divides
        ``num_factors`` simple aggregates (error-propagation allocation)."""
        if num_factors < 1:
            raise ErrorSpecError("num_factors must be >= 1")
        return replace(self, relative_error=self.relative_error / num_factors)

    def __str__(self) -> str:
        return (
            f"±{self.relative_error * 100:.3g}% @ "
            f"{self.confidence * 100:.3g}% confidence"
        )


def z_value(confidence: float) -> float:
    """Two-sided standard normal critical value for ``confidence``.

    Implemented with the inverse error function via Newton iterations so the
    core library needs only numpy-free math (scipy is used in tests to
    validate it).
    """
    if not (0.0 < confidence < 1.0):
        raise ErrorSpecError(f"confidence must be in (0, 1), got {confidence}")
    p = 0.5 + confidence / 2.0  # upper quantile
    return normal_ppf(p)


#: Bound on each quantile memo. The functions below are pure and their
#: arguments repeat (planners ask for the same confidence splits and
#: pilot-block counts query after query), while one ``student_t_ppf``
#: call is a ~40-step bisection through a pure-Python continued fraction.
_QUANTILE_CACHE_SIZE = 4096


@lru_cache(maxsize=_QUANTILE_CACHE_SIZE)
def normal_ppf(p: float) -> float:
    """Inverse standard normal CDF (Acklam's rational approximation,
    polished with one Halley step; max abs error < 1e-9)."""
    if not (0.0 < p < 1.0):
        raise ErrorSpecError(f"probability must be in (0, 1), got {p}")
    # Acklam coefficients
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    elif p <= phigh:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    else:
        q = math.sqrt(-2 * math.log(1 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    # One Halley refinement using the normal CDF.
    e = normal_cdf(x) - p
    u = e * math.sqrt(2 * math.pi) * math.exp(x * x / 2)
    x = x - u / (1 + x * u / 2)
    return x


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@lru_cache(maxsize=_QUANTILE_CACHE_SIZE)
def student_t_ppf(p: float, df: int) -> float:
    """Upper quantile of Student's t with ``df`` degrees of freedom.

    Uses the Cornish–Fisher style expansion around the normal quantile
    (Hill 1970), accurate to ~1e-4 for df >= 3 and falling back to a
    bisection on the CDF for small df.
    """
    if df <= 0:
        raise ErrorSpecError("degrees of freedom must be positive")
    if df > 200:
        return normal_ppf(p)
    # Bisection against the t CDF (via incomplete beta) — robust everywhere.
    lo, hi = -500.0, 500.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t via the regularized incomplete beta function."""
    x = df / (df + t * t)
    ib = _reg_incomplete_beta(df / 2.0, 0.5, x)
    if t > 0:
        return 1.0 - 0.5 * ib
    return 0.5 * ib


@lru_cache(maxsize=_QUANTILE_CACHE_SIZE)
def chi2_ppf(p: float, df: int) -> float:
    """Quantile of the chi-squared distribution (bisection on its CDF)."""
    if df <= 0:
        raise ErrorSpecError("degrees of freedom must be positive")
    lo, hi = 0.0, max(1000.0, df * 20.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def chi2_cdf(x: float, df: int) -> float:
    """CDF of chi-squared = regularized lower incomplete gamma."""
    if x <= 0:
        return 0.0
    return _reg_lower_gamma(df / 2.0, x / 2.0)


def _reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x)."""
    if x < s + 1.0:
        # series expansion
        term = 1.0 / s
        total = term
        k = s
        for _ in range(500):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-14:
                break
        return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    # continued fraction for Q(s, x)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    q = math.exp(-x + s * math.log(x) - math.lgamma(s)) * h
    return 1.0 - q


def _reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) via continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(a * math.log(x) + b * math.log(1.0 - x) - ln_beta) / a
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _reg_incomplete_beta(b, a, 1.0 - x)
    # Lentz's continued fraction
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(0, 400):
        m = i // 2
        if i == 0:
            numerator = 1.0
        elif i % 2 == 0:
            numerator = (m * (b - m) * x) / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            numerator = -((a + m) * (a + b + m) * x) / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        d = 1.0 / d
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)
