"""The per-design estimator formulas the library once computed one by one.

Every library sample now reduces through its own design's moment table
(:meth:`repro.sampling.base.WeightedSample.moments`). These are the
closed forms that table replaced, written out the long way (two-pass
variances, explicit loops over blocks and strata), so a test can hold
the table to them: equal where the design did not change, and off by a
stated factor where a formula was corrected. Each returns
``(value, variance, units)``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

Triple = Tuple[float, float, int]


def ht_total(values, inclusion_probs) -> Triple:
    """HT total under a Poisson design: ``Σ y/π`` with the variance
    estimate ``Σ (1−π) y²/π²``."""
    y = np.asarray(values, dtype=np.float64)
    pi = np.asarray(inclusion_probs, dtype=np.float64)
    return (
        float(np.sum(y / pi)),
        float(np.sum((1.0 - pi) * y * y / (pi * pi))),
        len(y),
    )


def hajek_mean(values, inclusion_probs) -> Triple:
    """The Hájek mean with the Poisson design's linearised variance:
    ``Σw(w−1)r²/(Σw)²``, ``r = y − mean``."""
    y = np.asarray(values, dtype=np.float64)
    w = 1.0 / np.asarray(inclusion_probs, dtype=np.float64)
    mean = float(np.sum(w * y) / np.sum(w))
    r = y - mean
    return mean, float(np.sum(w * (w - 1.0) * r * r)) / float(np.sum(w)) ** 2, len(y)


def bernoulli_avg(values, rate: float) -> Triple:
    """The Bernoulli AVG as once estimated: ``(1−p)·s²/n``."""
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    return float(np.mean(y)), (1.0 - rate) * float(np.var(y, ddof=1)) / n, n


def srs_sum(values, population: int) -> Triple:
    """Total under SRS without replacement: ``N·mean`` with
    ``N²(1−n/N)s²/n``."""
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    s2 = float(np.var(y, ddof=1)) if n > 1 else 0.0
    fpc = max(1.0 - n / population, 0.0)
    return population * float(np.mean(y)), population**2 * fpc * s2 / n, n


def srs_mean(values, population: int) -> Triple:
    """Mean under SRS without replacement: ``(1−n/N)s²/n``."""
    total, variance, n = srs_sum(values, population)
    return total / population, variance / population**2, n


def per_block_totals(values, block_ids):
    """Per distinct block id (ascending), the sum of ``values`` and the
    row count."""
    ids = np.asarray(block_ids)
    blocks = sorted(set(ids.tolist()))
    sums = np.array([float(np.sum(values[ids == b])) for b in blocks])
    counts = np.array([float(np.count_nonzero(ids == b)) for b in blocks])
    return sums, counts


def block_sample_sum(block_sums, total_blocks: int, m=None) -> Triple:
    """``B·mean(t_b)`` with ``B²(1−m/B)s_b²/m`` over ``m`` sampled blocks
    (absent ones count as zeros)."""
    t = np.asarray(block_sums, dtype=np.float64)
    m = len(t) if m is None else m
    t = np.concatenate([t, np.zeros(m - len(t))])
    mean = float(np.mean(t))
    s2 = float(np.sum((t - mean) ** 2)) / (m - 1)
    fpc = max(1.0 - m / total_blocks, 0.0)
    return total_blocks * mean, total_blocks**2 * fpc * s2 / m, m


def block_sample_avg(block_sums, block_counts, total_blocks: int) -> Triple:
    """Ratio of block totals with the linearised variance over blocks:
    ``(1−m/B)·Σ(s − r·c)²/((m−1)·m·c̄²)``."""
    s = np.asarray(block_sums, dtype=np.float64)
    c = np.asarray(block_counts, dtype=np.float64)
    m = len(s)
    r = float(np.sum(s) / np.sum(c))
    resid = s - r * c
    mean_c = float(np.mean(c))
    fpc = max(1.0 - m / total_blocks, 0.0)
    return r, float(np.sum(resid * resid)) / (m - 1) / (m * mean_c**2) * fpc, m


def bilevel_sum(values, block_ids, row_rate: float, m: int, total_blocks: int) -> Triple:
    """SRS of blocks over the per-block HT subtotals ``Σy/r``, padded with
    zeros for sampled blocks that kept no row."""
    sums, _ = per_block_totals(np.asarray(values, dtype=np.float64), block_ids)
    return block_sample_sum(sums / row_rate, total_blocks, m)


def join_sum(values, keys, rate: float) -> Triple:
    """Poisson over join-key clusters: ``Σt_k/p`` with ``(1−p)/p²·Σt_k²``."""
    y = np.asarray(values, dtype=np.float64)
    k = np.asarray(keys)
    per_key = np.array([float(np.sum(y[k == key])) for key in sorted(set(k.tolist()))])
    return (
        float(np.sum(per_key)) / rate,
        float(np.sum(per_key**2)) * (1.0 - rate) / rate**2,
        len(per_key),
    )


def stratified_sum(values, strata, sizes, populations) -> Triple:
    """Sum over strata of the SRS total of each stratum's rows."""
    y = np.asarray(values, dtype=np.float64)
    strata = np.asarray(strata)
    value = variance = 0.0
    units = 0
    for h, (n_h, big_n) in enumerate(zip(sizes, populations)):
        rows = y[strata == h]
        if not len(rows):
            continue
        total, var, _ = srs_sum(rows, big_n)
        assert len(rows) == n_h
        value, variance, units = value + total, variance + var, units + n_h
    return value, variance, units


def ola_avg_no_fpc(n: int, sum_v: float, sum_v2: float, sum_m: float) -> Triple:
    """The OLA AVG as once estimated from a prefix's sums: the row-level
    ratio with no FPC (values ``v`` zeroed outside the predicate, so
    ``Σv·m = Σv`` and ``Σm² = Σm``)."""
    if sum_m == 0:
        return math.nan, math.inf, n
    r = sum_v / sum_m
    ss = max(sum_v2 - 2.0 * r * sum_v + r * r * sum_m, 0.0)
    return r, (ss * n / (n - 1) / (sum_m * sum_m) if n > 1 else math.inf), n
