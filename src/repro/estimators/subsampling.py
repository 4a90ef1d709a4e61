"""Cluster (block-level) variance estimation.

Rows inside a storage block are correlated (they were loaded together and
often inserted together), so row-level variance formulas understate the
variance of estimates computed from *block* samples. The fix, standard in
the cluster-sampling literature, is to treat each block as the sampling
unit: compute per-block totals and apply the one-sample formulas to those
totals. This module provides that machinery plus a delete-one-block
jackknife for statistics without closed forms.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .closed_form import Estimate


def per_block_totals(
    values: np.ndarray, block_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate row values into per-block (sum, row-count) arrays.

    ``block_ids`` need not be dense; blocks are keyed by distinct id.
    """
    v = np.asarray(values, dtype=np.float64)
    b = np.asarray(block_ids)
    uniq, inverse = np.unique(b, return_inverse=True)
    sums = np.bincount(inverse, weights=v, minlength=len(uniq))
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    return sums, counts


def block_sample_sum(
    block_sums: np.ndarray,
    total_blocks: int,
    sampled_blocks: Optional[int] = None,
) -> Estimate:
    """Population SUM from a block sample (blocks as sampling units).

    The estimator is ``B · mean(block_sums)`` for ``B = total_blocks``;
    its variance uses the between-block sample variance with FPC. This is
    exactly the clustered analogue of :func:`repro.estimators.closed_form.srs_sum`.
    """
    s = np.asarray(block_sums, dtype=np.float64)
    m = sampled_blocks if sampled_blocks is not None else len(s)
    if m == 0:
        return Estimate(math.nan, math.inf, 0, estimator="block_sum")
    mean_block = float(np.mean(s))
    var_block = float(np.var(s, ddof=1)) if m > 1 else 0.0
    fpc = max(1.0 - m / total_blocks, 0.0) if total_blocks > 0 else 1.0
    total = total_blocks * mean_block
    variance = total_blocks * total_blocks * fpc * var_block / m
    return Estimate(total, variance, m, estimator="block_sum")


def block_sample_count(
    block_counts: np.ndarray, total_blocks: int
) -> Estimate:
    """Population COUNT from a block sample (counts as block 'values')."""
    return block_sample_sum(block_counts, total_blocks)


def block_sample_avg(
    block_sums: np.ndarray, block_counts: np.ndarray, total_blocks: int
) -> Estimate:
    """Population AVG from a block sample via the ratio of block totals.

    Ratio-of-means with linearized (Taylor) variance over blocks — the
    correct estimator when block sizes vary or a predicate filters rows
    unevenly across blocks.
    """
    s = np.asarray(block_sums, dtype=np.float64)
    c = np.asarray(block_counts, dtype=np.float64)
    m = len(s)
    sum_c = float(np.sum(c))
    if m == 0 or sum_c == 0:
        return Estimate(math.nan, math.inf, m, estimator="block_avg")
    r = float(np.sum(s)) / sum_c
    residuals = s - r * c
    mean_c = sum_c / m
    if m > 1:
        var = float(np.sum(residuals * residuals)) / (m - 1) / (m * mean_c * mean_c)
        fpc = max(1.0 - m / total_blocks, 0.0) if total_blocks > 0 else 1.0
        var *= fpc
    else:
        var = math.inf
    return Estimate(r, var, m, estimator="block_avg")


def design_effect_from_rows(values: np.ndarray, block_ids: np.ndarray) -> float:
    """Kish design effect 1 + (b̄-1)·ρ computed from raw rows.

    ρ is the intra-block correlation estimated by one-way ANOVA: the
    between-block mean square vs. the within-block mean square.
    """
    v = np.asarray(values, dtype=np.float64)
    b = np.asarray(block_ids)
    uniq, inverse = np.unique(b, return_inverse=True)
    m = len(uniq)
    n = len(v)
    if m < 2 or n <= m:
        return 1.0
    counts = np.bincount(inverse, minlength=m).astype(np.float64)
    sums = np.bincount(inverse, weights=v, minlength=m)
    means = sums / counts
    grand = float(np.mean(v))
    ss_between = float(np.sum(counts * (means - grand) ** 2))
    ss_within = float(np.sum((v - means[inverse]) ** 2))
    ms_between = ss_between / (m - 1)
    ms_within = ss_within / (n - m)
    b_bar = n / m
    if ms_between + (b_bar - 1) * ms_within <= 0:
        return 1.0
    rho = (ms_between - ms_within) / (ms_between + (b_bar - 1) * ms_within)
    rho = min(max(rho, -1.0 / max(b_bar - 1.0, 1.0)), 1.0)
    return max(1.0 + (b_bar - 1.0) * rho, 1e-6)


def _deff_from_rows(s: np.ndarray, c: np.ndarray) -> float:
    """Fallback design-effect proxy from block totals alone.

    Without row detail we compare the observed between-block variance of
    block means with what i.i.d. rows would produce; capped at the block
    size (the theoretical maximum inflation).
    """
    m = len(s)
    total_rows = float(np.sum(c))
    if m < 2 or total_rows < 2:
        return 1.0
    b_bar = total_rows / m
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(c > 0, s / np.maximum(c, 1), 0.0)
    grand = float(np.sum(s)) / total_rows
    between = float(np.var(means, ddof=1))
    # Treat per-block means as if rows were i.i.d. with the same grand
    # variance: expected between-variance would be var_rows / b_bar. We
    # cannot see var_rows, so report the conservative bound min(b_bar, ...).
    if grand == 0 and between == 0:
        return 1.0
    scale = between / max(grand * grand, 1e-300)
    return float(min(max(1.0, 1.0 + scale * b_bar), b_bar if b_bar > 1 else 1.0))


def jackknife_blocks(
    block_values: np.ndarray,
    statistic: Callable[[np.ndarray], float],
) -> Estimate:
    """Delete-one-block jackknife variance for an arbitrary statistic of
    per-block values (e.g. a ratio or a trimmed total)."""
    v = np.asarray(block_values, dtype=np.float64)
    m = len(v)
    point = float(statistic(v))
    if m < 2:
        return Estimate(point, math.inf, m, estimator="jackknife")
    pseudo = np.empty(m)
    for i in range(m):
        pseudo[i] = statistic(np.delete(v, i))
    mean_pseudo = float(np.mean(pseudo))
    var = (m - 1) / m * float(np.sum((pseudo - mean_pseudo) ** 2))
    return Estimate(point, var, m, estimator="jackknife")
