"""Cluster (block-level) variance diagnostics.

Rows inside a storage block are correlated, so row-level variance
formulas understate the variance of a *block* sample's estimates, which
therefore treat the block as the sampling unit
(:meth:`repro.sampling.base.WeightedSample.moments`). This module measures
how much that matters — the Kish design effect — and holds a
delete-one-block jackknife for statistics without closed forms.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .closed_form import Estimate


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
        return Estimate(point, math.inf, m)
    pseudo = np.empty(m)
    for i in range(m):
        pseudo[i] = statistic(np.delete(v, i))
    mean_pseudo = float(np.mean(pseudo))
    var = (m - 1) / m * float(np.sum((pseudo - mean_pseudo) ** 2))
    return Estimate(point, var, m)
