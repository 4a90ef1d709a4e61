"""Universe (correlated hash) sampling for joins.

Independently sampling both sides of a join at rate ``p`` keeps only
``p²`` of the join's output *and* destroys key-match structure — the
classic "join of samples is not a sample of the join" failure (experiment
E6). Universe sampling fixes the structural half: both tables keep exactly
the rows whose *join-key hash* falls below ``p``. Matching keys then
survive or die together, so the surviving join output is a genuine
``p``-fraction sample of the join, keyed by key-universe inclusion.

The estimator scales join aggregates by ``1/p`` (one factor — the same
hash decided both sides). Variance is cluster-like over key groups, so we
expose per-key totals for variance estimation.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..engine.table import Table
from ..estimators.closed_form import Estimate
from ..sketches.hashing import hash_unit_interval
from .base import WeightedSample, materialize_sample


def universe_sample(
    table: Table,
    key_column: str,
    rate: float,
    seed: int = 0,
) -> WeightedSample:
    """Keep rows whose join-key hash lands in [0, rate)."""
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    keep = hash_unit_interval(table[key_column], seed=seed) < rate
    return materialize_sample(
        table, keep, np.full(np.count_nonzero(keep), 1.0 / rate), "universe",
        {"key_column": key_column, "rate": rate, "seed": seed},
    )


def joint_universe_samples(
    left: Table,
    left_key: str,
    right: Table,
    right_key: str,
    rate: float,
    seed: int = 0,
) -> Tuple[WeightedSample, WeightedSample]:
    """Universe-sample both join sides with the *same* hash and rate."""
    return (
        universe_sample(left, left_key, rate, seed=seed),
        universe_sample(right, right_key, rate, seed=seed),
    )


def estimate_join_sum(
    joined_values: np.ndarray,
    joined_keys: np.ndarray,
    rate: float,
) -> Estimate:
    """SUM over a join computed from universe samples.

    ``joined_values`` are the measure values of the join output built from
    the two universe samples; ``joined_keys`` the join key of each output
    row. The key-universe is the sampling unit, so variance is estimated
    over per-key totals (clusters), scaled by ``1/rate`` once.
    """
    y = np.asarray(joined_values, dtype=np.float64)
    if len(y) == 0:
        return Estimate(0.0, math.inf, 0, estimator="universe_join_sum")
    uniq, inverse = np.unique(joined_keys, return_inverse=True)
    per_key = np.bincount(inverse, weights=y, minlength=len(uniq))
    k = len(per_key)
    total = float(np.sum(per_key)) / rate
    # Poisson sampling over the key universe: Var = (1-p)/p^2 * sum t_k^2
    variance = float(np.sum(per_key * per_key)) * (1.0 - rate) / (rate * rate)
    return Estimate(total, variance, k, estimator="universe_join_sum")
