"""Universe (correlated hash) sampling for joins.

Independently sampling both sides of a join at rate ``p`` keeps only
``p²`` of the join's output *and* destroys key-match structure — the
classic "join of samples is not a sample of the join" failure (experiment
E6). Universe sampling fixes the structural half: both tables keep exactly
the rows whose *join-key hash* falls below ``p``. Matching keys then
survive or die together, so the surviving join output is a genuine
``p``-fraction sample of the join, keyed by key-universe inclusion.

The estimator scales join aggregates by ``1/p`` (one factor — the same
hash decided both sides). Variance is cluster-like over key groups: a
universe sample's units are its keys (:func:`universe_join_sample`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..engine.table import Table
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


def universe_join_sample(joined: Table, key_column: str, rate: float) -> WeightedSample:
    """The join of two universe samples drawn at ``rate`` with one hash, as
    a sample of the join whose units, its keys, were kept at ``rate``."""
    n, params = joined.num_rows, {"key_column": key_column, "rate": rate}
    return WeightedSample(joined, np.full(n, 1.0 / rate), "universe", round(n / rate), params)
