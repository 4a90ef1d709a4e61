"""Outlier indexing (Chaudhuri, Das, Datar, Motwani, Narasayya 2001).

Heavy-tailed measures wreck uniform samples: a handful of huge values
carry most of a SUM, and whether the sample catches them is a coin flip.
The outlier-index remedy splits the table deterministically:

* rows whose measure lies outside a threshold go to the **outlier index**
  and are aggregated *exactly* (they are few);
* the remaining, well-behaved rows are sampled uniformly.

The final estimate is ``exact(outliers) + HT(sample of the rest)`` — the
variance now depends only on the trimmed distribution's spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..engine.table import Table
from ..estimators.closed_form import Estimate
from .base import WeightedSample
from .row import bernoulli_sample


@dataclass
class OutlierIndex:
    """A split of a table into outlier rows (kept exactly) and the rest."""

    table_name: str
    measure_column: str
    threshold_low: float
    threshold_high: float
    outliers: Table
    inliers: Table

    @property
    def outlier_fraction(self) -> float:
        total = self.outliers.num_rows + self.inliers.num_rows
        return self.outliers.num_rows / total if total else 0.0

    def storage_rows(self) -> int:
        """Rows the index stores (its maintenance footprint)."""
        return self.outliers.num_rows


def build_outlier_index(
    table: Table,
    measure_column: str,
    outlier_fraction: float = 0.01,
) -> OutlierIndex:
    """Split the most extreme ``outlier_fraction`` of rows into the index.

    Rows are ranked by distance from the median of ``measure_column``, so
    both tails of a skewed distribution are captured.
    """
    if not (0.0 <= outlier_fraction < 1.0):
        raise ValueError("outlier_fraction must be in [0, 1)")
    values = np.asarray(table[measure_column], dtype=np.float64)
    n = len(values)
    k = int(math.ceil(n * outlier_fraction))
    if k == 0 or n == 0:
        return OutlierIndex(
            table_name=table.name,
            measure_column=measure_column,
            threshold_low=-math.inf,
            threshold_high=math.inf,
            outliers=table.take(np.array([], dtype=np.int64)),
            inliers=table,
        )
    median = float(np.median(values))
    distance = np.abs(values - median)
    cutoff_idx = np.argpartition(distance, n - k)[n - k:]
    is_outlier = np.zeros(n, dtype=bool)
    is_outlier[cutoff_idx] = True
    out_vals = values[is_outlier]
    in_vals = values[~is_outlier]
    return OutlierIndex(
        table_name=table.name,
        measure_column=measure_column,
        threshold_low=float(in_vals.min()) if len(in_vals) else -math.inf,
        threshold_high=float(in_vals.max()) if len(in_vals) else math.inf,
        outliers=table.take(is_outlier),
        inliers=table.take(~is_outlier),
    )


def estimate_sum_with_outliers(
    index: OutlierIndex,
    rate: float,
    rng: Optional[np.random.Generator] = None,
    predicate_mask_outliers: Optional[np.ndarray] = None,
    predicate_mask_inliers: Optional[np.ndarray] = None,
) -> Tuple[Estimate, WeightedSample]:
    """SUM via exact outliers + Bernoulli sample of inliers.

    Optional masks restrict both parts to predicate-matching rows (the
    index stores full rows, so predicates evaluate exactly on outliers).
    The outliers join the inlier sample as rows of weight 1, a take-all
    stratum. Returns the combined estimate and the inlier sample used.
    """
    outliers = index.outliers
    if predicate_mask_outliers is not None:
        outliers = outliers.take(np.asarray(predicate_mask_outliers, dtype=bool))
    inliers = index.inliers
    if predicate_mask_inliers is not None:
        inliers = inliers.take(np.asarray(predicate_mask_inliers, dtype=bool))
    sample = bernoulli_sample(inliers, rate, rng=rng)
    rows = {c: np.concatenate([outliers[c], sample.table[c]]) for c in outliers.column_names}
    weights = np.concatenate([np.ones(outliers.num_rows), sample.weights])
    population = outliers.num_rows + inliers.num_rows
    combined = WeightedSample(Table(rows), weights, "outlier", population, {"rate": rate})
    return combined.estimate_sum(index.measure_column), sample


def variance_reduction(
    table: Table, measure_column: str, outlier_fraction: float = 0.01
) -> float:
    """Factor by which trimming outliers shrinks the per-row variance.

    This is the theoretical speedup knob: required sample size scales with
    the (squared) coefficient of variation of what is *sampled*.
    """
    values = np.asarray(table[measure_column], dtype=np.float64)
    if len(values) < 2:
        return 1.0
    full_var = float(np.var(values))
    index = build_outlier_index(table, measure_column, outlier_fraction)
    inlier_vals = np.asarray(
        index.inliers[measure_column], dtype=np.float64
    )
    trimmed_var = float(np.var(inlier_vals)) if len(inlier_vals) > 1 else 0.0
    if trimmed_var == 0:
        return math.inf if full_var > 0 else 1.0
    return full_var / trimmed_var
