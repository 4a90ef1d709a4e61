"""Measure-biased sampling (the Sample+Seek family).

For SUM-like aggregates over a fixed measure column, sampling rows with
probability *proportional to the measure* is the variance-optimal design:
every sampled row then contributes the same amount ``T/n`` to the HT
total, so the estimator's variance comes only from the Poisson sampling
noise, not from the measure's skew. This is what lets Sample+Seek promise
a *distribution* guarantee for large groups with a tiny sample.

The cost is specialization — a measure-biased sample answers SUM(measure)
(and predicates over it) but is biased for COUNT or other measures unless
re-weighted, one of the "no silver bullet" specialization trade-offs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.table import Table
from .base import WeightedSample, materialize_sample


def measure_biased_sample(
    table: Table,
    measure_column: str,
    expected_size: int,
    rng: Optional[np.random.Generator] = None,
) -> WeightedSample:
    """Poisson sample with ``π_i ∝ y_i`` and expected size ``expected_size``.

    Rows with ``y_i ≤ 0`` are excluded from biasing (they carry no SUM
    mass); they receive a small uniform floor probability so COUNT-style
    reuse stays possible, at slightly super-optimal variance.
    """
    if expected_size < 1:
        raise ValueError("expected_size must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    y = np.asarray(table[measure_column], dtype=np.float64)
    n = len(y)
    if n == 0:
        return WeightedSample(
            table=table,
            weights=np.array([]),
            method="measure_biased",
            population_rows=0,
            params={"measure_column": measure_column},
        )
    positive = np.maximum(y, 0.0)
    total = float(np.sum(positive))
    if total <= 0:
        # Degenerate: fall back to uniform probabilities.
        pi = np.full(n, min(expected_size / n, 1.0))
    else:
        pi = expected_size * positive / total
        floor = min(expected_size / (10.0 * n), 1.0)
        pi = np.clip(pi, floor, 1.0)
    keep = rng.random(n) < pi
    return materialize_sample(
        table, keep, 1.0 / pi[keep], "measure_biased",
        {
            "measure_column": measure_column,
            "expected_size": expected_size,
            "measure_total": total,
        },
    )


def optimal_variance_ratio(values: np.ndarray) -> float:
    """Variance of uniform- vs measure-biased sampling for the same size.

    Returns ``E[y²]·n / (Σy)²`` — the factor by which uniform sampling's
    SUM variance exceeds measure-biased sampling's on this data. Equals 1
    for constant measures and grows with skew (≈ 1 + cv²).
    """
    y = np.asarray(values, dtype=np.float64)
    y = np.maximum(y, 0.0)
    n = len(y)
    total = float(np.sum(y))
    if n == 0 or total == 0:
        return 1.0
    return float(np.sum(y * y)) * n / (total * total)
