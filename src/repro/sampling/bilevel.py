"""Bi-level Bernoulli sampling (Haas & König 2004).

Pure block sampling is cheap but statistically fragile on clustered
layouts; pure row sampling is statistically ideal but touches every
block. The bi-level scheme interpolates: sample blocks at rate ``q``,
then rows *within* each sampled block at rate ``r``. Cost is ~``q`` of a
scan (only sampled blocks are read); the effective row fraction is
``q·r``; and the within-block thinning dampens the design effect of
clustered data — the knob the survey describes for trading I/O against
statistical efficiency.

Estimation treats the per-block HT subtotal ``t̂_b = Σ y / r`` as the
cluster observation; mean-of-blocks over the ``m`` sampled blocks then
captures *both* variance stages (between blocks and within-block
thinning) without needing them separated.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..engine.table import Table
from ..estimators.closed_form import Estimate
from ..estimators.subsampling import per_block_totals
from ..storage.blocks import block_rows
from .base import WeightedSample, materialize_sample
from .block import block_bernoulli_selection


def bilevel_sample(
    table: Table,
    block_rate: float,
    row_rate: float,
    rng: Optional[np.random.Generator] = None,
) -> WeightedSample:
    """Blocks at ``block_rate``, rows within sampled blocks at ``row_rate``."""
    for name, rate in (("block_rate", block_rate), ("row_rate", row_rate)):
        if not (0.0 < rate <= 1.0):
            raise ValueError(f"{name} must be in (0, 1], got {rate}")
    rng = np.random.default_rng(rng)
    chosen, _ = block_bernoulli_selection(table.num_blocks, block_rate, rng)
    rows, owner = block_rows(table, chosen)
    keep = rng.random(len(rows)) < row_rate
    return materialize_sample(
        table,
        rows[keep],
        np.full(int(np.count_nonzero(keep)), 1.0 / (block_rate * row_rate)),
        "bilevel",
        {
            "block_rate": block_rate,
            "row_rate": row_rate,
            "total_blocks": table.num_blocks,
            "sampled_blocks": len(chosen),
        },
        chosen[owner[keep]],
    )


def estimate_sum_bilevel(sample: WeightedSample, column: str) -> Estimate:
    """SUM with variance over per-block HT subtotals."""
    total_blocks = int(sample.params["total_blocks"])
    m = int(sample.params["sampled_blocks"])
    row_rate = float(sample.params["row_rate"])
    if m == 0:
        return Estimate(math.nan, math.inf, 0, estimator="bilevel_sum")
    sums, _ = per_block_totals(
        np.asarray(sample.table[column], dtype=np.float64),
        sample.table["__block_id"],
    )
    # Per-sampled-block HT subtotal; pad with zeros for sampled blocks in
    # which every row was thinned away.
    t_hat = np.zeros(m)
    t_hat[: len(sums)] = sums / row_rate
    mean = float(np.mean(t_hat))
    var_blocks = float(np.var(t_hat, ddof=1)) if m > 1 else math.inf
    fpc = max(1.0 - m / total_blocks, 0.0) if total_blocks else 1.0
    total = total_blocks * mean
    variance = total_blocks * total_blocks * fpc * var_blocks / m
    return Estimate(total, variance, m, estimator="bilevel_sum")


def estimate_count_bilevel(sample: WeightedSample) -> Estimate:
    """COUNT via the same machinery with unit values."""
    counted = sample.table.with_column(
        "__ones", np.ones(sample.table.num_rows)
    )
    clone = WeightedSample(
        table=counted,
        weights=sample.weights,
        method=sample.method,
        population_rows=sample.population_rows,
        params=dict(sample.params),
    )
    return estimate_sum_bilevel(clone, "__ones")


def io_cost_fraction(block_rate: float) -> float:
    """Fraction of a full scan's I/O the bi-level scheme pays (row-level
    thinning happens after the block is already in memory)."""
    return block_rate


def effective_row_fraction(block_rate: float, row_rate: float) -> float:
    return block_rate * row_rate


def variance_tradeoff_curve(
    table: Table,
    column: str,
    effective_fraction: float,
    block_rates: Tuple[float, ...] = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
    trials: int = 20,
    seed: int = 0,
) -> list:
    """Empirical (block_rate, io_fraction, rmse) curve at a fixed
    effective row fraction — the design-space sweep of the bi-level paper.

    ``block_rate = effective_fraction`` with ``row_rate = 1`` is pure
    block sampling (cheapest, most clustered); ``block_rate = 1`` is pure
    row sampling (most expensive I/O, least clustered).
    """
    truth = float(np.sum(np.asarray(table[column], dtype=np.float64)))
    out = []
    for q in block_rates:
        if q < effective_fraction:
            continue
        r = effective_fraction / q
        errs = []
        for trial in range(trials):
            s = bilevel_sample(
                table, q, r, np.random.default_rng(seed * 1000 + trial)
            )
            est = estimate_sum_bilevel(s, column)
            errs.append((est.value - truth) / truth)
        rmse = float(np.sqrt(np.mean(np.square(errs))))
        out.append((q, io_cost_fraction(q), rmse))
    return out
