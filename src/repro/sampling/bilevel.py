"""Bi-level Bernoulli sampling (Haas & König 2004).

Pure block sampling is cheap but statistically fragile on clustered
layouts; pure row sampling is statistically ideal but touches every
block. The bi-level scheme interpolates: sample blocks at rate ``q``,
then rows *within* each sampled block at rate ``r``. Cost is ~``q`` of a
scan (only sampled blocks are read); the effective row fraction is
``q·r``; and the within-block thinning dampens the design effect of
clustered data — the knob the survey describes for trading I/O against
statistical efficiency.

Estimation (:meth:`~repro.sampling.base.WeightedSample.moments`) treats
the per-block HT subtotal ``t̂_b = Σ y / r`` as the cluster observation
of an SRS of blocks; mean-of-blocks over the ``m`` sampled blocks then
captures *both* variance stages (between blocks and within-block
thinning) without needing them separated.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..engine.table import Table
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
            est = s.estimate_sum(column)
            errs.append((est.value - truth) / truth)
        rmse = float(np.sqrt(np.mean(np.square(errs))))
        out.append((q, io_cost_fraction(q), rmse))
    return out
