"""Block-level (page) sampling.

Block sampling reads whole storage blocks, skipping everything else — the
only sampler whose *cost* is proportional to the sampling rate on block
storage. Its price is statistical: rows within a block are included
together, so the sampling unit is the block and variance must be computed
over per-block totals (:mod:`repro.estimators.subsampling`).

The ``weights`` of the returned sample are the inverse *block* inclusion
probability, which makes HT totals unbiased: every row of a sampled block
carries weight ``1/rate`` (Bernoulli) or ``B/m`` (fixed-size).

Each design has one selection function over block ids, the one a scan
directive calls too: :func:`block_bernoulli_selection` (``system_blocks``)
and :func:`~repro.sampling.row.srs_selection` over the ``B`` block ids
(``fixed_blocks``). :func:`~repro.storage.blocks.block_rows` expands the
ids to rows for both the scan and the samplers here.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..engine.table import Table
from ..estimators.closed_form import Estimate
from ..estimators.subsampling import (
    block_sample_avg,
    block_sample_count,
    block_sample_sum,
    per_block_totals,
)
from ..storage.blocks import block_rows
from .base import WeightedSample, materialize_sample
from .row import srs_selection


def block_bernoulli_selection(
    num_blocks: int, rate: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Each of ``num_blocks`` blocks kept independently with probability
    ``rate``: ascending block ids and their weights ``1/rate``. Blocks are
    few, so this draws one uniform per block, the stream seeded
    ``system_blocks`` scans have always drawn."""
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    ids = np.flatnonzero(rng.random(num_blocks) < rate)
    return ids, np.full(len(ids), 1.0 / rate)


def block_bernoulli_sample(
    table: Table, rate: float, rng: Optional[np.random.Generator] = None
) -> WeightedSample:
    """Keep each block independently with probability ``rate``."""
    ids, weights = block_bernoulli_selection(
        table.num_blocks, rate, np.random.default_rng(rng)
    )
    return _materialize(table, ids, weights, "block_bernoulli", {"rate": rate})


def block_fixed_sample(
    table: Table, num_blocks: int, rng: Optional[np.random.Generator] = None
) -> WeightedSample:
    """SRS of exactly ``num_blocks`` blocks without replacement."""
    ids, weights = srs_selection(table.num_blocks, num_blocks, np.random.default_rng(rng))
    return _materialize(table, ids, weights, "block_fixed", {"num_blocks": len(ids)})


def _materialize(
    table: Table, block_ids: np.ndarray, weights: np.ndarray, method: str, params: dict
) -> WeightedSample:
    rows, owner = block_rows(table, block_ids)
    params.update(total_blocks=table.num_blocks, sampled_blocks=len(block_ids))
    return materialize_sample(
        table, rows, weights[owner], method, params, block_ids[owner]
    )


# ----------------------------------------------------------------------
# Block-aware estimation (correct variance for block samples)
# ----------------------------------------------------------------------

def estimate_sum_blockwise(sample: WeightedSample, column: str) -> Estimate:
    """SUM estimate with cluster-correct variance from a block sample."""
    total_blocks = int(sample.params["total_blocks"])
    sums, _ = per_block_totals(
        np.asarray(sample.table[column], dtype=np.float64),
        sample.table["__block_id"],
    )
    return block_sample_sum(sums, total_blocks)


def estimate_count_blockwise(sample: WeightedSample) -> Estimate:
    total_blocks = int(sample.params["total_blocks"])
    if sample.num_rows == 0:
        return block_sample_count(np.array([]), total_blocks)
    _, counts = per_block_totals(
        np.ones(sample.num_rows), sample.table["__block_id"]
    )
    return block_sample_count(counts, total_blocks)


def estimate_avg_blockwise(sample: WeightedSample, column: str) -> Estimate:
    total_blocks = int(sample.params["total_blocks"])
    sums, counts = per_block_totals(
        np.asarray(sample.table[column], dtype=np.float64),
        sample.table["__block_id"],
    )
    return block_sample_avg(sums, counts, total_blocks)


def naive_vs_clustered_variance(
    sample: WeightedSample, column: str
) -> Tuple[float, float]:
    """Variance of the SUM estimator computed two ways: pretending rows are
    i.i.d. (wrong for block samples) vs. over block totals (right).

    The ratio is the empirical design effect; experiment E1's "naive CLT
    under-covers on clustered layouts" claim is this number being >> 1.
    """
    from ..estimators.closed_form import bernoulli_sum

    rate = float(sample.params.get("rate", sample.sampling_fraction))
    naive = bernoulli_sum(
        np.asarray(sample.table[column], dtype=np.float64), rate
    ).variance
    clustered = estimate_sum_blockwise(sample, column).variance
    return naive, clustered
