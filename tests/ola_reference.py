"""References for the OLA estimates, computed the long way.

:func:`reference_block_fixed_stop` is the fixed-stop answer behind the
sharded ``ola`` technique and the ladder's ``partial_ola`` rung, replayed
block by block: the same random block order, each block evaluated on its
own, and the SRS-of-blocks arithmetic written out with a two-pass
variance. :class:`ReferenceFixedStop` is the row-level SRS arithmetic
``OnlineAggregator`` answers with (``N·mean ± N²(1−n/N)s²/n`` from
``Σy``/``Σy²`` for SUM and COUNT, the ratio estimator with the same FPC
for AVG), held against sums of the aggregator's read order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.engine.aggregates import ROWS_COLUMN
from repro.engine.fused import LazyRelation, filter_mask
from repro.estimators.closed_form import Estimate

from .estimator_reference import ola_avg_no_fpc

#: the fixed-stop constants, restated so a change to any shows here
FIXED_STOP_FRACTION = 0.30
MIN_SAMPLED_BLOCKS = 14
MIN_PREFIX_BLOCKS = 4


@dataclass
class ReferenceFixedStop:
    """Row-level SRS estimates from the sums a prefix of ``rows_seen``
    rows left: Σv, Σv² and Σm (values zeroed outside the predicate)."""

    rows_seen: int
    population: int
    sums: Tuple[float, float, float]

    def estimate(self, func: str) -> Estimate:
        n, big_n = self.rows_seen, self.population
        sum_v, sum_v2, sum_m = self.sums
        if func == "avg":
            ratio, variance, _ = ola_avg_no_fpc(n, sum_v, sum_v2, sum_m)
            return Estimate(ratio, variance * (1.0 - n / big_n), n)
        sum_y, sum_y2 = (sum_v, sum_v2) if func == "sum" else (sum_m, sum_m)
        if n == 0:
            return Estimate(math.nan, math.inf, 0)
        mean = sum_y / n
        s2 = max(sum_y2 - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
        fpc = 1.0 - n / big_n if big_n > 0 else 1.0
        var_mean = max(fpc, 0.0) * s2 / n
        return Estimate(
            mean * big_n, var_mean * big_n * big_n, n
        )


@dataclass
class ReferenceBlockStop:
    """What a fixed-stop run reads and answers."""

    #: ``__rows``: blocks sampled, none for a census
    units: int
    rows_read: int
    #: the predicate's matched rows, estimated from the prefix
    matched: float
    #: piece alias -> (total, variance)
    pieces: Dict[str, Tuple[float, float]]


def _rows_of(relation, start: int, stop: int) -> LazyRelation:
    return LazyRelation(
        {
            name: (lambda name=name: np.asarray(relation[name])[start:stop])
            for name in relation.column_names
        },
        stop - start,
    )


def _block_values(prepared, rel) -> Tuple[Dict[str, float], float]:
    """Per piece ``Σt`` over one row range, and its matched rows."""
    mask = filter_mask(prepared, rel)
    keep = np.ones(rel.num_rows, dtype=bool) if mask is None else mask
    sums = {}
    for spec, input_fn in zip(
        prepared.aggregate.specs, prepared.aggregate.input_fns
    ):
        if spec.alias == ROWS_COLUMN:
            continue
        if spec.func == "count":
            sums[spec.alias] = float(np.count_nonzero(keep))
        else:
            values = np.broadcast_to(
                np.asarray(input_fn(rel), dtype=np.float64), rel.num_rows
            )
            sums[spec.alias] = float(values[keep].sum())
    return sums, float(np.count_nonzero(keep))


def reference_block_fixed_stop(
    prepared, relation, seed, batch_size, block_size, deadline=None
) -> ReferenceBlockStop:
    """Replay the fixed-stop run of ``prepared`` over ``relation``.
    ``deadline`` is either ``None`` or one that never fires or fired
    before the start (a run stopped mid-way is not replayed)."""
    n = relation.num_rows
    full, tail = divmod(n, block_size)
    if full < MIN_SAMPLED_BLOCKS:
        sums, matched = _block_values(prepared, _rows_of(relation, 0, n))
        return ReferenceBlockStop(
            0, n, matched, {a: (s, 0.0) for a, s in sums.items()}
        )
    if deadline is None:
        m = int(full * FIXED_STOP_FRACTION)
    elif deadline.expired:
        m = min(max(MIN_PREFIX_BLOCKS, math.ceil(batch_size / block_size)), full)
    else:
        m = full
    blocks = np.random.default_rng(seed).permutation(full)[:m]
    per_block = [
        _block_values(
            prepared, _rows_of(relation, b * block_size, (b + 1) * block_size)
        )
        for b in blocks.tolist()
    ]
    tail_sums, tail_matched = _block_values(
        prepared, _rows_of(relation, full * block_size, n)
    )
    pieces = {}
    for alias, tail_sum in tail_sums.items():
        y = np.array([sums[alias] for sums, _ in per_block])
        mean = y.mean()
        s2 = float(np.sum((y - mean) ** 2)) / (m - 1)
        variance = full * full * (1.0 - m / full) * s2 / m
        pieces[alias] = (full * mean + tail_sum, variance)
    matched_blocks = np.array([matched for _, matched in per_block])
    return ReferenceBlockStop(
        units=m,
        rows_read=m * block_size + tail,
        matched=full * matched_blocks.mean() + tail_matched,
        pieces=pieces,
    )
