"""The fixed-stop OLA estimates as ``OnlineAggregator`` used to give them.

Before the fixed-stop path returned a moment table, the sharded ``ola``
technique and the ladder's ``partial_ola`` rung built an aggregator over
the drawn read order, advanced its running sums (Σv, Σv², Σm) batch by
batch, and read one estimate at the stop: the SRS total
``N·mean ± N²(1−n/N)s²/n`` from ``Σy``/``Σy²`` for SUM and COUNT, the
ratio estimator for AVG. :func:`reference_fixed_stop` replays that
computation (same draw, same batches, same arithmetic) so the tests can
hold the moment tables to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.engine.fused import LazyRelation, filter_mask
from repro.estimators.closed_form import Estimate, ratio_from_sums


@dataclass
class ReferenceFixedStop:
    """The state the old aggregator held at the stop."""

    rows_seen: int
    population: int
    #: the predicate's matches in the whole relation
    matched: float
    #: Σv, Σv², Σm of the prefix, accumulated batch by batch
    sums: Tuple[float, float, float]

    def estimate(self, func: str) -> Estimate:
        n, big_n = self.rows_seen, self.population
        sum_v, sum_v2, sum_m = self.sums
        if func == "avg":
            return ratio_from_sums(n, sum_v, sum_m, sum_v2, sum_m, sum_v)
        sum_y, sum_y2 = (sum_v, sum_v2) if func == "sum" else (sum_m, sum_m)
        if n == 0:
            return Estimate(math.nan, math.inf, 0, estimator="srs_sum")
        mean = sum_y / n
        s2 = max(sum_y2 - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
        fpc = 1.0 - n / big_n if big_n > 0 else 1.0
        var_mean = max(fpc, 0.0) * s2 / n
        return Estimate(
            mean * big_n, var_mean * big_n * big_n, n, estimator="srs_sum"
        )


def reference_fixed_stop(
    prepared, relation, seed, batch_size, deadline=None
) -> ReferenceFixedStop:
    """Replay the old fixed-stop run of ``prepared`` (a partial-aggregate
    chain whose *first* piece is the input: ones for COUNT) over
    ``relation``."""
    n = relation.num_rows
    limit = int(n * (1.0 if deadline is not None else 0.30))
    reach = max(limit, min(batch_size, n))
    rows = np.random.default_rng(seed).choice(n, reach, replace=False)
    drawn = LazyRelation(
        {
            name: (lambda name=name: relation[name][rows])
            for name in relation.column_names
        },
        reach,
    )
    mask = filter_mask(prepared, relation)
    if mask is None:
        matches, matched = np.ones(reach, dtype=bool), float(n)
    else:
        matches, matched = mask[rows], float(np.count_nonzero(mask))
    input_fn = prepared.aggregate.input_fns[0]
    values = input_fn(drawn) if input_fn is not None else np.ones(reach)
    values = np.where(matches, np.asarray(values, dtype=np.float64), 0.0)

    sums, seen = (0.0, 0.0, 0.0), 0

    def advance(start, stop):
        new = values[start:stop]
        return (
            sums[0] + float(np.sum(new)),
            sums[1] + float(np.dot(new, new)),
            sums[2] + float(np.count_nonzero(matches[start:stop])),
        )

    while seen < limit and not (deadline is not None and deadline.expired):
        stop = min(seen + batch_size, limit)
        sums, seen = advance(seen, stop), stop
    if seen == 0:
        # expired before the first batch: one minimal batch
        seen = min(max(min(batch_size, n), 1), reach)
        sums = advance(0, seen)
    return ReferenceFixedStop(seen, n, matched, sums)
