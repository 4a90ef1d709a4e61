"""The distinct sampler (Quickr).

Group-by columns with many groups defeat uniform sampling: small groups
vanish. Quickr's distinct sampler guarantees that *every distinct value
combination* of a chosen column set keeps at least ``frequency_cap`` rows,
while rows beyond the cap are uniformly thinned at ``rate``. The result
over-represents rare values (weight 1) and down-weights common ones
(weight ``1/rate``), with HT weights recording exactly which.

This preserves group coverage — the property experiment E2 shows uniform
sampling lacks — at the price of a sample size that grows with the number
of distinct groups.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..engine.aggregates import encode_groups_arrays
from ..engine.table import Table
from .base import WeightedSample

#: Rows are ranked within their group only if their random priority falls
#: under a per-group threshold that lets through about this many times the
#: cap. A group left with fewer than its cap (probability ~1e-8 at 4 x 10)
#: has all of its rows ranked instead, so the result never depends on it.
_CANDIDATE_MULTIPLIER = 4.0


def distinct_selection(
    key_arrays: Sequence[np.ndarray],
    rate: float,
    frequency_cap: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Which rows the distinct sampler keeps, and at what HT weight.

    Returns ``(rows, weights, num_groups)``: ascending row indices, their
    weights ``1/π``, and the number of distinct key combinations. This is
    the sampler itself; :func:`distinct_sample` copies the rows out and a
    ``distinct_rows`` scan directive feeds them to a fused scan.

    Every row draws a priority; the ``min(cap, size)`` smallest priorities
    of each group are kept outright and every other row with probability
    ``rate``. Rows of a group are exchangeable, so a row is among the
    outright keeps with probability ``q = min(cap, size)/size`` and
    ``π = q + (1-q)·rate`` exactly. Finding the smallest priorities needs
    no sort of the table: only rows whose priority is under
    ``cap·multiplier/size`` can be among them, and those few are sorted.
    """
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if frequency_cap < 1:
        raise ValueError("frequency_cap must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    group_ids, key_columns = encode_groups_arrays(key_arrays)
    n = len(group_ids)
    num_groups = len(key_columns[0])
    sizes = np.bincount(group_ids, minlength=num_groups)
    quota = np.minimum(frequency_cap, sizes)
    priority = rng.random(n)
    threshold = np.minimum(1.0, _CANDIDATE_MULTIPLIER * frequency_cap / sizes)
    is_candidate = priority < threshold[group_ids]
    candidates = np.flatnonzero(is_candidate)
    short = np.bincount(group_ids[candidates], minlength=num_groups) < quota
    if short.any():
        candidates = np.flatnonzero(is_candidate | short[group_ids])
    candidate_groups = group_ids[candidates]
    order = np.lexsort((priority[candidates], candidate_groups))
    sorted_groups = candidate_groups[order]
    first = np.searchsorted(sorted_groups, np.arange(num_groups))
    rank = np.arange(len(order)) - first[sorted_groups]
    keep = rng.random(n) < rate
    keep[candidates[order[rank < frequency_cap]]] = True
    rows = np.flatnonzero(keep)
    q = quota / sizes
    weight_of_group = 1.0 / (q + (1.0 - q) * rate)
    return rows, weight_of_group[group_ids[rows]], num_groups


def distinct_sample(
    table: Table,
    columns: Sequence[str],
    rate: float,
    frequency_cap: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> WeightedSample:
    """Keep ≥``frequency_cap`` rows per distinct value of ``columns``;
    thin the remainder at ``rate``.

    Inclusion probabilities are exact (see :func:`distinct_selection`), so
    HT estimation over the sample is unbiased for linear aggregates.
    """
    rows, weights, num_groups = distinct_selection(
        [table[c] for c in columns], rate, frequency_cap, rng
    )
    return WeightedSample(
        table=table.take(rows),
        weights=weights,
        method="distinct",
        population_rows=table.num_rows,
        params={
            "columns": list(columns),
            "rate": rate,
            "cap": frequency_cap,
            "num_groups": num_groups,
        },
    )


def group_coverage(sample: WeightedSample, table: Table) -> float:
    """Fraction of the base table's distinct groups present in the sample."""
    columns = list(sample.params["columns"])  # type: ignore[arg-type]
    if sample.num_rows == 0:
        return 0.0
    _, base_keys = encode_groups_arrays([table[c] for c in columns])
    _, sample_keys = encode_groups_arrays([sample.table[c] for c in columns])
    return len(sample_keys[0]) / max(len(base_keys[0]), 1)
