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

from ..engine.aggregates import encode_groups_arrays, sorted_unique
from ..engine.table import Table
from .base import WeightedSample, materialize_sample
from .row import bernoulli_positions

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

    Every row has a uniform priority; the ``min(cap, size)`` smallest
    priorities of each group are kept outright and every other row with
    probability ``rate``. Rows of a group are exchangeable, so a row is
    among the outright keeps with probability ``q = min(cap, size)/size``
    and ``π = q + (1-q)·rate`` exactly.

    Only priorities that can matter are drawn. A group no larger than
    the cap is kept whole. A group of at most ``cap·multiplier`` rows
    ranks every row. A larger group ranks only the rows whose priority is
    under ``t = cap·multiplier/size``: those are drawn as Bernoulli
    positions at the largest such ``t`` with priorities uniform below it,
    then thinned to their own group's ``t`` — the same law as a priority
    per row. A group that falls short of its cap that way ranks all of
    its rows on fresh priorities, which leaves its outright keeps a
    uniform ``min(cap, size)``-subset, as before. The rows kept at
    ``rate`` are drawn as Bernoulli positions too.
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
    threshold = np.minimum(1.0, _CANDIDATE_MULTIPLIER * frequency_cap / sizes)
    whole = sizes <= frequency_cap
    thinned = ~whole & (threshold < 1.0)
    ranked = ~whole & ~thinned
    outright = [_rows_of(whole, group_ids)]
    candidates = [_rows_of(ranked, group_ids)]
    priorities = [rng.random(len(candidates[0]))]
    if thinned.any():
        top = float(threshold[thinned].max())
        drawn = bernoulli_positions(n, top, rng)
        drawn = drawn[thinned[group_ids[drawn]]]
        priority = top * rng.random(len(drawn))
        under = priority < threshold[group_ids[drawn]]
        drawn, priority = drawn[under], priority[under]
        short = thinned & (np.bincount(group_ids[drawn], minlength=num_groups) < quota)
        if short.any():
            fallback = _rows_of(short, group_ids)
            candidates.append(fallback)
            priorities.append(rng.random(len(fallback)))
            enough = ~short[group_ids[drawn]]
            drawn, priority = drawn[enough], priority[enough]
        candidates.append(drawn)
        priorities.append(priority)
    candidate_rows = np.concatenate(candidates)
    candidate_groups = group_ids[candidate_rows]
    # Rank by one int64 key, the group above the priority's leading bits:
    # a tenth of a two-key lexsort's time. A table under 2^31 rows keeps
    # at least 31 priority bits; a float priority ties too, at 2^-53.
    shift = 62 - num_groups.bit_length()
    key = np.concatenate(priorities) * float(2 ** shift)
    order = np.argsort(key.astype(np.int64) | candidate_groups << shift)
    sorted_groups = candidate_groups[order]
    first = np.searchsorted(sorted_groups, np.arange(num_groups))
    rank = np.arange(len(order)) - first[sorted_groups]
    outright.append(candidate_rows[order[rank < frequency_cap]])
    rows = sorted_unique(np.concatenate([bernoulli_positions(n, rate, rng), *outright]))
    q = quota / sizes
    weight_of_group = 1.0 / (q + (1.0 - q) * rate)
    return rows, weight_of_group[group_ids[rows]], num_groups


def _rows_of(group_mask: np.ndarray, group_ids: np.ndarray) -> np.ndarray:
    """Ascending rows whose group is set in ``group_mask``."""
    if not group_mask.any():
        return np.array([], dtype=np.int64)
    return np.flatnonzero(group_mask[group_ids])


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
    params = {
        "columns": list(columns),
        "rate": rate,
        "cap": frequency_cap,
        "num_groups": num_groups,
    }
    return materialize_sample(table, rows, weights, "distinct", params)


def group_coverage(sample: WeightedSample, table: Table) -> float:
    """Fraction of the base table's distinct groups present in the sample."""
    columns = list(sample.params["columns"])  # type: ignore[arg-type]
    if sample.num_rows == 0:
        return 0.0
    _, base_keys = encode_groups_arrays([table[c] for c in columns])
    _, sample_keys = encode_groups_arrays([sample.table[c] for c in columns])
    return len(sample_keys[0]) / max(len(base_keys[0]), 1)
