"""Per-column and per-table statistics.

These mirror what any DBMS catalog maintains (row counts, min/max, distinct
value estimates, equi-depth histograms). Only the group-by NDVs are read,
by two consumers:

* Quickr's sampler choice (distinct sampler once the group count is
  large), and
* BlinkDB's candidate sizing (strata × rows per stratum).

The optimizer does not read them (its filter selectivity is a fixed
default), nor do the planners' "large enough to sample" checks, which use
the bound table's row and block counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.table import Table


@dataclass
class ColumnStats:
    """Summary statistics for a single column."""

    name: str
    num_rows: int
    num_distinct: int
    null_count: int = 0
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    mean: Optional[float] = None
    variance: Optional[float] = None
    is_numeric: bool = True
    #: Equi-depth bucket boundaries (len = buckets+1) for numeric columns.
    histogram_bounds: Optional[np.ndarray] = None
    #: Most common values and their frequencies (for skew detection).
    mcv_values: List = field(default_factory=list)
    mcv_counts: List[int] = field(default_factory=list)

    @property
    def skew_ratio(self) -> float:
        """Ratio of most-common-value frequency to the uniform frequency.

        Values far above 1 indicate heavy skew, which makes uniform samples
        unreliable for group-by queries (experiment E2/E3).
        """
        if not self.mcv_counts or self.num_distinct == 0 or self.num_rows == 0:
            return 1.0
        uniform = self.num_rows / self.num_distinct
        return self.mcv_counts[0] / uniform if uniform > 0 else 1.0

    @property
    def coefficient_of_variation(self) -> float:
        """stddev/mean — the quantity that drives required sample sizes."""
        if self.mean is None or self.variance is None or self.mean == 0:
            return float("inf")
        return float(np.sqrt(max(self.variance, 0.0)) / abs(self.mean))


def compute_column_stats(
    name: str, values: np.ndarray, histogram_buckets: int = 32, mcv: int = 8
) -> ColumnStats:
    """Compute :class:`ColumnStats` by scanning a column once."""
    n = len(values)
    uniques, counts = np.unique(values, return_counts=True)
    order = np.argsort(counts)[::-1][:mcv]
    mcv_values = [uniques[i] for i in order]
    mcv_counts = [int(counts[i]) for i in order]
    numeric = values.dtype.kind in ("i", "u", "f", "b")
    stats = ColumnStats(
        name=name,
        num_rows=n,
        num_distinct=len(uniques),
        is_numeric=numeric,
        mcv_values=mcv_values,
        mcv_counts=mcv_counts,
    )
    if numeric and n > 0:
        vals = np.asarray(values, dtype=np.float64)
        stats.min_value = float(np.min(vals))
        stats.max_value = float(np.max(vals))
        stats.mean = float(np.mean(vals))
        stats.variance = float(np.var(vals, ddof=1)) if n > 1 else 0.0
        qs = np.linspace(0.0, 1.0, histogram_buckets + 1)
        stats.histogram_bounds = np.quantile(vals, qs)
    return stats


@dataclass
class TableStats:
    """Statistics for an entire table."""

    name: str
    num_rows: int
    num_blocks: int
    block_size: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


def compute_table_stats(
    table: Table, histogram_buckets: int = 32
) -> TableStats:
    stats = TableStats(
        name=table.name,
        num_rows=table.num_rows,
        num_blocks=table.num_blocks,
        block_size=table.block_size,
    )
    for col_name in table.column_names:
        stats.columns[col_name] = compute_column_stats(
            col_name, table[col_name], histogram_buckets=histogram_buckets
        )
    return stats


# ----------------------------------------------------------------------
# Selectivity estimation (catalog-based, used by the optimizer)
# ----------------------------------------------------------------------

def estimate_range_selectivity(
    stats: ColumnStats, low: Optional[float], high: Optional[float]
) -> float:
    """Fraction of rows in ``[low, high]`` using the equi-depth histogram."""
    if stats.histogram_bounds is None or stats.num_rows == 0:
        return 1.0
    bounds = stats.histogram_bounds
    lo = bounds[0] if low is None else low
    hi = bounds[-1] if high is None else high
    if hi < bounds[0] or lo > bounds[-1]:
        return 0.0
    buckets = len(bounds) - 1
    per_bucket = 1.0 / buckets
    total = 0.0
    for b in range(buckets):
        b_lo, b_hi = bounds[b], bounds[b + 1]
        if b_hi < lo or b_lo > hi:
            continue
        width = b_hi - b_lo
        if width <= 0:
            overlap = 1.0 if (lo <= b_lo <= hi) else 0.0
        else:
            overlap = (min(hi, b_hi) - max(lo, b_lo)) / width
            overlap = min(max(overlap, 0.0), 1.0)
        total += per_bucket * overlap
    return min(max(total, 0.0), 1.0)


def estimate_equality_selectivity(stats: ColumnStats, value) -> float:
    """Fraction of rows equal to ``value`` (MCV-aware, else 1/NDV)."""
    if stats.num_rows == 0:
        return 0.0
    for mcv_value, mcv_count in zip(stats.mcv_values, stats.mcv_counts):
        if mcv_value == value:
            return mcv_count / stats.num_rows
    if stats.num_distinct <= 0:
        return 1.0
    return 1.0 / stats.num_distinct


def estimate_join_cardinality(
    left_rows: int, right_rows: int, left_ndv: int, right_ndv: int
) -> float:
    """Classic |R|·|S| / max(ndv_R, ndv_S) equi-join estimate."""
    denom = max(left_ndv, right_ndv, 1)
    return left_rows * right_rows / denom
