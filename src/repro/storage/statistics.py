"""Per-column and per-table statistics.

These mirror what any DBMS catalog maintains (row counts, min/max, distinct
value counts, equi-depth histograms). Only the group-by NDVs are read,
by two consumers:

* Quickr's sampler choice (distinct sampler once the group count is
  large), and
* BlinkDB's candidate sizing (strata × rows per stratum).

The optimizer does not read them (its filter selectivity is a fixed
default), nor do the planners' "large enough to sample" checks, which use
the bound table's row and block counts.

Statistics are kept the way those readers use them: per column, on first
read, and merged on append. A :class:`TableStats` computes a column's
:class:`ColumnStats` only when that column is asked for, and
:meth:`TableStats.appended` carries every computed column across an
append by merging the appended batch — ``num_rows``, ``min``/``max`` and
the exact ``num_distinct`` (a merge of sorted distinct values) — instead
of rescanning the table. The descriptive fields no query reads (mean,
variance, histogram, most common values) are derived from the column only
when accessed. :func:`compute_column_stats` and
:func:`compute_table_stats` compute from scratch; they are the reference
the merged statistics must agree with.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.aggregates import sorted_unique
from ..engine.table import Table


def _bounds(values: np.ndarray) -> Tuple[Optional[float], Optional[float]]:
    """(min, max) of a numeric column as floats; ``None`` otherwise."""
    if values.dtype.kind not in ("i", "u", "f", "b") or len(values) == 0:
        return None, None
    vals = np.asarray(values, dtype=np.float64)
    return float(np.min(vals)), float(np.max(vals))


def _merge_bound(old: Optional[float], new: Optional[float], pick) -> Optional[float]:
    if old is None or new is None:
        return new if old is None else old
    return float(pick([old, new]))  # numpy's min/max propagate NaN


class ColumnStats:
    """Summary statistics for a single column.

    ``num_rows``, ``num_distinct``, ``min_value`` and ``max_value`` are
    exact when the object is made and stay exact under :meth:`appended`.
    ``mean``, ``variance``, ``histogram_bounds`` and the MCVs are derived
    from the column on first access.
    """

    def __init__(
        self,
        name: str,
        values: np.ndarray,
        distinct: np.ndarray,
        min_value: Optional[float] = None,
        max_value: Optional[float] = None,
        histogram_buckets: int = 32,
        mcv: int = 8,
    ) -> None:
        self.name = name
        self.num_rows = len(values)
        self.num_distinct = len(distinct)
        self.null_count = 0
        self.min_value = min_value
        self.max_value = max_value
        self.is_numeric = values.dtype.kind in ("i", "u", "f", "b")
        self._values = values
        #: sorted distinct values: what an append merges to keep NDV exact
        self._distinct = distinct
        self._buckets = histogram_buckets
        self._mcv = mcv

    def appended(self, values: np.ndarray) -> "ColumnStats":
        """Statistics of ``values``: this column plus the rows appended
        after its first ``num_rows``. Costs a pass over the batch and the
        distinct values, not over the column."""
        batch = values[self.num_rows:]
        lo, hi = _bounds(batch)
        return ColumnStats(
            self.name,
            values,
            sorted_unique(np.concatenate([self._distinct, batch])),
            _merge_bound(self.min_value, lo, np.min),
            _merge_bound(self.max_value, hi, np.max),
            self._buckets,
            self._mcv,
        )

    # -- derived on first access --------------------------------------
    @cached_property
    def _moments(self) -> Tuple[Optional[float], Optional[float], Optional[np.ndarray]]:
        if not self.is_numeric or self.num_rows == 0:
            return None, None, None
        vals = np.asarray(self._values, dtype=np.float64)
        variance = float(np.var(vals, ddof=1)) if self.num_rows > 1 else 0.0
        qs = np.linspace(0.0, 1.0, self._buckets + 1)
        return float(np.mean(vals)), variance, np.quantile(vals, qs)

    @cached_property
    def _most_common(self) -> Tuple[List, List[int]]:
        uniques, counts = np.unique(self._values, return_counts=True)
        order = np.argsort(counts)[::-1][: self._mcv]
        return [uniques[i] for i in order], [int(counts[i]) for i in order]

    @property
    def mean(self) -> Optional[float]:
        return self._moments[0]

    @property
    def variance(self) -> Optional[float]:
        return self._moments[1]

    @property
    def histogram_bounds(self) -> Optional[np.ndarray]:
        """Equi-depth bucket boundaries (len = buckets+1), numeric only."""
        return self._moments[2]

    @property
    def mcv_values(self) -> List:
        """Most common values (for skew detection)."""
        return self._most_common[0]

    @property
    def mcv_counts(self) -> List[int]:
        return self._most_common[1]

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


def compute_column_stats(
    name: str, values: np.ndarray, histogram_buckets: int = 32, mcv: int = 8
) -> ColumnStats:
    """Compute :class:`ColumnStats` of a column from scratch."""
    lo, hi = _bounds(values)
    return ColumnStats(
        name, values, sorted_unique(values), lo, hi, histogram_buckets, mcv
    )


class TableStats:
    """Statistics of one table version, computed per column on read.

    A ``TableStats`` is bound to the :class:`Table` it describes. Columns
    are computed on first :meth:`column` call and kept; racing readers
    of the same column compute identical values and one is kept.
    """

    def __init__(self, table: Table, histogram_buckets: int = 32) -> None:
        self.name = table.name
        self.num_rows = table.num_rows
        self.num_blocks = table.num_blocks
        self.block_size = table.block_size
        self._table = table
        self._buckets = histogram_buckets
        self._columns: Dict[str, ColumnStats] = {}

    def column(self, name: str) -> Optional[ColumnStats]:
        cached = self._columns.get(name)
        if cached is not None or name not in self._table:
            return cached
        computed = compute_column_stats(
            name, self._table[name], histogram_buckets=self._buckets
        )
        return self._columns.setdefault(name, computed)

    @property
    def columns(self) -> Dict[str, ColumnStats]:
        """Every column's statistics (computes those not read yet)."""
        return {name: self.column(name) for name in self._table.column_names}

    def appended(self, grown: Table) -> "TableStats":
        """Statistics of ``grown``, this table with rows appended: the
        columns computed so far merge the batch, the rest stay unread."""
        out = TableStats(grown, self._buckets)
        for name, stats in list(self._columns.items()):
            out._columns[name] = stats.appended(grown[name])
        return out


def compute_table_stats(
    table: Table, histogram_buckets: int = 32
) -> TableStats:
    """Statistics of every column of ``table``, computed from scratch."""
    stats = TableStats(table, histogram_buckets)
    for col_name in table.column_names:
        stats.column(col_name)
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
