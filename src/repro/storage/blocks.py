"""Block-structured access paths over columnar tables.

The survey's efficiency arguments hinge on *what fraction of storage a
technique touches*: row-level samplers still read every block, while
block-level samplers skip non-sampled blocks entirely. This module makes
that distinction concrete — every access path reports how many blocks and
rows it touched, which the cost model converts into simulated I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..engine.aggregates import sorted_unique
from ..engine.table import Table


@dataclass
class AccessStats:
    """What a scan actually touched. Accumulated into ExecutionStats."""

    rows_scanned: int = 0
    blocks_scanned: int = 0
    rows_returned: int = 0

    def merge(self, other: "AccessStats") -> None:
        self.rows_scanned += other.rows_scanned
        self.blocks_scanned += other.blocks_scanned
        self.rows_returned += other.rows_returned


#: Column name under which block-sampled scans expose each row's block id.
#: Downstream, pilot-style planners group by it to get per-block statistics.
BLOCK_ID_COLUMN = "__block_id"

#: Column name under which row-weighted sampled scans expose each row's
#: Horvitz–Thompson weight ``1/π``. Quickr-style planners carry it through
#: filters and joins and estimate from it — the row-level mirror of
#: :data:`BLOCK_ID_COLUMN`.
WEIGHT_COLUMN = "__weight"


@dataclass
class ScanSelection:
    """A scan's row selection: *which rows*, and what that touch costs
    (:attr:`access`).

    Copying the rows out is a separate decision the executor makes late:
    it carries :attr:`row_indices` as a selection vector over zero-copy
    column views until (unless) a consumer truly needs contiguous data.

    ``row_indices is None`` means "all rows in order" — the full-scan
    case, where the base table's columns are shared, not copied.
    """

    table: Table
    row_indices: Optional[np.ndarray]
    block_id_column: Optional[np.ndarray]
    access: AccessStats
    weight_column: Optional[np.ndarray] = None

    @property
    def num_rows(self) -> int:
        if self.row_indices is None:
            return self.table.num_rows
        return len(self.row_indices)


def full_selection(table: Table) -> ScanSelection:
    """Select every row (the exact-query access path)."""
    stats = AccessStats(
        rows_scanned=table.num_rows,
        blocks_scanned=table.num_blocks,
        rows_returned=table.num_rows,
    )
    return ScanSelection(table, None, None, stats)


def row_sample_selection(
    table: Table, row_indices: np.ndarray, weights: Optional[np.ndarray] = None
) -> ScanSelection:
    """Select specific rows, optionally with their HT weights.

    A row-level sampler must still *touch* every block that holds at least
    one selected row; with uniform sampling at any non-trivial rate that is
    nearly all blocks — the inefficiency the paper attributes to row-level
    sampling on block-oriented stores.
    """
    row_indices = np.asarray(row_indices, dtype=np.int64)
    touched_blocks = int(
        np.count_nonzero(
            np.bincount(
                table.block_ids_of_rows(row_indices), minlength=table.num_blocks
            )
        )
    )
    stats = AccessStats(
        rows_scanned=touched_blocks * table.block_size,
        blocks_scanned=touched_blocks,
        rows_returned=len(row_indices),
    )
    return ScanSelection(table, row_indices, None, stats, weights)


def sampler_pass_selection(
    table: Table, row_indices: np.ndarray, weights: np.ndarray
) -> ScanSelection:
    """Select the rows a content-dependent sampler chose.

    Such a sampler (the distinct sampler ranks rows within their group)
    has read every row to make its choice, so the pass is charged as a
    full scan however few rows it returns.
    """
    stats = AccessStats(
        rows_scanned=table.num_rows,
        blocks_scanned=table.num_blocks,
        rows_returned=len(row_indices),
    )
    return ScanSelection(table, row_indices, None, stats, weights)


def block_rows(table: Table, block_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every row of the given blocks, in order, and for each row the index
    in ``block_ids`` of its block. ``block_ids`` must be ascending and
    distinct (every block selection draws them so)."""
    starts = np.asarray(block_ids, dtype=np.int64) * table.block_size
    sizes = np.minimum(table.block_size, table.num_rows - starts)
    owner = np.repeat(np.arange(len(starts)), sizes)
    # row i of the result is row (i - rows before its block) of its block
    return (starts - np.cumsum(sizes) + sizes)[owner] + np.arange(len(owner)), owner


def block_sample_selection(table: Table, block_ids: Sequence[int]) -> ScanSelection:
    """Select whole blocks; non-sampled blocks are skipped entirely.

    The selection carries a :data:`BLOCK_ID_COLUMN` vector recording each
    selected row's source block, which block-aware estimators require.
    """
    block_ids = sorted_unique(np.asarray(block_ids, dtype=np.int64))
    rows, owner = block_rows(table, block_ids)
    stats = AccessStats(
        rows_scanned=len(rows),
        blocks_scanned=len(block_ids),
        rows_returned=len(rows),
    )
    return ScanSelection(table, rows, block_ids[owner], stats)


def clustered_layout(table: Table, order_by: str) -> Table:
    """Re-lay the table sorted by a column.

    Clustering makes blocks *homogeneous*, the regime where block sampling
    has poor statistical efficiency (Lemma-4.1-style analysis): every block
    looks alike internally but blocks differ from each other.
    """
    order = np.argsort(table[order_by], kind="stable")
    return table.take(order)


def shuffled_layout(table: Table, seed: int = 0) -> Table:
    """Re-lay the table in random row order.

    Shuffling makes blocks statistically *heterogeneous* (each block is a
    random sample of the table), the regime where block sampling matches
    row-level sampling's statistical efficiency while being far cheaper.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(table.num_rows)
    return table.take(order)
