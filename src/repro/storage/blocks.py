"""Block-structured access paths over columnar tables.

The survey's efficiency arguments hinge on *what fraction of storage a
technique touches*: row-level samplers still read every block, while
block-level samplers skip non-sampled blocks entirely. This module makes
that distinction concrete — every access path reports how many blocks and
rows it materialized, which the cost model converts into simulated I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

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
    """A scan's row selection, decoupled from its materialization.

    Every access path is the composition of two decisions: *which rows*
    (and what that touch costs — :attr:`access`) and *whether to copy
    them out*. The legacy ``*_scan`` functions fuse both; the fused
    executor wants only the first, carrying :attr:`row_indices` as a
    selection vector over zero-copy column views until (unless) a
    consumer truly needs contiguous data.

    ``row_indices is None`` means "all rows in order" — the full-scan
    case, where even materialization is the identity and the base table
    is shared, not copied.
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


def block_sample_selection(table: Table, block_ids: Sequence[int]) -> ScanSelection:
    """Select whole blocks; non-sampled blocks are skipped entirely.

    The selection carries a :data:`BLOCK_ID_COLUMN` vector recording each
    selected row's source block, which block-aware estimators require.
    """
    block_ids = sorted(set(int(b) for b in block_ids))
    pieces: List[np.ndarray] = []
    id_pieces: List[np.ndarray] = []
    rows = 0
    for bid in block_ids:
        start, stop = table.block_bounds(bid)
        pieces.append(np.arange(start, stop, dtype=np.int64))
        id_pieces.append(np.full(stop - start, bid, dtype=np.int64))
        rows += stop - start
    indices = np.concatenate(pieces) if pieces else np.array([], dtype=np.int64)
    ids = (
        np.concatenate(id_pieces) if id_pieces else np.array([], dtype=np.int64)
    )
    stats = AccessStats(
        rows_scanned=rows,
        blocks_scanned=len(block_ids),
        rows_returned=rows,
    )
    return ScanSelection(table, indices, ids, stats)


def materialize_selection(selection: ScanSelection) -> Table:
    """Copy a selection out into a contiguous Table.

    Full-scan selections return the base table itself (zero-copy), which
    is exactly what :func:`full_scan` has always done.
    """
    if selection.row_indices is None:
        result = selection.table
    else:
        result = selection.table.take(selection.row_indices)
    if selection.block_id_column is not None:
        result = result.with_column(BLOCK_ID_COLUMN, selection.block_id_column)
    if selection.weight_column is not None:
        result = result.with_column(WEIGHT_COLUMN, selection.weight_column)
    return result


def full_scan(table: Table) -> Tuple[Table, AccessStats]:
    """Read every block (the exact-query access path)."""
    selection = full_selection(table)
    return materialize_selection(selection), selection.access


def row_sample_scan(
    table: Table, row_indices: np.ndarray
) -> Tuple[Table, AccessStats]:
    """Materialize specific rows (see :func:`row_sample_selection`)."""
    selection = row_sample_selection(table, row_indices)
    return materialize_selection(selection), selection.access


def block_sample_scan(
    table: Table, block_ids: Sequence[int]
) -> Tuple[Table, AccessStats]:
    """Materialize whole blocks (see :func:`block_sample_selection`).

    The result carries a :data:`BLOCK_ID_COLUMN` column recording each
    row's source block, which block-aware estimators require.
    """
    selection = block_sample_selection(table, block_ids)
    return materialize_selection(selection), selection.access


def iter_blocks(table: Table) -> Iterator[Tuple[int, Table]]:
    """Yield ``(block_id, block_table)`` pairs."""
    for bid in range(table.num_blocks):
        yield bid, table.block(bid)


def iter_morsels(table: Table) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(block_id, start_row, stop_row)`` morsels, in block order.

    Morsels describe block-granular row ranges without materializing
    anything — the unit of work for fused per-block pipelines (sharded
    execution checkpoints deadlines between morsels).
    """
    for bid in range(table.num_blocks):
        start, stop = table.block_bounds(bid)
        yield bid, start, stop


def block_row_counts(table: Table) -> np.ndarray:
    """Number of rows in each block (last block may be short)."""
    nb = table.num_blocks
    if nb == 0:
        return np.array([], dtype=np.int64)
    counts = np.full(nb, table.block_size, dtype=np.int64)
    counts[-1] = table.num_rows - (nb - 1) * table.block_size
    return counts


def assign_block_column(table: Table, name: str = "__block_id") -> Table:
    """Append a column holding each row's block id.

    Pilot-style AQP planners group by this column to measure block-level
    statistics (per-block sums and sizes) from a block sample.
    """
    ids = np.arange(table.num_rows, dtype=np.int64) // table.block_size
    return table.with_column(name, ids)


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
