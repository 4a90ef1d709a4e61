"""Tests for block access paths, statistics, and the cost model."""

import numpy as np
import pytest

from repro import Table
from repro.storage import blocks as B
from repro.storage.cost import (
    block_sample_cost,
    index_seek_cost,
    row_sample_cost,
    scan_cost,
)
from repro.storage.statistics import (
    compute_column_stats,
    compute_table_stats,
    estimate_equality_selectivity,
    estimate_join_cardinality,
    estimate_range_selectivity,
)


@pytest.fixture
def table():
    return Table(
        {"v": np.arange(100, dtype=np.float64), "g": np.arange(100) % 10},
        name="t",
        block_size=16,
    )


class TestAccessPaths:
    def test_full_scan(self, table):
        sel = B.full_selection(table)
        assert sel.row_indices is None and sel.num_rows == 100
        assert sel.access.blocks_scanned == table.num_blocks

    def test_row_sample_touches_owning_blocks(self, table):
        sel = B.row_sample_selection(table, np.array([0, 1, 50]))
        assert sel.num_rows == 3
        assert sel.access.blocks_scanned == 2  # rows 0,1 share a block; 50 another

    def test_row_sample_empty(self, table):
        sel = B.row_sample_selection(table, np.array([], dtype=np.int64))
        assert sel.num_rows == 0 and sel.access.blocks_scanned == 0

    def test_block_sample_returns_whole_blocks(self, table):
        sel = B.block_sample_selection(table, [0, 2])
        assert sel.num_rows == 32
        assert sel.access.blocks_scanned == 2
        assert set(np.unique(sel.block_id_column)) == {0, 2}

    def test_block_sample_dedupes(self, table):
        assert B.block_sample_selection(table, [1, 1, 1]).num_rows == 16

    def test_iter_blocks(self, table):
        assert table.num_blocks == 7
        assert table.block(0).num_rows == 16
        assert table.block_bounds(6) == (96, 100)

    def test_block_row_counts_short_tail(self):
        t = Table({"v": np.arange(10)}, block_size=4)
        sel = B.block_sample_selection(t, range(t.num_blocks))
        assert np.bincount(sel.block_id_column).tolist() == [4, 4, 2]

    def test_assign_block_column(self, table):
        sel = B.block_sample_selection(table, range(table.num_blocks))
        assert sel.row_indices.tolist() == list(range(100))
        assert sel.block_id_column[17] == 1

    def test_layouts(self, table):
        clustered = B.clustered_layout(table, "g")
        assert (np.diff(clustered["g"]) >= 0).all()
        shuffled = B.shuffled_layout(table, seed=1)
        assert sorted(shuffled["v"].tolist()) == table["v"].tolist()
        assert shuffled["v"].tolist() != table["v"].tolist()


class TestStatistics:
    def test_column_stats_numeric(self, table):
        stats = compute_column_stats("v", table["v"])
        assert stats.num_distinct == 100
        assert stats.min_value == 0 and stats.max_value == 99
        assert stats.mean == pytest.approx(49.5)

    def test_column_stats_strings(self):
        stats = compute_column_stats("s", np.array(["a", "a", "b"], dtype=object))
        assert not stats.is_numeric
        assert stats.num_distinct == 2
        assert stats.mcv_values[0] == "a"

    def test_skew_ratio(self):
        vals = np.array([1] * 90 + list(range(2, 12)))
        stats = compute_column_stats("x", vals)
        assert stats.skew_ratio > 5

    def test_table_stats(self, table):
        stats = compute_table_stats(table)
        assert stats.num_rows == 100
        assert set(stats.columns) == {"v", "g"}

    def test_range_selectivity_uniform(self, table):
        stats = compute_column_stats("v", table["v"])
        sel = estimate_range_selectivity(stats, 0, 49)
        assert sel == pytest.approx(0.5, abs=0.05)

    def test_range_selectivity_out_of_domain(self, table):
        stats = compute_column_stats("v", table["v"])
        assert estimate_range_selectivity(stats, 1000, 2000) == 0.0

    def test_equality_selectivity_mcv(self):
        vals = np.array([7] * 50 + list(range(50)))
        stats = compute_column_stats("x", vals)
        assert estimate_equality_selectivity(stats, 7) == pytest.approx(0.51, abs=0.02)

    def test_equality_selectivity_non_mcv(self, table):
        stats = compute_column_stats("g", table["g"])
        assert estimate_equality_selectivity(stats, 3) == pytest.approx(0.1)

    def test_join_cardinality(self):
        assert estimate_join_cardinality(1000, 100, 50, 100) == 1000


class TestCostModel:
    def test_block_sampling_cheaper_than_row_sampling(self):
        # The core system-efficiency claim: at equal rates, block sampling
        # reads far fewer blocks than row sampling on block storage.
        blocks, bs = 1000, 1024
        for rate in (0.001, 0.01, 0.05):
            block = block_sample_cost(blocks, bs, rate).total
            row = row_sample_cost(blocks, bs, rate).total
            assert block < row

    def test_row_sampling_approaches_scan(self):
        blocks, bs = 1000, 1024
        row = row_sample_cost(blocks, bs, 0.01).io
        scan = scan_cost(blocks, blocks * bs).io
        assert row > 0.9 * scan  # nearly every block touched

    def test_block_sampling_scales_with_rate(self):
        c1 = block_sample_cost(1000, 1024, 0.01).total
        c2 = block_sample_cost(1000, 1024, 0.1).total
        assert 5 < c2 / c1 < 15

    def test_seek_cost_linear(self):
        assert index_seek_cost(100).total > index_seek_cost(10).total

    def test_cost_estimate_add(self):
        a = scan_cost(10, 100)
        b = scan_cost(5, 50)
        c = a.add(b)
        assert c.total == pytest.approx(a.total + b.total)
        assert c.detail["scan_blocks"] == 15
