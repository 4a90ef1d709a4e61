"""Tests for aggregate kernels, checked against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlanError, Table
from repro.engine.aggregates import (
    AggregateSpec,
    compute_aggregate_values,
    compute_grouped_aggregate_values,
    encode_groups,
    grouped_count_distinct,
    grouped_var,
)
from repro.engine.expressions import col


def compute_aggregate(spec: AggregateSpec, table: Table) -> float:
    """Scalar aggregate of ``spec`` over every row of ``table``."""
    values = None if spec.func == "count" else spec.argument.evaluate(table)
    return compute_aggregate_values(spec, values, table.num_rows)


class TestAggregateSpec:
    def test_count_star(self):
        spec = AggregateSpec("count", None, "c")
        assert spec.is_linear

    def test_count_distinct_via_flag(self):
        spec = AggregateSpec("count", col("x"), "c", distinct=True)
        assert spec.func == "count_distinct"
        assert not spec.is_linear

    def test_sum_requires_argument(self):
        with pytest.raises(PlanError):
            AggregateSpec("sum", None, "s")

    def test_unknown_function(self):
        with pytest.raises(PlanError):
            AggregateSpec("median", col("x"), "m")

    def test_min_max_not_linear(self):
        assert not AggregateSpec("min", col("x"), "m").is_linear
        assert not AggregateSpec("max", col("x"), "m").is_linear


class TestEncodeGroups:
    def test_single_key(self):
        ids, keys = encode_groups([np.array(["b", "a", "b"], dtype=object)])
        assert len(keys) == 2
        assert ids[0] == ids[2] != ids[1]

    def test_composite_key(self):
        a = np.array([1, 1, 2, 2])
        b = np.array(["x", "y", "x", "x"], dtype=object)
        ids, keys = encode_groups([a, b])
        assert len(keys) == 3
        assert (1, "x") in keys and (2, "x") in keys

    def test_composite_ids_consistent(self):
        a = np.array([1, 2, 1, 2, 1])
        b = np.array([9, 9, 9, 8, 9])
        ids, keys = encode_groups([a, b])
        # rows 0, 2, 4 share (1, 9)
        assert ids[0] == ids[2] == ids[4]

    def test_empty(self):
        ids, keys = encode_groups([np.array([])])
        assert len(ids) == 0 and keys == []

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=50),
        st.lists(st.integers(0, 3), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_python_grouping(self, xs, ys):
        n = min(len(xs), len(ys))
        a = np.asarray(xs[:n])
        b = np.asarray(ys[:n])
        ids, keys = encode_groups([a, b])
        assert len(keys) == len({(x, y) for x, y in zip(a.tolist(), b.tolist())})
        for i in range(n):
            assert keys[ids[i]] == (a[i], b[i])


class TestScalarAggregates:
    @pytest.fixture
    def table(self):
        return Table({"v": np.array([1.0, 2.0, 3.0, 4.0]), "g": np.array([1, 1, 2, 2])})

    @pytest.mark.parametrize(
        "func,expected",
        [("sum", 10.0), ("avg", 2.5), ("min", 1.0), ("max", 4.0)],
    )
    def test_values(self, table, func, expected):
        spec = AggregateSpec(func, col("v"), "out")
        assert compute_aggregate(spec, table) == pytest.approx(expected)

    def test_count(self, table):
        assert compute_aggregate(AggregateSpec("count", None, "c"), table) == 4

    def test_count_distinct(self, table):
        spec = AggregateSpec("count", col("g"), "d", distinct=True)
        assert compute_aggregate(spec, table) == 2

    def test_var_stddev(self, table):
        var = compute_aggregate(AggregateSpec("var", col("v"), "v2"), table)
        std = compute_aggregate(AggregateSpec("stddev", col("v"), "sd"), table)
        assert var == pytest.approx(np.var([1, 2, 3, 4], ddof=1))
        assert std == pytest.approx(np.sqrt(var))

    def test_empty_table_sum_zero(self):
        t = Table({"v": np.array([])})
        assert compute_aggregate(AggregateSpec("sum", col("v"), "s"), t) == 0.0

    def test_empty_table_avg_nan(self):
        t = Table({"v": np.array([])})
        assert np.isnan(compute_aggregate(AggregateSpec("avg", col("v"), "a"), t))


class TestGroupedAggregates:
    def _check(self, func, rng):
        n = 500
        t = Table(
            {"v": rng.normal(10, 5, n), "g": rng.integers(0, 7, n)}
        )
        ids, keys = encode_groups([t["g"]])
        spec = AggregateSpec(func, col("v") if func != "count" else None, "out")
        values = None if func == "count" else t["v"]
        out = compute_grouped_aggregate_values(spec, values, ids, len(keys))
        for gi, (k,) in enumerate(keys):
            vals = t["v"][t["g"] == k]
            if func == "sum":
                expected = vals.sum()
            elif func == "count":
                expected = len(vals)
            elif func == "avg":
                expected = vals.mean()
            elif func == "min":
                expected = vals.min()
            elif func == "max":
                expected = vals.max()
            assert out[gi] == pytest.approx(expected)

    @pytest.mark.parametrize("func", ["sum", "count", "avg", "min", "max"])
    def test_matches_brute_force(self, func, rng):
        self._check(func, rng)

    def test_grouped_var_matches_numpy(self, rng):
        n = 300
        vals = rng.normal(0, 1, n)
        groups = rng.integers(0, 5, n)
        out = grouped_var(groups, vals, 5)
        for g in range(5):
            assert out[g] == pytest.approx(np.var(vals[groups == g], ddof=1))

    def test_grouped_var_singleton_nan(self):
        out = grouped_var(np.array([0]), np.array([5.0]), 1)
        assert np.isnan(out[0])

    def test_grouped_count_distinct(self, rng):
        n = 400
        vals = rng.integers(0, 10, n)
        groups = rng.integers(0, 4, n)
        out = grouped_count_distinct(groups, vals, 4)
        for g in range(4):
            assert out[g] == len(np.unique(vals[groups == g]))

    def test_grouped_count_distinct_strings(self):
        vals = np.array(["a", "b", "a", "c"], dtype=object)
        groups = np.array([0, 0, 1, 1])
        out = grouped_count_distinct(groups, vals, 2)
        assert out.tolist() == [2.0, 2.0]

    def test_grouped_count_distinct_empty(self):
        out = grouped_count_distinct(np.array([], dtype=np.int64), np.array([]), 0)
        assert len(out) == 0
