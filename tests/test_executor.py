"""Tests for plan execution and work accounting."""

import numpy as np
import pytest

from repro import Database, PlanError, Table
from repro.engine.aggregates import AggregateSpec
from repro.engine.executor import Executor, join_indices
from repro.engine.expressions import col
from repro.engine.optimizer import optimize_plan
from repro.engine.plan import (
    Filter,
    GroupByAggregate,
    HashJoin,
    Limit,
    OrderBy,
    Project,
    SampleClause,
    Scan,
    UnionAll,
    attach_sample,
    scans_in,
    strip_samples,
)


@pytest.fixture
def db():
    db = Database()
    db.create_table(
        "t",
        {
            "a": np.arange(100, dtype=np.int64),
            "b": np.arange(100, dtype=np.float64) * 0.5,
            "g": np.arange(100) % 4,
        },
        block_size=10,
    )
    db.create_table(
        "dim",
        {"k": np.arange(4, dtype=np.int64), "label": np.array(list("wxyz"), dtype=object)},
    )
    return db


def run(db, plan, seed=0):
    return Executor(db, seed=seed).execute(plan)


class TestScan:
    def test_full_scan(self, db):
        out, stats = run(db, Scan("t"))
        assert out.num_rows == 100
        assert stats.blocks_scanned == 10
        assert stats.rows_scanned == 100
        assert stats.fraction_blocks_read == 1.0

    def test_column_pruning(self, db):
        out, _ = run(db, Scan("t", columns=("a",)))
        assert out.column_names == ["a"]

    def test_missing_column(self, db):
        with pytest.raises(Exception):
            run(db, Scan("t", columns=("nope",)))

    def test_alias_qualifies_names(self, db):
        out, _ = run(db, Scan("t", alias="x"))
        assert "x.a" in out.column_names

    def test_bernoulli_row_sample_touches_all_blocks(self, db):
        out, stats = run(
            db, Scan("t", sample=SampleClause("bernoulli_rows", rate=0.5, seed=1))
        )
        assert 20 <= out.num_rows <= 80
        # With 50% row rate and block size 10, essentially every block is hit.
        assert stats.blocks_scanned >= 9

    def test_block_sample_skips_blocks(self, db):
        out, stats = run(
            db, Scan("t", sample=SampleClause("system_blocks", rate=0.3, seed=5))
        )
        assert stats.blocks_scanned < 10
        assert out.num_rows == stats.blocks_scanned * 10
        assert "__block_id" in out.column_names

    def test_fixed_rows_sample(self, db):
        out, _ = run(db, Scan("t", sample=SampleClause("fixed_rows", size=7)))
        assert out.num_rows == 7

    def test_fixed_blocks_sample(self, db):
        out, stats = run(db, Scan("t", sample=SampleClause("fixed_blocks", size=3)))
        assert stats.blocks_scanned == 3

    def test_sample_seed_reproducible(self, db):
        plan = Scan("t", sample=SampleClause("system_blocks", rate=0.4, seed=99))
        out1, _ = run(db, plan, seed=1)
        out2, _ = run(db, plan, seed=2)
        assert out1["a"].tolist() == out2["a"].tolist()

    def test_sample_clause_validation(self):
        with pytest.raises(PlanError):
            SampleClause("bernoulli_rows", rate=1.5)
        with pytest.raises(PlanError):
            SampleClause("fixed_rows")
        with pytest.raises(PlanError):
            SampleClause("martian")
        with pytest.raises(PlanError):
            SampleClause("distinct_rows", rate=0.1)  # no columns, no cap
        with pytest.raises(PlanError):
            SampleClause("distinct_rows", rate=0.1, columns=("a",), cap=0)
        with pytest.raises(PlanError):
            SampleClause("bernoulli_rows", rate=0.1, columns=("a",))

    def test_row_weighted_samples_expose_weight_column(self, db):
        out, _ = run(
            db, Scan("t", alias="x", sample=SampleClause("bernoulli_rows", rate=0.5, seed=1))
        )
        assert out.column_names[-1] == "x.__weight"
        assert np.all(out["x.__weight"] == 2.0)
        out, stats = run(
            db,
            Scan("t", sample=SampleClause(
                "distinct_rows", rate=0.2, seed=1, columns=("a",), cap=1
            )),
        )
        assert out.num_rows == 100  # every a is distinct: all kept outright
        assert np.all(out["__weight"] == 1.0)
        assert stats.rows_scanned == 100

    def test_scan_cannot_prune_its_samplers_columns(self, db):
        sample = SampleClause("distinct_rows", rate=0.2, columns=("a",), cap=2)
        with pytest.raises(PlanError):
            Scan("t", columns=("b",), sample=sample)
        plan = Project(Scan("t", sample=sample), ((col("b"), "b"),))
        pruned = optimize_plan(plan, db)
        assert set(pruned.child.columns) == {"a", "b"}


class TestOperators:
    def test_filter(self, db):
        out, _ = run(db, Filter(Scan("t"), col("a") < 10))
        assert out.num_rows == 10

    def test_project_expression(self, db):
        plan = Project(Scan("t"), ((col("a") + col("b"), "ab"),))
        out, _ = run(db, plan)
        assert out["ab"][2] == pytest.approx(3.0)

    def test_order_by_desc_limit(self, db):
        plan = Limit(OrderBy(Scan("t"), (("a", False),)), 3)
        out, _ = run(db, plan)
        assert out["a"].tolist() == [99, 98, 97]

    def test_order_by_string_column(self, db):
        plan = OrderBy(Scan("dim"), (("label", False),))
        out, _ = run(db, plan)
        assert out["label"].tolist() == ["z", "y", "x", "w"]

    def test_union_all(self, db):
        plan = UnionAll((Scan("dim"), Scan("dim")))
        out, _ = run(db, plan)
        assert out.num_rows == 8

    def test_scalar_aggregate(self, db):
        plan = GroupByAggregate(
            Scan("t"), (), (AggregateSpec("sum", col("b"), "s"),)
        )
        out, _ = run(db, plan)
        assert out["s"][0] == pytest.approx(np.arange(100).sum() * 0.5)

    def test_grouped_aggregate(self, db):
        plan = GroupByAggregate(
            Scan("t"),
            ((col("g"), "g"),),
            (AggregateSpec("count", None, "c"),),
        )
        out, _ = run(db, plan)
        assert sorted(out["c"].tolist()) == [25.0] * 4

    def test_having(self, db):
        plan = GroupByAggregate(
            Scan("t"),
            ((col("g"), "g"),),
            (AggregateSpec("sum", col("a"), "s"),),
            having=col("s") > 1224,
        )
        out, _ = run(db, plan)
        # sums are 1200, 1225, 1250, 1275 for g=0..3
        assert out.num_rows == 3

    def test_aggregate_empty_input(self, db):
        plan = GroupByAggregate(
            Filter(Scan("t"), col("a") < -1),
            ((col("g"), "g"),),
            (AggregateSpec("sum", col("a"), "s"),),
        )
        out, _ = run(db, plan)
        assert out.num_rows == 0

    def test_agg_input_rows_accounted(self, db):
        plan = GroupByAggregate(Scan("t"), (), (AggregateSpec("count", None, "c"),))
        _, stats = run(db, plan)
        assert stats.agg_input_rows == 100


class TestJoins:
    def test_inner_join(self, db):
        plan = HashJoin(Scan("t"), Scan("dim"), ("g",), ("k",))
        out, stats = run(db, plan)
        assert out.num_rows == 100
        assert "label" in out.column_names
        assert stats.join_input_rows == 104

    def test_inner_join_values_align(self, db):
        plan = HashJoin(Scan("t"), Scan("dim"), ("g",), ("k",))
        out, _ = run(db, plan)
        labels = np.array(list("wxyz"), dtype=object)
        assert (out["label"] == labels[out["g"]]).all()

    def test_left_join_pads_nan(self, db):
        small = Database()
        small.create_table("l", {"k": np.array([1, 2, 3])})
        small.create_table("r", {"k": np.array([1]), "v": np.array([10.0])})
        plan = HashJoin(Scan("l"), Scan("r"), ("k",), ("k",), how="left")
        out, _ = run(small, plan)
        assert out.num_rows == 3
        assert np.isnan(out["v"]).sum() == 2

    def test_join_name_collision_suffixed(self, db):
        small = Database()
        small.create_table("l", {"k": np.array([1]), "v": np.array([1.0])})
        small.create_table("r", {"k": np.array([1]), "v": np.array([2.0])})
        plan = HashJoin(Scan("l"), Scan("r"), ("k",), ("k",))
        out, _ = run(small, plan)
        assert "v__r" in out.column_names

    def test_join_requires_keys(self, db):
        with pytest.raises(PlanError):
            HashJoin(Scan("t"), Scan("dim"), (), ())


class TestJoinIndices:
    def test_basic_match(self):
        li, ri, un = join_indices([np.array([1, 2, 3])], [np.array([2, 3, 4])])
        pairs = set(zip(li.tolist(), ri.tolist()))
        assert pairs == {(1, 0), (2, 1)}
        assert un.tolist() == [0]

    def test_many_to_many(self):
        li, ri, _ = join_indices([np.array([1, 1])], [np.array([1, 1, 1])])
        assert len(li) == 6

    def test_empty_sides(self):
        li, ri, un = join_indices([np.array([])], [np.array([1])])
        assert len(li) == 0 and len(un) == 0

    def test_string_keys(self):
        li, ri, _ = join_indices(
            [np.array(["a", "b"], dtype=object)], [np.array(["b"], dtype=object)]
        )
        assert list(zip(li.tolist(), ri.tolist())) == [(1, 0)]

    def test_composite_keys(self):
        li, ri, _ = join_indices(
            [np.array([1, 1, 2]), np.array([5, 6, 5])],
            [np.array([1, 2]), np.array([6, 5])],
        )
        pairs = set(zip(li.tolist(), ri.tolist()))
        assert pairs == {(1, 0), (2, 1)}

    def test_random_against_brute_force(self, rng):
        lk = rng.integers(0, 20, 200)
        rk = rng.integers(0, 20, 150)
        li, ri, un = join_indices([lk], [rk])
        expected = {(i, j) for i in range(200) for j in range(150) if lk[i] == rk[j]}
        assert set(zip(li.tolist(), ri.tolist())) == expected
        assert set(un.tolist()) == {
            i for i in range(200) if lk[i] not in set(rk.tolist())
        }


class TestPlanUtilities:
    def test_attach_and_strip_sample(self, db):
        plan = Filter(Scan("t"), col("a") > 5)
        sampled = attach_sample(plan, "t", SampleClause("system_blocks", rate=0.5))
        scan = scans_in(sampled)[0]
        assert scan.sample is not None
        clean = strip_samples(sampled)
        assert scans_in(clean)[0].sample is None

    def test_explain_renders_tree(self, db):
        plan = Limit(Filter(Scan("t"), col("a") > 5), 3)
        text = plan.explain()
        assert "Limit(3)" in text and "Scan(t" in text
