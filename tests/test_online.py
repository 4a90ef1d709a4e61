"""Tests for online AQP: pilot planner, Quickr, OLA, ripple joins."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    Database,
    ErrorSpec,
    InfeasiblePlanError,
    Table,
    UnsupportedQueryError,
)
from repro.audit.acceptance import coverage_verdict
from repro.core.advisor import Advisor
from repro.core.options import QueryOptions
from repro.engine.fused import SliceRelation, prepare_partial_aggregate
from repro.engine.kernel_cache import get_kernel_cache
from repro.online import (
    OnlineAggregator,
    PilotPlanner,
    QuickrPlanner,
    RippleJoin,
    peeking_coverage,
)
from repro.online.ola import fixed_stop_snapshot
from repro.resilience import Deadline, ManualClock
from repro.sharding import ScatterGatherExecutor, ShardedTable
from repro.sql import bind_sql
from repro.workloads import zipf_group_table


@pytest.fixture
def db(rng):
    n = 300_000
    db = Database()
    db.create_table(
        "big",
        {
            "value": rng.exponential(50, n),
            "group_id": rng.integers(0, 6, n),
            "selector": rng.random(n),
        },
        block_size=512,
    )
    db.create_table(
        "tiny", {"k": np.arange(6), "zone": np.array([0, 0, 1, 1, 2, 2])}
    )
    return db


class TestPilotPlanner:
    def test_scalar_sum_guarantee(self, db):
        spec = ErrorSpec(0.05, 0.95)
        truth = db.table("big")["value"].sum()
        bound = bind_sql("SELECT SUM(value) AS s FROM big", db)
        errors = []
        for seed in range(12):
            res = PilotPlanner(db, seed=seed).run(bound, spec)
            errors.append(abs(res.scalar() - truth) / truth)
        # All runs within spec (the planner is deliberately conservative).
        assert max(errors) <= spec.relative_error

    def test_fraction_scanned_small(self, db):
        bound = bind_sql("SELECT SUM(value) AS s FROM big", db)
        res = PilotPlanner(db, seed=1).run(bound, ErrorSpec(0.05, 0.95))
        assert res.fraction_scanned < 0.2
        assert res.speedup > 1.0

    def test_grouped_avg(self, db):
        bound = bind_sql(
            "SELECT group_id, AVG(value) AS m FROM big GROUP BY group_id", db
        )
        res = PilotPlanner(db, seed=2).run(bound, ErrorSpec(0.08, 0.9))
        big = db.table("big")
        for row in res.to_pylist():
            truth = big["value"][big["group_id"] == row["group_id"]].mean()
            assert row["m"] == pytest.approx(truth, rel=0.08)
        assert res.table.num_rows == 6

    def test_ci_reported(self, db):
        bound = bind_sql("SELECT SUM(value) AS s FROM big", db)
        res = PilotPlanner(db, seed=3).run(bound, ErrorSpec(0.05, 0.95))
        cell = res.estimate("s")
        assert cell.ci_low < res.scalar() < cell.ci_high
        assert cell.relative_half_width <= 0.05

    def test_composite_output_interval(self, db):
        bound = bind_sql(
            "SELECT SUM(value) / COUNT(*) AS ratio FROM big", db
        )
        res = PilotPlanner(db, seed=4).run(bound, ErrorSpec(0.05, 0.95))
        truth = db.table("big")["value"].mean()
        cell = res.estimate("ratio")
        assert cell.ci_low <= truth <= cell.ci_high

    def test_nonlinear_rejected(self, db):
        bound = bind_sql("SELECT MAX(value) AS m FROM big", db)
        with pytest.raises(UnsupportedQueryError):
            PilotPlanner(db).run(bound, ErrorSpec(0.05, 0.95))

    def test_count_distinct_rejected(self, db):
        bound = bind_sql("SELECT COUNT(DISTINCT group_id) AS d FROM big", db)
        with pytest.raises(UnsupportedQueryError):
            PilotPlanner(db).run(bound, ErrorSpec(0.05, 0.95))

    def test_plain_query_rejected(self, db):
        bound = bind_sql("SELECT value FROM big LIMIT 5", db)
        with pytest.raises(UnsupportedQueryError):
            PilotPlanner(db).run(bound, ErrorSpec(0.05, 0.95))

    def test_small_table_infeasible(self, db):
        bound = bind_sql("SELECT SUM(zone) AS s FROM tiny", db)
        with pytest.raises(InfeasiblePlanError):
            PilotPlanner(db).run(bound, ErrorSpec(0.05, 0.95))

    @pytest.mark.parametrize("blocks,reaches_execute", [(59, False), (60, True)])
    def test_block_count_refusal_precedes_the_pilot(
        self, monkeypatch, blocks, reaches_execute
    ):
        """Below 2 * MIN_FINAL_BLOCKS blocks the stage-2 rate floor exceeds
        the useful maximum whatever the data, so the planner refuses
        without executing anything or drawing a sample seed."""
        block_size = 256  # keeps both tables above MIN_SAMPLABLE_ROWS
        db = Database()
        db.create_table(
            "t",
            {"v": np.arange(blocks * block_size, dtype=np.float64)},
            block_size=block_size,
        )
        assert db.table("t").num_blocks == blocks
        bound = bind_sql("SELECT SUM(v) AS s FROM t", db)

        class Executed(Exception):
            pass

        def execute(*args, **kwargs):
            raise Executed

        monkeypatch.setattr(db, "execute", execute)
        planner = PilotPlanner(db, seed=0)
        rng_state = planner.rng.bit_generator.state
        spec = ErrorSpec(0.05, 0.95)
        if reaches_execute:
            with pytest.raises(Executed):
                planner.run(bound, spec)
        else:
            with pytest.raises(InfeasiblePlanError, match="useful maximum"):
                planner.run(bound, spec)
            assert planner.rng.bit_generator.state == rng_state

    def test_hyper_selective_infeasible_or_exactish(self, db):
        bound = bind_sql(
            "SELECT SUM(value) AS s FROM big WHERE selector < 0.00001", db
        )
        with pytest.raises(InfeasiblePlanError):
            PilotPlanner(db, seed=5).run(bound, ErrorSpec(0.05, 0.95))

    def test_tight_spec_needs_more_data(self, db):
        bound = bind_sql("SELECT SUM(value) AS s FROM big", db)
        loose = PilotPlanner(db, seed=6).run(bound, ErrorSpec(0.10, 0.95))
        tight = PilotPlanner(db, seed=6).run(bound, ErrorSpec(0.02, 0.95))
        assert (
            tight.diagnostics["sampling_rate"]
            > loose.diagnostics["sampling_rate"]
        )

    def test_join_query_supported(self, db):
        bound = bind_sql(
            "SELECT t.zone AS zone, SUM(b.value) AS s FROM big b "
            "JOIN tiny t ON b.group_id = t.k GROUP BY t.zone",
            db,
        )
        res = PilotPlanner(db, seed=7).run(bound, ErrorSpec(0.1, 0.9))
        assert res.table.num_rows == 3


class TestQuickr:
    def test_scalar_estimate(self, db):
        bound = bind_sql("SELECT SUM(value) AS s FROM big", db)
        res = QuickrPlanner(db, seed=1).run(bound, ErrorSpec(0.05, 0.95))
        truth = db.table("big")["value"].sum()
        assert res.scalar() == pytest.approx(truth, rel=0.05)
        assert res.technique == "quickr"
        assert res.diagnostics["sampler"] == "uniform"

    def test_one_pass_cost_model(self, db):
        bound = bind_sql("SELECT SUM(value) AS s FROM big", db)
        res = QuickrPlanner(db, seed=2).run(bound, ErrorSpec(0.05, 0.95))
        assert res.fraction_scanned == 1.0
        assert 1.0 <= res.speedup < 3.0  # bounded gains: scan still happens

    def test_distinct_sampler_for_many_groups(self, rng):
        db = Database()
        cols = zipf_group_table(200_000, num_groups=800, zipf_s=1.5, seed=6)
        db.create_table("z", cols, block_size=512)
        bound = bind_sql(
            "SELECT group_id, COUNT(*) AS c FROM z GROUP BY group_id", db
        )
        res = QuickrPlanner(db, seed=3).run(bound, ErrorSpec(0.1, 0.9))
        assert res.diagnostics["sampler"] == "distinct"
        # Distinct sampler preserves every group.
        assert res.table.num_rows == len(np.unique(db.table("z")["group_id"]))

    def test_met_spec_flag(self, db):
        bound = bind_sql(
            "SELECT group_id, SUM(value) AS s, COUNT(*) AS c FROM big "
            "GROUP BY group_id",
            db,
        )
        res = QuickrPlanner(db, seed=4).run(bound, ErrorSpec(0.05, 0.95))
        assert isinstance(res.diagnostics["met_spec"], bool)
        # the vectorised worst width is the per-cell loop's, and met_spec
        # is that width held against the requested error
        worst = max(
            cell.relative_half_width for _, _, cell in res.iter_estimates()
        )
        assert res.max_relative_half_width() == worst
        assert res.diagnostics["met_spec"] == (worst <= 0.05)

    def test_catalog_never_written(self, db, monkeypatch):
        """The sampler rides the scan: no temp table is created, dropped
        or replaced on the shared Database, by Quickr or the reuse cache."""
        from repro.online.idea import ReuseCache

        def forbidden(*args, **kwargs):
            raise AssertionError("catalog mutated on the query path")

        for name in ("create_table", "drop_table", "replace_table"):
            monkeypatch.setattr(db, name, forbidden)
        names = db.table_names
        spec = ErrorSpec(0.05, 0.95)
        scalar = bind_sql("SELECT SUM(value) AS s FROM big", db)
        grouped = bind_sql(
            "SELECT group_id, SUM(value) AS s FROM big GROUP BY group_id", db
        )
        QuickrPlanner(db, seed=5).run(scalar, spec)
        QuickrPlanner(db, seed=5).run(grouped, spec)
        ReuseCache(db, seed=5).run(scalar, spec)
        assert db.table_names == names

    @pytest.mark.parametrize("groups,sampler", [(6, "uniform"), (800, "distinct")])
    def test_stats_report_the_pass_made(self, groups, sampler):
        """One pass over every row of the base table, ~rate of them kept;
        ``approx_cost`` is that accounting priced, nothing added."""
        n = 120_000
        db = Database()
        db.create_table(
            "z", zipf_group_table(n, num_groups=groups, zipf_s=1.1, seed=4),
            block_size=512,
        )
        bound = bind_sql(
            "SELECT group_id, SUM(value) AS s FROM z WHERE selector < 0.5 "
            "GROUP BY group_id",
            db,
        )
        res = QuickrPlanner(db, seed=8).run(bound, ErrorSpec(0.1, 0.9))
        assert res.diagnostics["sampler"] == sampler
        base = db.table("z")
        access = res.stats.per_table["z"]
        assert list(res.stats.per_table) == ["z"]
        assert access.blocks_scanned == base.num_blocks
        assert n <= access.rows_scanned <= base.num_blocks * base.block_size
        assert 0.08 * n < access.rows_returned < 0.2 * n
        assert res.diagnostics["sample_rows"] == access.rows_returned
        assert res.fraction_scanned == 1.0
        # the estimator folds the filtered sample, and that is charged too
        assert 0 < res.stats.agg_input_rows < access.rows_returned
        assert res.approx_cost == pytest.approx(
            res.stats.simulated_cost().total
        )

    def test_sample_is_column_pruned(self, db):
        bound = bind_sql(
            "SELECT group_id, SUM(value) AS s FROM big WHERE selector < 0.5 "
            "GROUP BY group_id",
            db,
        )
        planner = QuickrPlanner(db, seed=9)
        target = planner.choose_table(bound)
        pruned, weights, _, _ = planner.sampled_relation(bound, target)
        assert sorted(pruned.column_names) == [
            "big.__weight", "big.group_id", "big.value"
        ]
        assert len(weights) == pruned.num_rows
        full, _, _, _ = planner.sampled_relation(bound, target, prune=False)
        assert "big.selector" in full.column_names

    def test_join_through_sample(self, db):
        bound = bind_sql(
            "SELECT SUM(b.value) AS s FROM big b JOIN tiny t ON b.group_id = t.k",
            db,
        )
        res = QuickrPlanner(db, seed=6).run(bound, ErrorSpec(0.1, 0.9))
        truth = db.table("big")["value"].sum()
        assert res.scalar() == pytest.approx(truth, rel=0.1)

    def test_nonlinear_rejected(self, db):
        bound = bind_sql("SELECT MIN(value) AS m FROM big", db)
        with pytest.raises(UnsupportedQueryError):
            QuickrPlanner(db).run(bound, ErrorSpec(0.05, 0.95))


@pytest.mark.parametrize(
    "query",
    [
        "SELECT region, SUM(price) AS s FROM fact GROUP BY region",
        "SELECT store, SUM(price) AS s FROM fact GROUP BY store",
        "SELECT store, AVG(price) AS a FROM fact GROUP BY store",
        "SELECT COUNT(*) AS c FROM fact WHERE price > 150",
        "SELECT SUM(price * qty) AS r FROM fact",
    ],
)
def test_advisor_on_a_three_block_table_serves_quickrs_answer(query):
    """The pilot refuses a 3-block table before it runs; what the advisor
    serves is bitwise what Quickr alone answers with the same seed."""
    rng = np.random.default_rng(3)
    n = 10_000
    db = Database()
    db.create_table(
        "fact",
        {
            "region": np.array([f"r{i:02d}" for i in range(20)])[
                rng.integers(0, 20, n)
            ],
            "store": rng.integers(0, 50, n),
            "price": rng.exponential(100.0, n),
            "qty": np.minimum(rng.zipf(2.5, n), 1000).astype(np.float64),
        },
        block_size=4096,
    )
    assert db.table("fact").num_blocks == 3
    bound = bind_sql(query, db)
    spec = ErrorSpec(0.1, 0.95)
    for seed in range(10):
        served = Advisor(db).run(bound, spec, seed)
        quickr = Advisor(db).run(bound, spec, seed, force_technique="quickr")
        assert served.technique == quickr.technique == "quickr"
        assert served.table.column_names == quickr.table.column_names
        for name in served.table.column_names:
            np.testing.assert_array_equal(served.table[name], quickr.table[name])
        for side in ("ci_low", "ci_high"):
            got, want = getattr(served, side), getattr(quickr, side)
            assert got.keys() == want.keys()
            for alias in got:
                assert got[alias].tobytes() == want[alias].tobytes()
        assert served.diagnostics == quickr.diagnostics
        assert served.stats.to_dict() == quickr.stats.to_dict()


def _loop_estimate_groups_row_level(bound, pre_agg, weights):
    """The per-group masking loop ``estimate_groups_row_level`` replaced,
    kept as the reference its vectorised form must reproduce."""
    from repro.engine.aggregates import encode_groups
    from repro.online.estimation import expanded_aggregates

    gids, key_tuples = encode_groups(
        [expr.evaluate(pre_agg) for expr, _ in bound.group_keys]
    )
    out = {}
    for gi, key in enumerate(key_tuples):
        mask = gids == gi
        w = weights[mask]
        for spec_ in expanded_aggregates(bound):
            if spec_.func == "count":
                y = np.ones(int(mask.sum()))
            else:
                y = np.asarray(spec_.argument.evaluate(pre_agg), dtype=np.float64)[mask]
            out[key, spec_.alias] = (
                float(np.sum(w * y)),
                float(np.sum(w * (w - 1.0) * y * y)),
                int(mask.sum()),
            )
    return out


def test_row_level_estimates_match_masking_loop(rng):
    from repro.online.estimation import estimate_groups_row_level

    n = 40_000
    db = Database()
    db.create_table(
        "t",
        {
            "g": rng.integers(0, 50, n),
            "h": rng.integers(-3, 4, n),
            "x": rng.exponential(20.0, n),
            "y": rng.normal(0.0, 5.0, n),
        },
    )
    bound = bind_sql(
        "SELECT g, h, SUM(x * y) AS s, AVG(x) AS a, COUNT(*) AS c "
        "FROM t GROUP BY g, h",
        db,
    )
    pre_agg = db.table("t").rename({c: f"t.{c}" for c in "ghxy"})
    weights = 1.0 / rng.uniform(0.05, 1.0, n)
    expected = _loop_estimate_groups_row_level(bound, pre_agg, weights)
    got = estimate_groups_row_level(bound, pre_agg, weights)
    assert len(got) == 50 * 7
    for ge in got:
        for alias, est in ge.simple.items():
            total, variance, count = expected[ge.key, alias]
            assert est.value == pytest.approx(total, rel=1e-12, abs=1e-9)
            assert est.variance == pytest.approx(variance, rel=1e-12)
            assert est.sample_size == count


class TestOnlineAggregation:
    @pytest.fixture
    def table(self, rng):
        return Table({"v": rng.gamma(2.0, 10.0, 80_000)})

    def test_ci_shrinks(self, table):
        ola = OnlineAggregator(table, "v", "sum", seed=1)
        widths = [s.relative_half_width for s in ola.run(batch_size=5000)]
        assert widths[-1] < widths[0]
        assert widths[-1] < 0.01

    def test_final_snapshot_exactish(self, table):
        ola = OnlineAggregator(table, "v", "sum", seed=2)
        snap = ola.snapshot(table.num_rows)
        assert snap.value == pytest.approx(table["v"].sum())
        assert snap.relative_half_width < 1e-6

    def test_fixed_time_coverage(self, table):
        truth = table["v"].sum()
        hits = 0
        for seed in range(60):
            ola = OnlineAggregator(table, "v", "sum", seed=seed)
            snap = ola.snapshot(4000)
            hits += snap.ci_low <= truth <= snap.ci_high
        assert hits >= 50  # ~95% nominal with MC slack

    def test_run_to_target(self, table):
        ola = OnlineAggregator(table, "v", "sum", seed=3)
        snap = ola.run_to_target(0.02, batch_size=2000)
        assert snap.relative_half_width <= 0.02
        assert snap.fraction_seen < 1.0

    def test_avg_with_predicate(self, table):
        mask = table["v"] > 20
        ola = OnlineAggregator(table, "v", "avg", predicate_mask=mask, seed=4)
        snap = ola.snapshot(20_000)
        assert snap.value == pytest.approx(table["v"][mask].mean(), rel=0.05)

    def test_count_aggregate(self, table):
        mask = table["v"] > 20
        ola = OnlineAggregator(table, None, "count", predicate_mask=mask, seed=5)
        snap = ola.snapshot(20_000)
        assert snap.value == pytest.approx(mask.sum(), rel=0.05)

    def test_peeking_undercovers(self, rng):
        """Stopping at the first 'good-looking' CI costs coverage —
        the peeking pitfall the survey flags for OLA interfaces."""
        pop = rng.lognormal(1.0, 1.5, 30_000)
        peek = peeking_coverage(
            pop, target_relative_error=0.1, confidence=0.95,
            num_trials=60, batch_size=100, seed=1,
        )
        assert peek < 0.95

    def test_validation(self, table):
        with pytest.raises(Exception):
            OnlineAggregator(table, None, "sum")
        with pytest.raises(Exception):
            OnlineAggregator(table, "v", "median")

    def test_running_moments_match_prefix_sums(self, table):
        """Snapshots advance Σv, Σv², Σm over the new rows only, and a
        snapshot behind the last one restarts from zero."""
        mask = table["v"] > 20
        order = np.random.default_rng(7).permutation(table.num_rows)
        v = np.where(mask, table["v"], 0.0)[order]
        m = mask[order]
        ola = OnlineAggregator(table, "v", "avg", predicate_mask=mask, seed=7)
        for k in (1, 700, 700, 20_000, 61_234, 80_000, 3_000):
            ola.snapshot(k)
            want = (np.sum(v[:k]), np.sum(v[:k] * v[:k]), np.sum(m[:k]))
            assert ola._sums == pytest.approx(want, rel=1e-12)


class _SpyColumn(np.ndarray):
    """A column view that logs the length of every gather taken from it."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __getitem__(self, index):
        out = super().__getitem__(index)
        if isinstance(out, np.ndarray) and not isinstance(index, slice):
            self.log.append(out.size)
        return out


class _SpyRelation:
    """Relation over named columns whose every gather is logged."""

    def __init__(self, columns):
        self.gathers = []
        self._columns = {}
        for name, values in columns.items():
            view = np.asarray(values).view(_SpyColumn)
            view.log = self.gathers
            self._columns[name] = view
        self.num_rows = len(next(iter(columns.values())))

    @property
    def column_names(self):
        return list(self._columns)

    def __contains__(self, name):
        return name in self._columns

    def __getitem__(self, name):
        return self._columns[name]


def _logged(fn, log):
    def spy(rel):
        out = fn(rel)
        log.append(np.size(out))
        return out

    return spy


class TestFixedStopSnapshot:
    """The fixed-stop path behind sharded ``ola`` and the ladder's
    ``partial_ola`` rung."""

    @staticmethod
    def _prepared(db, sql):
        return prepare_partial_aggregate(bind_sql(sql, db), get_kernel_cache())

    @pytest.mark.parametrize("with_deadline", [False, True])
    def test_reads_only_the_prefix_it_answers_from(self, with_deadline):
        n, batch = 100_000, 2_000
        rng = np.random.default_rng(0)
        cols = {"v": rng.exponential(5.0, n), "k": rng.integers(0, 100, n)}
        db = Database()
        db.create_table("t", cols)
        prepared = self._prepared(db, "SELECT AVG(v) AS a FROM t WHERE k < 40")
        filters, inputs = [], []
        ((kind, predicate),) = prepared.steps
        spied = replace(
            prepared,
            steps=((kind, _logged(predicate, filters)),),
            aggregate=replace(
                prepared.aggregate,
                input_fns=tuple(
                    _logged(fn, inputs) if fn is not None else None
                    for fn in prepared.aggregate.input_fns
                ),
            ),
        )
        relation = _SpyRelation({f"t.{c}": v for c, v in cols.items()})
        ola, snap = fixed_stop_snapshot(
            spied, relation, "sum", 0.95, seed=3, batch_size=batch,
            deadline=Deadline(600.0) if with_deadline else None,
        )
        # The one whole-population read: the filter, for matched_rows.
        assert filters == [n]
        assert ola.matched_rows == float(np.count_nonzero(cols["k"] < 40))
        if with_deadline:
            assert inputs == [n]
            assert snap.rows_seen == n
        else:
            reach = max(int(0.30 * n), min(batch, n))
            assert inputs == [reach]
            assert relation.gathers and max(relation.gathers) <= reach
            assert snap.rows_seen == int(0.30 * n)

    @pytest.mark.parametrize("n,rows_seen", [(1, 1), (3, 3), (16, 4)])
    @pytest.mark.parametrize("expired", [False, True])
    def test_tiny_relations(self, n, rows_seen, expired):
        db = Database()
        db.create_table("t", {"v": np.arange(1.0, n + 1)})
        relation = SliceRelation(db.table("t"), 0, n, {"v": "t.v"})
        deadline = None
        if expired:
            clock = ManualClock()
            deadline = Deadline(1.0, clock=clock)
            clock.advance(2.0)
        _, snap = fixed_stop_snapshot(
            self._prepared(db, "SELECT SUM(v) AS s FROM t"), relation, "sum",
            0.95, seed=1, batch_size=256, deadline=deadline,
        )
        # An expired deadline answers from one batch: the whole relation.
        assert snap.rows_seen == (n if expired else rows_seen)
        assert math.isfinite(snap.value)

    def test_three_rows_over_two_shards(self):
        table = Table({"v": np.array([1.0, 2.0, 3.0])}, name="t")
        executor = ScatterGatherExecutor(
            ShardedTable.from_table(table, num_shards=2), max_workers=1
        )
        result = executor.sql(
            "SELECT SUM(v) AS s FROM t",
            options=QueryOptions(seed=0, technique="ola"),
        )
        assert result.scalar() == 6.0

    @pytest.mark.statistical
    @pytest.mark.parametrize(
        "sql,agg",
        [
            ("SELECT SUM(v) AS x FROM t", "sum"),
            ("SELECT AVG(v) AS x FROM t WHERE k < 30", "avg"),
            ("SELECT COUNT(*) AS x FROM t WHERE k < 30", "count"),
        ],
    )
    def test_fixed_stop_coverage(self, sql, agg):
        n = 20_000
        rng = np.random.default_rng(11)
        db = Database()
        db.create_table(
            "t", {"v": rng.exponential(10.0, n), "k": rng.integers(0, 100, n)}
        )
        truth = float(db.sql(sql).scalar())
        prepared = self._prepared(db, sql)
        relation = SliceRelation(
            db.table("t"), 0, n, {"v": "t.v", "k": "t.k"}
        )
        trials = 240
        hits = 0
        for seed in range(trials):
            _, snap = fixed_stop_snapshot(
                prepared, relation, agg, 0.95, seed=seed, batch_size=512
            )
            hits += snap.covers(truth)
        assert coverage_verdict(hits, trials, 0.95) != "fail_under"


class TestRippleJoin:
    @pytest.fixture
    def tables(self, rng):
        n, d = 40_000, 500
        keys = rng.integers(0, d, n)
        left = Table({"k": keys, "v": rng.exponential(4, n)})
        right = Table({"k": np.arange(d), "w": rng.random(d)})
        truth = float(np.sum(left["v"] * right["w"][keys]))
        return left, right, truth

    def test_converges_to_truth(self, tables):
        left, right, truth = tables
        rj = RippleJoin(left, right, "k", "k", "v", "w", seed=1)
        last = None
        for snap in rj.run(batch=5000):
            last = snap
        assert rj.is_exhausted
        assert last.value == pytest.approx(truth, rel=1e-9)

    def test_intermediate_estimates_reasonable(self, tables):
        left, right, truth = tables
        rj = RippleJoin(left, right, "k", "k", "v", "w", seed=2)
        snap = rj.advance(10_000)
        assert snap.value == pytest.approx(truth, rel=0.3)

    def test_ci_shrinks(self, tables):
        left, right, truth = tables
        rj = RippleJoin(left, right, "k", "k", "v", "w", seed=3)
        early = rj.advance(2000)
        late = rj.advance(20_000)
        assert late.relative_half_width < early.relative_half_width

    def test_stop_at_target(self, tables):
        left, right, _ = tables
        rj = RippleJoin(left, right, "k", "k", "v", "w", seed=4)
        snaps = list(rj.run(batch=2000, target_relative_error=0.2))
        assert snaps[-1].relative_half_width <= 0.2
        assert not rj.is_exhausted


class TestRippleBatchEquivalence:
    """The vectorized batch advance must reproduce the scalar steps."""

    def _make_pair(self, seed=9, n_left=3_000, n_right=800, d=60):
        rng = np.random.default_rng(seed)
        left = Table(
            {"k": rng.integers(0, d, n_left), "v": rng.exponential(2, n_left)}
        )
        right = Table(
            {"k": rng.integers(0, d, n_right), "w": rng.random(n_right)}
        )
        mk = lambda: RippleJoin(left, right, "k", "k", "v", "w", seed=5)
        return mk(), mk()

    def _advance_scalar(self, rj, steps):
        # The event order the batch kernel encodes: left at time 2t,
        # right at 2t+1.
        for _ in range(steps):
            if rj._kl < rj.n_left:
                rj._step_left()
            if rj._kr < rj.n_right:
                rj._step_right()

    @pytest.mark.parametrize("batches", [[1], [7, 1, 250], [1000, 5000]])
    def test_state_matches_scalar_reference(self, batches):
        batch_rj, scalar_rj = self._make_pair()
        for steps in batches:
            batch_rj._advance_batch(steps)
            self._advance_scalar(scalar_rj, steps)
        assert batch_rj._kl == scalar_rj._kl
        assert batch_rj._kr == scalar_rj._kr
        assert batch_rj._join_sum == pytest.approx(
            scalar_rj._join_sum, rel=1e-12, abs=1e-9
        )
        assert batch_rj._left_seen.keys() == scalar_rj._left_seen.keys()
        for k, v in scalar_rj._left_seen.items():
            assert batch_rj._left_seen[k] == pytest.approx(v, rel=1e-12)
        for k, v in scalar_rj._right_seen.items():
            assert batch_rj._right_seen[k] == pytest.approx(v, rel=1e-12)
        b = np.concatenate(batch_rj._left_contrib)
        s = np.concatenate(scalar_rj._left_contrib)
        np.testing.assert_allclose(b, s, rtol=1e-12, atol=1e-9)
        snap_b, snap_s = batch_rj.snapshot(), scalar_rj.snapshot()
        assert snap_b.value == pytest.approx(snap_s.value, rel=1e-12)
        assert snap_b.ci_high == pytest.approx(snap_s.ci_high, rel=1e-9)

    def test_exhaustion_equivalent(self):
        batch_rj, scalar_rj = self._make_pair(n_left=150, n_right=400)
        batch_rj._advance_batch(10_000)
        self._advance_scalar(scalar_rj, 10_000)
        assert batch_rj.is_exhausted and scalar_rj.is_exhausted
        assert batch_rj._join_sum == pytest.approx(
            scalar_rj._join_sum, rel=1e-12
        )
