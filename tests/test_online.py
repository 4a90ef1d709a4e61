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

    def test_sample_is_column_pruned(self, db, monkeypatch):
        """Quickr's one pass scans only the columns the query references;
        the reuse cache's sampled relation keeps every column."""
        import repro.engine.executor as executor_mod

        scanned = []
        real = executor_mod.scan_relation

        def spy(table, columns, selection, alias):
            scanned.append(sorted(columns))
            return real(table, columns, selection, alias)

        monkeypatch.setattr(executor_mod, "scan_relation", spy)
        bound = bind_sql(
            "SELECT group_id, SUM(value) AS s FROM big WHERE selector < 0.5 "
            "GROUP BY group_id",
            db,
        )
        QuickrPlanner(db, seed=9).run(bound, ErrorSpec(0.1, 0.95))
        assert scanned == [["group_id", "selector", "value"]]
        planner = QuickrPlanner(db, seed=9)
        full, weights, _, _ = planner.sampled_relation(
            bound, planner.choose_table(bound)
        )
        assert sorted(full.column_names) == [
            "big.__weight", "big.group_id", "big.selector", "big.value"
        ]
        assert len(weights) == full.num_rows

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
    """The per-group masking loop the row-level HT fold replaced, kept as
    the reference it must reproduce: ``{(key, piece): (total, variance,
    rows)}``. Sums run left to right (``cumsum``), the order ``bincount``
    adds in, so a grouped fold must match it bitwise."""
    from repro.engine.aggregates import encode_groups
    from repro.online.estimation import expanded_aggregates

    if bound.group_keys:
        gids, key_tuples = encode_groups(
            [expr.evaluate(pre_agg) for expr, _ in bound.group_keys]
        )
    else:
        gids, key_tuples = np.zeros(pre_agg.num_rows, dtype=np.int64), [()]
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
                _sequential_sum(w * y),
                _sequential_sum(w * (w - 1.0) * y * y),
                int(mask.sum()),
            )
    return out


def _sequential_sum(values):
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _loop_estimate_groups_from_blocks(bound, per_block, sampled_blocks, total_blocks):
    """The per-group masking loop ``estimate_groups_from_blocks`` replaced
    (O(groups x rows)), kept as its reference, in the same form."""
    from repro.engine.aggregates import encode_groups
    from repro.online.estimation import expanded_aggregates

    if per_block.num_rows == 0:
        return {}
    key_aliases = [alias for _, alias in bound.group_keys]
    if key_aliases:
        gids, key_tuples = encode_groups([per_block[a] for a in key_aliases])
    else:
        gids, key_tuples = np.zeros(per_block.num_rows, dtype=np.int64), [()]
    m = max(sampled_blocks, 1)
    out = {}
    for gi, key in enumerate(key_tuples):
        mask = gids == gi
        for spec_ in expanded_aggregates(bound):
            t = np.asarray(per_block[spec_.alias], dtype=np.float64)[mask]
            s1 = float(np.sum(t))
            s2 = float(np.sum(t * t))
            mean = s1 / m
            var_blocks = max(s2 / m - mean * mean, 0.0)
            if m > 1:
                var_blocks *= m / (m - 1)
            fpc = max(1.0 - m / total_blocks, 0.0) if total_blocks else 1.0
            out[key, spec_.alias] = (
                total_blocks * mean,
                total_blocks * total_blocks * fpc * var_blocks / m,
                m,
            )
    return out


def _loop_combine(agg, cells, key, confidence):
    """``(value, low, high)`` of one user aggregate in one group: the
    per-cell ``Estimate.ci`` loop the vectorised intervals replaced."""
    from repro.estimators.closed_form import Estimate

    def est(piece):
        return Estimate(*cells[key, f"{agg.alias}__{piece}"])

    if agg.func in ("sum", "count"):
        e = est(agg.func)
        return (e.value, *e.ci(confidence))
    s, c = est("sum"), est("count")
    if c.value == 0:
        return math.nan, -math.inf, math.inf
    value = s.value / c.value
    s_lo, s_hi = s.ci(confidence)
    c_lo, c_hi = c.ci(confidence)
    if c_lo <= 0:
        return value, -math.inf, math.inf
    quots = [s_lo / c_lo, s_lo / c_hi, s_hi / c_lo, s_hi / c_hi]
    return value, min(quots), max(quots)


def _loop_project(bound, spec, cells):
    """The per-group ``project_output_with_intervals`` loop, over the
    reference cells: ``(table, ci_low, ci_high)``."""
    from repro.online import estimation as est

    keys = list(dict.fromkeys(key for key, _ in cells))
    n = len(keys)
    num_cells = max(n * max(len(bound.aggregates), 1), 1)
    conf = min(max(1.0 - spec.failure_probability / 2.0 / num_cells, 0.5), 1 - 1e-12)
    agg_columns = {}
    for agg in bound.aggregates:
        triples = np.array(
            [_loop_combine(agg, cells, key, conf) for key in keys]
        ).reshape(n, 3)
        agg_columns[agg.alias] = est._Interval(*triples.T)
    key_arrays = {
        alias: np.asarray([key[pos] for key in keys])
        for pos, (_, alias) in enumerate(bound.group_keys)
    }
    out_cols, ci_low, ci_high = {}, {}, {}
    for expr, alias in bound.output_items:
        referenced = expr.columns()
        if referenced and referenced <= set(key_arrays):
            out_cols[alias] = expr.evaluate(Table(key_arrays))
            continue
        interval = est._interval_eval(expr, agg_columns, n)
        out_cols[alias] = interval.value
        ci_low[alias] = interval.low
        ci_high[alias] = interval.high
    table = Table(out_cols)
    selector = np.arange(table.num_rows)
    if bound.having is not None:
        view = {alias: iv.value for alias, iv in agg_columns.items()}
        mask = bound.having.evaluate(Table({**view, **key_arrays}))
        selector = selector[np.asarray(mask, dtype=bool)]
    if bound.order_by:
        selector = selector[est._order_indices(table.take(selector), bound.order_by)]
    if bound.limit is not None:
        selector = selector[: bound.limit]
    return (
        table.take(selector),
        {k: v[selector] for k, v in ci_low.items()},
        {k: v[selector] for k, v in ci_high.items()},
    )


def _assert_same_answer(got, want, bitwise):
    """``got``/``want`` are ``(table, ci_low, ci_high)``; values and bounds
    agree bitwise, or within 1e-12 relative where summation order moved."""
    (table, low, high), (w_table, w_low, w_high) = got, want
    assert table.column_names == w_table.column_names
    assert low.keys() == w_low.keys() == high.keys() == w_high.keys()
    pairs = [(table[c], w_table[c]) for c in table.column_names]
    pairs += [(low[a], w_low[a]) for a in low] + [(high[a], w_high[a]) for a in high]
    for a, b in pairs:
        if a.dtype == object or b.dtype == object or bitwise:
            np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0, equal_nan=True)


def test_row_level_estimates_match_masking_loop(rng):
    from repro.online.estimation import (
        estimate_groups_row_level,
        expanded_aggregates,
    )

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
    assert got.num_rows == 50 * 7
    keys = list(zip(got["g"].tolist(), got["h"].tolist()))
    for alias in (piece.alias for piece in expanded_aggregates(bound)):
        for g, key in enumerate(keys):
            total, variance, count = expected[key, alias]
            assert got[alias][g] == total
            assert got[alias + "__var"][g] == variance
            assert got["__rows"][g] == count


def _differential_db(rng):
    """Groups of 1 row, of fewer than 100 rows and of 100 or more, under
    int, string and composite keys."""
    sizes = np.array([1, 1, 2, 5, 40, 99, 100, 300, 2000, 6000])
    g = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(g)
    n = len(g)
    db = Database()
    db.create_table(
        "t",
        {
            "g": g,
            "r": np.array(["north", "south", "east"], dtype=object)[g % 3],
            "x": rng.exponential(20.0, n),
            "k": rng.integers(0, 9, n),
            "sel": rng.random(n),
        },
    )
    return db


DIFFERENTIAL_QUERIES = [
    ("SELECT SUM(x) AS s FROM t", False),
    ("SELECT COUNT(*) AS c, AVG(x) AS a FROM t WHERE sel < 0.3", False),
    ("SELECT AVG(x) AS a, SUM(x) / COUNT(*) AS q FROM t WHERE sel > 2", False),
    ("SELECT g, SUM(x) AS s, COUNT(*) AS c, AVG(k) AS a FROM t GROUP BY g", True),
    ("SELECT r, SUM(x) / COUNT(*) AS q FROM t WHERE sel < 0.7 GROUP BY r", True),
    ("SELECT r, g, COUNT(*) AS c, AVG(x) AS a FROM t GROUP BY r, g", True),
    ("SELECT g, SUM(x) AS s FROM t GROUP BY g HAVING SUM(x) > 500", True),
    ("SELECT g, AVG(x) AS a FROM t GROUP BY g ORDER BY a DESC LIMIT 4", True),
]


@pytest.mark.parametrize("query,grouped", DIFFERENTIAL_QUERIES)
def test_row_level_answer_matches_per_group_loop(rng, query, grouped):
    """Folded moments + vectorised intervals == the masking loop + per-cell
    ``ci()``; bitwise for grouped folds (``bincount`` on both sides)."""
    from repro.online.estimation import (
        estimate_groups_row_level,
        project_output_with_intervals,
    )

    db = _differential_db(rng)
    bound = bind_sql(query, db)
    table = db.table("t")
    relation = table.rename({c: f"t.{c}" for c in table.column_names})
    weights = 1.0 / rng.uniform(0.02, 1.0, table.num_rows)
    spec = ErrorSpec(0.1, 0.95)
    got = project_output_with_intervals(
        bound, spec, estimate_groups_row_level(bound, relation, weights, bound.where)
    )
    mask = (
        np.ones(table.num_rows, dtype=bool)
        if bound.where is None
        else np.asarray(bound.where.evaluate(relation), dtype=bool)
    )
    cells = _loop_estimate_groups_row_level(bound, relation.take(mask), weights[mask])
    _assert_same_answer(got, _loop_project(bound, spec, cells), bitwise=grouped)


def _paths_db(rng):
    n = 120_000
    db = Database()
    db.create_table(
        "big",
        {
            "value": rng.exponential(50, n),
            "group_id": rng.integers(0, 6, n),
            "wide": rng.integers(0, 400, n),
            "city": np.array([f"c{i}" for i in range(12)], dtype=object)[
                rng.integers(0, 12, n)
            ],
            "selector": rng.random(n),
        },
        block_size=256,
    )
    return db


PATH_QUERIES = [
    "SELECT SUM(value) AS s, AVG(value) AS a FROM big WHERE selector < 0.4",
    "SELECT group_id, SUM(value) / COUNT(*) AS q, COUNT(*) AS c FROM big "
    "GROUP BY group_id HAVING SUM(value) > 0 ORDER BY q LIMIT 4",
    "SELECT city, group_id, AVG(value) AS a FROM big WHERE selector > 0.2 "
    "GROUP BY city, group_id",
    "SELECT wide, SUM(value) AS s FROM big GROUP BY wide",
]


@pytest.mark.parametrize("query", PATH_QUERIES)
def test_quickr_answer_matches_per_group_loop(rng, query):
    """The fold inside Quickr's sampled scan answers what the per-group
    loops answer over the same draw (uniform and distinct samplers)."""
    db = _paths_db(rng)
    bound = bind_sql(query, db)
    spec = ErrorSpec(0.1, 0.95)
    res = QuickrPlanner(db, seed=11).run(bound, spec)
    planner = QuickrPlanner(db, seed=11)
    relation, weights, _, sampler = planner.sampled_relation(
        bound, planner.choose_table(bound)
    )
    assert sampler == res.diagnostics["sampler"]
    cells = _loop_estimate_groups_row_level(bound, relation, weights)
    _assert_same_answer(
        (res.table, res.ci_low, res.ci_high),
        _loop_project(bound, spec, cells),
        bitwise=bool(bound.group_keys),
    )


@pytest.mark.parametrize(
    "query",
    [
        "SELECT SUM(value) AS s, AVG(value) AS a FROM big WHERE selector < 0.4",
        "SELECT group_id, SUM(value) / COUNT(*) AS q, COUNT(*) AS c FROM big "
        "WHERE selector < 0.9 GROUP BY group_id HAVING SUM(value) > 0 "
        "ORDER BY q LIMIT 4",
        "SELECT city, group_id, AVG(value) AS a FROM big WHERE selector > 0.2 "
        "GROUP BY city, group_id",
    ],
)
def test_offline_answer_matches_per_group_loop(rng, query):
    """The rewriter's fold over the catalog sample (WHERE as its filter)
    answers what the per-group loops answer over the filtered sample."""
    from repro.offline import OfflineRewriter, SampleEntry, SynopsisCatalog
    from repro.sampling.stratified import stratified_sample

    db = _paths_db(rng)
    base = db.table("big")
    sample = stratified_sample(
        base, ["city", "group_id"], 30_000, min_per_stratum=100, rng=rng
    )
    SynopsisCatalog.for_database(db).add_sample(
        SampleEntry(
            table="big", sample=sample, kind="stratified",
            strata_column=("city", "group_id"), built_at_rows=base.num_rows,
        )
    )
    bound = bind_sql(query, db)
    spec = ErrorSpec(0.5, 0.9)
    res = OfflineRewriter(db).run(bound, spec)
    relation = sample.table.rename({c: f"big.{c}" for c in sample.table.column_names})
    mask = np.asarray(bound.where.evaluate(relation), dtype=bool)
    cells = _loop_estimate_groups_row_level(
        bound, relation.take(mask), sample.weights[mask]
    )
    _assert_same_answer(
        (res.table, res.ci_low, res.ci_high),
        _loop_project(bound, spec, cells),
        bitwise=bool(bound.group_keys),
    )


def test_quickr_differential_covers_both_samplers(rng):
    db = _paths_db(rng)
    samplers = {
        QuickrPlanner(db, seed=11).run(bind_sql(q, db), ErrorSpec(0.1, 0.95))
        .diagnostics["sampler"]
        for q in PATH_QUERIES
    }
    assert samplers == {"uniform", "distinct"}


@pytest.mark.parametrize("query", PATH_QUERIES)
def test_reuse_cache_answer_matches_per_group_loop(rng, query):
    from repro.online.idea import ReuseCache

    db = _paths_db(rng)
    bound = bind_sql(query, db)
    spec = ErrorSpec(0.1, 0.95)
    cache = ReuseCache(db, seed=5)
    cache.run(bound, spec)
    res = cache.run(bound, spec)
    assert res.technique == "idea_reuse"
    (entry,) = cache._entries.values()
    cells = _loop_estimate_groups_row_level(bound, entry.relation, entry.weights)
    _assert_same_answer(
        (res.table, res.ci_low, res.ci_high),
        _loop_project(bound, spec, cells),
        bitwise=bool(bound.group_keys),
    )


@pytest.mark.parametrize(
    "query",
    [
        "SELECT SUM(value) AS s, AVG(value) AS a FROM big WHERE selector < 0.4",
        "SELECT group_id, SUM(value) / COUNT(*) AS q, COUNT(*) AS c FROM big "
        "GROUP BY group_id ORDER BY q DESC LIMIT 3",
        "SELECT city, AVG(value) AS a FROM big GROUP BY city HAVING AVG(value) > 0",
    ],
)
def test_pilot_answer_matches_per_group_loop(rng, monkeypatch, query):
    """Block moments by ``bincount`` == the per-group masking loop, through
    the pilot's whole answer."""
    from repro.online import estimation

    db = _paths_db(rng)
    bound = bind_sql(query, db)
    spec = ErrorSpec(0.25, 0.9)
    seen = []
    real = estimation.estimate_groups_from_blocks

    def spy(bound_, per_block, **kwargs):
        seen.append((per_block, kwargs))
        return real(bound_, per_block, **kwargs)

    monkeypatch.setattr(estimation, "estimate_groups_from_blocks", spy)
    res = PilotPlanner(db, seed=3).run(bound, spec)
    ((per_block, kwargs),) = seen
    cells = _loop_estimate_groups_from_blocks(
        bound, per_block, kwargs["sampled_blocks"], kwargs["total_blocks"]
    )
    _assert_same_answer(
        (res.table, res.ci_low, res.ci_high),
        _loop_project(bound, spec, cells),
        bitwise=False,
    )


def test_block_moments_match_masking_loop_on_2000_groups(rng):
    from repro.online.estimation import (
        estimate_groups_from_blocks,
        expanded_aggregates,
    )

    db = Database()
    db.create_table("t", {"g": np.arange(10), "x": np.ones(10)})
    bound = bind_sql("SELECT g, SUM(x) AS s, AVG(x) AS a FROM t GROUP BY g", db)
    blocks, groups = 60, 2000
    pairs = np.unique(
        np.stack([rng.integers(0, groups, 30_000), rng.integers(0, blocks, 30_000)]),
        axis=1,
    )
    columns = {"g": pairs[0], "__pilot_block": pairs[1]}
    for piece in expanded_aggregates(bound):
        columns[piece.alias] = (
            rng.integers(1, 300, pairs.shape[1]).astype(np.float64)
            if piece.func == "count"
            else rng.normal(50.0, 20.0, pairs.shape[1])
        )
    per_block = Table(columns)
    got = estimate_groups_from_blocks(
        bound, per_block, rate=0.1, sampled_blocks=blocks, total_blocks=700,
        expanded_aggs=expanded_aggregates(bound),
    )
    want = _loop_estimate_groups_from_blocks(bound, per_block, blocks, 700)
    assert got.num_rows == groups
    for piece in expanded_aggregates(bound):
        for g, key in enumerate(got["g"].tolist()):
            total, variance, m = want[(key,), piece.alias]
            assert got[piece.alias][g] == pytest.approx(total, rel=1e-12)
            assert got[piece.alias + "__var"][g] == pytest.approx(variance, rel=1e-12)
            assert got["__rows"][g] == m


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
