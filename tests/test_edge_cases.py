"""Edge cases and failure injection across the stack.

Empty inputs, single rows, degenerate block sizes, boundary sampling
rates, dropped tables mid-flight — the situations a downstream user hits
first and bug reports are made of.
"""

import math

import numpy as np
import pytest

from repro import (
    Database,
    ErrorSpec,
    InfeasiblePlanError,
    SchemaError,
    Table,
)
from repro.core.errorspec import z_value
from repro.core.options import QueryOptions
from repro.offline import SampleEntry, SynopsisCatalog
from repro.online import ReuseCache
from repro.sampling import (
    bernoulli_sample,
    block_bernoulli_sample,
    srs_sample,
    stratified_sample,
)
from repro.sketches import CountMinSketch, GKQuantileSketch, HyperLogLog


class TestEmptyInputs:
    @pytest.fixture
    def db(self):
        db = Database()
        db.create_table("empty", {"v": np.array([]), "g": np.array([])})
        db.create_table("one", {"v": np.array([42.0]), "g": np.array([1])})
        return db

    def test_scan_empty(self, db):
        res = db.sql("SELECT v FROM empty")
        assert res.table.num_rows == 0

    def test_aggregate_empty(self, db):
        res = db.sql("SELECT SUM(v) AS s, COUNT(*) AS c FROM empty")
        assert res.table["s"][0] == 0.0
        assert res.table["c"][0] == 0.0

    def test_group_by_empty(self, db):
        res = db.sql("SELECT g, SUM(v) AS s FROM empty GROUP BY g")
        assert res.table.num_rows == 0

    def test_join_with_empty_side(self, db):
        res = db.sql(
            "SELECT COUNT(*) AS c FROM one o JOIN empty e ON o.g = e.g"
        )
        assert res.scalar() == 0

    def test_order_limit_empty(self, db):
        res = db.sql("SELECT v FROM empty ORDER BY v LIMIT 5")
        assert res.table.num_rows == 0

    def test_sample_empty_table(self, db):
        res = db.sql("SELECT v FROM empty TABLESAMPLE SYSTEM (50)")
        assert res.table.num_rows == 0

    def test_samplers_on_empty(self):
        t = Table({"v": np.array([])})
        assert bernoulli_sample(t, 0.5).num_rows == 0
        assert srs_sample(t, 10).num_rows == 0
        assert block_bernoulli_sample(t, 0.5).num_rows == 0

    def test_sketches_accept_empty_batches(self):
        h = HyperLogLog(10)
        h.add(np.array([]))
        assert h.estimate() == 0 or h.estimate() < 1
        cm = CountMinSketch(0.01, 0.01)
        cm.add(np.array([]))
        assert cm.total == 0
        g = GKQuantileSketch(0.1)
        g.add(np.array([]))
        assert math.isnan(g.query(0.5))

    def test_pilot_refuses_empty(self, db):
        res = db.sql(
            "SELECT SUM(v) AS s FROM empty ERROR WITHIN 5% CONFIDENCE 95%"
        )
        assert not res.is_approximate  # fell back to exact


class TestDegenerateShapes:
    def test_single_row_table(self):
        db = Database()
        db.create_table("t", {"v": np.array([3.5]), "g": np.array(["x"], dtype=object)})
        res = db.sql("SELECT g, AVG(v) AS a FROM t GROUP BY g")
        assert res.table["a"][0] == 3.5

    def test_block_size_larger_than_table(self):
        t = Table({"v": np.arange(10)}, block_size=1000)
        assert t.num_blocks == 1
        s = block_bernoulli_sample(t, 0.99, np.random.default_rng(0))
        assert s.num_rows in (0, 10)

    def test_limit_zero(self):
        db = Database()
        db.create_table("t", {"v": np.arange(5)})
        res = db.sql("SELECT v FROM t LIMIT 0")
        assert res.table.num_rows == 0

    def test_bernoulli_rate_100(self):
        db = Database()
        db.create_table("t", {"v": np.arange(100)})
        res = db.sql("SELECT COUNT(*) AS c FROM t TABLESAMPLE BERNOULLI (100)")
        assert res.scalar() == 100

    def test_float_group_keys(self):
        db = Database()
        db.create_table("t", {"v": np.array([1.0, 2.0, 3.0]), "g": np.array([0.5, 0.5, 1.5])})
        res = db.sql("SELECT g, COUNT(*) AS c FROM t GROUP BY g ORDER BY g")
        assert res.table["c"].tolist() == [2.0, 1.0]

    def test_unicode_group_keys(self):
        db = Database()
        db.create_table(
            "t",
            {"v": np.ones(4), "g": np.array(["α", "β", "α", "日本"], dtype=object)},
        )
        res = db.sql("SELECT g, SUM(v) AS s FROM t WHERE g = 'α' GROUP BY g")
        assert res.table.num_rows == 1
        assert res.table["s"][0] == 2.0

    def test_division_by_zero_yields_nan(self):
        db = Database()
        db.create_table("t", {"a": np.array([1.0]), "b": np.array([0.0])})
        res = db.sql("SELECT a / b AS q FROM t")
        assert math.isnan(res.table["q"][0])

    def test_multi_key_order_mixed_directions(self):
        db = Database()
        db.create_table(
            "t",
            {
                "a": np.array([1, 1, 2, 2]),
                "b": np.array([10, 20, 10, 20]),
            },
        )
        res = db.sql("SELECT a, b FROM t ORDER BY a ASC, b DESC")
        assert res.table["b"].tolist() == [20, 10, 20, 10]

    def test_having_on_composite_expression(self):
        db = Database()
        db.create_table(
            "t", {"v": np.arange(10, dtype=np.float64), "g": np.arange(10) % 2}
        )
        res = db.sql(
            "SELECT g, SUM(v) / COUNT(*) AS m FROM t GROUP BY g "
            "HAVING SUM(v) > 20"
        )
        assert res.table.num_rows == 1
        assert res.table["m"][0] == pytest.approx(5.0)

    def test_stratified_more_requested_than_population(self, rng):
        t = Table({"v": np.arange(10), "g": np.arange(10) % 2})
        s = stratified_sample(t, "g", 100, "senate", rng=rng)
        assert s.num_rows == 10  # capped at census


class TestDatabaseLifecycle:
    def test_duplicate_create_rejected(self):
        db = Database()
        db.create_table("t", {"v": [1]})
        with pytest.raises(SchemaError, match="already exists"):
            db.create_table("t", {"v": [2]})

    def test_drop_then_query_fails(self):
        db = Database()
        db.create_table("t", {"v": [1]})
        db.drop_table("t")
        with pytest.raises(SchemaError, match="no table"):
            db.sql("SELECT v FROM t")

    def test_append_invalidates_stats(self):
        db = Database()
        db.create_table("t", {"v": np.arange(10)})
        before = db.stats("t").num_rows
        db.append_rows("t", {"v": np.arange(5)})
        after = db.stats("t").num_rows
        assert (before, after) == (10, 15)

    def test_replace_table(self):
        db = Database()
        db.create_table("t", {"v": np.arange(10)})
        db.replace_table("t", Table({"v": np.arange(3)}))
        assert db.table("t").num_rows == 3

    def test_replace_missing_table(self):
        db = Database()
        with pytest.raises(SchemaError):
            db.replace_table("nope", Table({"v": [1]}))

    def test_catalog_survives_dropped_table(self):
        db = Database()
        db.create_table("t", {"v": np.arange(100, dtype=np.float64)})
        cat = SynopsisCatalog.for_database(db)
        entry = SampleEntry(
            table="t",
            sample=srs_sample(db.table("t"), 10, np.random.default_rng(0)),
            kind="uniform",
            built_at_rows=100,
        )
        cat.add_sample(entry)
        db.drop_table("t")
        # Freshness checks must fail loudly-but-gracefully: the entry is
        # simply never offered.
        with pytest.raises(SchemaError):
            entry.staleness(db)

    def test_reuse_cache_handles_dropped_table(self, rng):
        db = Database()
        db.create_table(
            "t", {"v": rng.random(20_000), "g": rng.integers(0, 3, 20_000)},
            block_size=512,
        )
        cache = ReuseCache(db, seed=1)
        cache.sql("SELECT SUM(v) AS s FROM t", ErrorSpec(0.2, 0.9))
        db.drop_table("t")
        db.create_table(
            "t", {"v": rng.random(30_000), "g": rng.integers(0, 3, 30_000)},
            block_size=512,
        )
        res = cache.sql("SELECT SUM(v) AS s FROM t", ErrorSpec(0.2, 0.9))
        assert res.technique == "quickr"  # repopulated against the new table


class TestSpecBoundaries:
    def test_very_high_confidence(self):
        spec = ErrorSpec(0.1, 0.9999)
        assert z_value(spec.confidence) > 3.5

    def test_pilot_with_extreme_confidence_still_sound(self, rng):
        db = Database()
        n = 200_000
        db.create_table(
            "t", {"v": rng.gamma(2.0, 10.0, n)}, block_size=512
        )
        res = db.sql(
            "SELECT SUM(v) AS s FROM t ERROR WITHIN 10% CONFIDENCE 99.9%",
            options=QueryOptions(seed=4),
        )
        if res.is_approximate:
            truth = db.table("t")["v"].sum()
            assert abs(res.scalar() - truth) / truth <= 0.1

    def test_negative_measure_refused_by_pilot(self, rng):
        """Aggregates that straddle zero cannot be bounded relatively —
        the planner must refuse, not guess."""
        from repro.online import PilotPlanner
        from repro.sql import bind_sql

        db = Database()
        db.create_table(
            "t", {"v": rng.normal(0.0, 1.0, 200_000)}, block_size=512
        )
        bound = bind_sql("SELECT SUM(v) AS s FROM t", db)
        with pytest.raises(InfeasiblePlanError):
            PilotPlanner(db, seed=1).run(bound, ErrorSpec(0.05, 0.95))
