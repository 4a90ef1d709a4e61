"""Tests for offline AQP: catalog, BlinkDB selection, Sample+Seek,
maintenance, and the rewriter."""

from dataclasses import replace

import numpy as np
import pytest

from repro import Database, ErrorSpec, InfeasiblePlanError, SynopsisError, Table
from repro.offline import (
    BlinkDBSelector,
    MaintenanceSimulator,
    OfflineRewriter,
    QueryTemplate,
    SampleEntry,
    SynopsisCatalog,
    answer_group_by_sum,
    build_sample_seek,
    build_seek_index,
    cumulative_overhead,
    distribution_precision,
    workload_coverage,
)
from repro.sampling.row import srs_sample
from repro.sampling.stratified import stratified_sample
from repro.sql import bind_sql
from repro.workloads import zipf_group_table


@pytest.fixture
def db(rng):
    db = Database()
    n = 60_000
    db.create_table(
        "events",
        {
            "value": rng.exponential(20, n),
            "city": rng.integers(0, 30, n),
            "device": rng.integers(0, 4, n),
            "selector": rng.random(n),
        },
        block_size=512,
    )
    return db


def add_uniform(db, size=5000, seed=0):
    cat = SynopsisCatalog.for_database(db)
    table = db.table("events")
    entry = SampleEntry(
        table="events",
        sample=srs_sample(table, size, np.random.default_rng(seed)),
        kind="uniform",
        built_at_rows=table.num_rows,
    )
    cat.add_sample(entry)
    return cat, entry


class TestCatalog:
    def test_for_database_idempotent(self, db):
        a = SynopsisCatalog.for_database(db)
        b = SynopsisCatalog.for_database(db)
        assert a is b

    def test_find_uniform_for_ungrouped(self, db):
        cat, entry = add_uniform(db)
        assert cat.find_sample("events") is entry

    def test_uniform_not_offered_for_grouped(self, db):
        cat, _ = add_uniform(db)
        assert cat.find_sample("events", ["city"]) is None

    def test_stratified_subset_coverage(self, db, rng):
        cat = SynopsisCatalog.for_database(db)
        sample = stratified_sample(db.table("events"), ["city", "device"], 4000, rng=rng)
        cat.add_sample(
            SampleEntry(
                table="events",
                sample=sample,
                kind="stratified",
                strata_column=("city", "device"),
                built_at_rows=db.table("events").num_rows,
            )
        )
        assert cat.find_sample("events", ["city"]) is not None
        assert cat.find_sample("events", ["device", "city"]) is not None
        assert cat.find_sample("events", ["selector"]) is None

    def test_staleness_excludes(self, db, rng):
        cat, entry = add_uniform(db)
        # A content swap, unlike an append, is nothing a sample can absorb.
        extra = Table(
            {
                "value": rng.random(20_000),
                "city": rng.integers(0, 30, 20_000),
                "device": rng.integers(0, 4, 20_000),
                "selector": rng.random(20_000),
            }
        )
        db.replace_table("events", Table.concat([db.table("events"), extra]))
        assert entry.staleness(db) > 0.1
        assert cat.find_sample("events") is None
        assert cat.find_sample("events", require_fresh=False) is entry
        assert cat.stale_entries() == [entry]

    def test_storage_accounting(self, db):
        cat, entry = add_uniform(db, size=3000)
        assert cat.storage_rows() == 3000

    def test_empty_sample_rejected(self, db):
        cat = SynopsisCatalog.for_database(db)
        empty = srs_sample(db.table("events"), 0)
        with pytest.raises(SynopsisError):
            cat.add_sample(
                SampleEntry(table="events", sample=empty, kind="uniform")
            )


class TestBlinkDBSelector:
    def workload(self):
        return [
            QueryTemplate("events", ("city",), 10.0),
            QueryTemplate("events", ("device",), 5.0),
            QueryTemplate("events", ("city", "device"), 1.0),
        ]

    def test_selection_respects_budget(self, db):
        sel = BlinkDBSelector(db, budget_rows=5000, rows_per_stratum=100, seed=1)
        chosen, coverage = sel.select(self.workload())
        assert sum(c.storage_rows for c in chosen) <= 5000

    def test_superset_covers_subsets(self, db):
        sel = BlinkDBSelector(db, budget_rows=10**6, rows_per_stratum=50, seed=1)
        chosen, coverage = sel.select(self.workload())
        assert coverage == 1.0
        # The composite (city, device) candidate must appear: nothing else
        # can cover the composite template.
        assert any(set(c.columns) == {"city", "device"} for c in chosen)

    def test_materialize_registers_entries(self, db):
        sel = BlinkDBSelector(db, budget_rows=10**6, rows_per_stratum=50, seed=1)
        entries, coverage = sel.build_for_workload(self.workload())
        cat = SynopsisCatalog.for_database(db)
        assert cat.find_sample("events", ["city"]) is not None

    def test_workload_coverage_function(self, db):
        sel = BlinkDBSelector(db, budget_rows=10**6, rows_per_stratum=50, seed=1)
        sel.build_for_workload([QueryTemplate("events", ("city",), 1.0)])
        cat = SynopsisCatalog.for_database(db)
        covered = workload_coverage(cat, [QueryTemplate("events", ("city",), 1.0)])
        uncovered = workload_coverage(cat, [QueryTemplate("events", ("selector",), 1.0)])
        assert covered == 1.0 and uncovered == 0.0

    def test_zero_budget_rejected(self, db):
        with pytest.raises(SynopsisError):
            BlinkDBSelector(db, budget_rows=0)


class TestSampleSeek:
    @pytest.fixture
    def skewed(self):
        return Table(zipf_group_table(50_000, num_groups=200, zipf_s=1.6, seed=4))

    def test_seek_index_lookup(self, skewed):
        idx = build_seek_index(skewed, "group_id")
        rows = idx.lookup(0)
        assert (skewed["group_id"][rows] == 0).all()
        assert len(idx.lookup(99999)) == 0

    def test_small_groups_answered_exactly(self, skewed, rng):
        syn = build_sample_seek(skewed, "value", "group_id", 5000, rng)
        answers, _ = answer_group_by_sum(syn, skewed)
        truth = {
            k: float(skewed["value"][skewed["group_id"] == k].sum())
            for k in np.unique(skewed["group_id"]).tolist()
        }
        seek_answers = [a for a in answers if a.method == "seek"]
        assert seek_answers, "zipf tail must trigger seeks"
        for a in seek_answers:
            assert a.value == pytest.approx(truth[a.key], rel=1e-9)

    def test_all_groups_answered(self, skewed, rng):
        syn = build_sample_seek(skewed, "value", "group_id", 3000, rng)
        answers, _ = answer_group_by_sum(syn, skewed)
        assert len(answers) == len(np.unique(skewed["group_id"]))

    def test_distribution_precision_small(self, skewed, rng):
        syn = build_sample_seek(skewed, "value", "group_id", 8000, rng)
        answers, _ = answer_group_by_sum(syn, skewed)
        truth = {
            k: float(skewed["value"][skewed["group_id"] == k].sum())
            for k in np.unique(skewed["group_id"]).tolist()
        }
        assert distribution_precision(answers, truth) < 0.05

    def test_large_groups_use_sample(self, skewed, rng):
        syn = build_sample_seek(skewed, "value", "group_id", 8000, rng)
        answers, _ = answer_group_by_sum(syn, skewed)
        head = next(a for a in answers if a.key == 0)  # biggest zipf group
        assert head.method == "sample"


class TestMaintenance:
    def batch(self, rng, size=6000):
        return {
            "value": rng.random(size),
            "city": rng.integers(0, 30, size),
            "device": rng.integers(0, 4, size),
            "selector": rng.random(size),
        }

    def test_eager_rebuilds_every_batch(self, db, rng):
        add_uniform(db)
        sim = MaintenanceSimulator(db, policy="eager", seed=1)
        for _ in range(3):
            sim.apply_batch("events", self.batch(rng))
        assert sim.log.rebuilds == 3
        assert sim.log.cost > 0

    def test_never_costs_nothing_but_goes_stale(self, db, rng):
        _, entry = add_uniform(db)
        sim = MaintenanceSimulator(db, policy="never", seed=1)
        for _ in range(3):
            sim.apply_batch("events", self.batch(rng))
        assert sim.log.cost == 0
        assert entry.staleness(db) > 0.2

    def test_threshold_rebuilds_lazily(self, db, rng):
        add_uniform(db)
        sim = MaintenanceSimulator(db, policy="threshold", seed=1)
        for _ in range(4):
            sim.apply_batch("events", self.batch(rng, 4000))
        assert 1 <= sim.log.rebuilds < 4

    def test_reservoir_cheap_and_fresh(self, db, rng):
        _, entry = add_uniform(db)
        sim = MaintenanceSimulator(db, policy="reservoir", seed=1)
        for _ in range(3):
            sim.apply_batch("events", self.batch(rng))
        assert sim.log.rebuilds == 0
        assert sim.log.incremental_updates == 3
        assert entry.staleness(db) == 0
        # sample still estimates the (grown) total well
        est = entry.sample.estimate_sum("value")
        truth = db.table("events")["value"].sum()
        assert est.value == pytest.approx(truth, rel=0.15)

    def test_policy_validation(self, db):
        with pytest.raises(SynopsisError):
            MaintenanceSimulator(db, policy="yolo")

    def test_cumulative_overhead_sign(self):
        from repro.offline.maintenance import MaintenanceLog

        log = MaintenanceLog(cost=100.0)
        assert cumulative_overhead(log, queries_served=100, per_query_savings=10.0) > 0
        assert cumulative_overhead(log, queries_served=1, per_query_savings=10.0) < 0


class TestOfflineRewriter:
    def test_answers_grouped_query(self, db, rng):
        cat = SynopsisCatalog.for_database(db)
        sample = stratified_sample(
            db.table("events"), "city", 20_000, "congress", min_per_stratum=200, rng=rng
        )
        cat.add_sample(
            SampleEntry(
                table="events",
                sample=sample,
                kind="stratified",
                strata_column="city",
                built_at_rows=db.table("events").num_rows,
            )
        )
        bound = bind_sql(
            "SELECT city, SUM(value) AS total FROM events GROUP BY city", db
        )
        result = OfflineRewriter(db).run(bound, ErrorSpec(0.2, 0.95))
        assert result.technique == "offline_sample"
        exact = db.sql("SELECT city, SUM(value) AS total FROM events GROUP BY city")
        truth = dict(zip(exact.table["city"].tolist(), exact.table["total"].tolist()))
        for row in result.to_pylist():
            assert row["total"] == pytest.approx(truth[row["city"]], rel=0.25)

    def test_refuses_without_sample(self, db):
        bound = bind_sql("SELECT SUM(value) AS s FROM events", db)
        with pytest.raises(InfeasiblePlanError):
            OfflineRewriter(db).run(bound, ErrorSpec(0.1, 0.95))

    def test_refuses_when_sample_too_small(self, db):
        add_uniform(db, size=50)
        bound = bind_sql("SELECT SUM(value) AS s FROM events", db)
        with pytest.raises(InfeasiblePlanError, match="too small"):
            OfflineRewriter(db).run(bound, ErrorSpec(0.01, 0.99))

    def test_where_predicate_applied(self, db):
        add_uniform(db, size=20_000)
        bound = bind_sql(
            "SELECT SUM(value) AS s FROM events WHERE selector < 0.5", db
        )
        result = OfflineRewriter(db).run(bound, ErrorSpec(0.2, 0.95))
        truth = db.table("events")["value"][db.table("events")["selector"] < 0.5].sum()
        assert result.scalar() == pytest.approx(truth, rel=0.1)

    def test_reads_only_the_columns_the_query_references(self, db):
        """The fold reads the sample's predicate, key and measure columns;
        reading any other column raises, and the answer is still served."""

        class SpyTable(Table):
            def __getitem__(self, name):
                if name not in ("value", "city", "selector"):
                    raise AssertionError(f"read unreferenced column {name!r}")
                return super().__getitem__(name)

        table = db.table("events")
        sample = srs_sample(table, 20_000, np.random.default_rng(1))
        spy = SpyTable(sample.table.columns_dict(), name=sample.table.name)
        SynopsisCatalog.for_database(db).add_sample(
            SampleEntry(
                table="events",
                sample=replace(sample, table=spy),
                kind="uniform",
                built_at_rows=table.num_rows,
            )
        )
        bound = bind_sql(
            "SELECT SUM(value) AS s, AVG(city) AS c FROM events WHERE selector < 0.5",
            db,
        )
        result = OfflineRewriter(db).run(bound, ErrorSpec(0.2, 0.95))
        assert result.technique == "offline_sample"
        truth = table["value"][table["selector"] < 0.5].sum()
        assert result.table["s"][0] == pytest.approx(truth, rel=0.1)

    def test_accounting_reads_every_sample_row(self, db):
        """The WHERE runs over every sample row: those are the rows
        scanned; the ~10% it keeps are the rows aggregated."""
        from repro.storage.cost import aggregation_cost, scan_cost

        _, entry = add_uniform(db, size=20_000)
        bound = bind_sql(
            "SELECT SUM(value) AS s FROM events WHERE selector < 0.1", db
        )
        result = OfflineRewriter(db).run(bound, ErrorSpec(0.5, 0.9))
        matched = int(np.count_nonzero(entry.sample.table["selector"] < 0.1))
        assert 1_500 < matched < 2_500
        assert result.stats.rows_scanned == 20_000
        assert result.stats.agg_input_rows == matched
        assert result.approx_cost == pytest.approx(
            scan_cost(20_000 // 1024, 20_000).total
            + aggregation_cost(matched).total
        )
