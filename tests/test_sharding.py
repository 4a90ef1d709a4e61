"""Sharded substrate + scatter-gather executor correctness.

Covers the partition substrate (disjoint/complete shards, widening
envelopes), exact/OLA/sample scatter-gather against whole-table oracles,
the missing-shard widening rule's deterministic honesty, quorum refusal,
straggler hedging, per-shard breakers, catalog shard isolation, the
partial-table merge, and door conformance (every ``sql()`` front door
accounts for a query the same way: span, counter, workload log).
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.core.errorspec import ErrorSpec
from repro.core.exceptions import (
    MergeError,
    QueryRefused,
    SchemaError,
    UnsupportedQueryError,
)
from repro.core.options import QueryOptions
from repro.core.result import ApproximateResult, QueryResult
from repro.core.session import AQPEngine
from repro.engine.database import Database
from repro.engine.table import Table
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.trace import Tracer
from repro.offline.catalog import SampleEntry, SynopsisCatalog
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultSpec,
    ManualClock,
    RESHARD_RUNG,
    ResilientEngine,
    corrupt_shard,
    inject,
    kill_shard,
    shard_site,
)
from repro.sampling.row import srs_sample
from repro.serving import ServingFrontend
from repro.sharding import (
    SCATTER_RUNG,
    ScatterGatherExecutor,
    ShardedTable,
    compute_shard_stats,
    merge_partial_tables,
    merge_sketches,
)
from repro.tuner import WorkloadLog, install_workload_log

N_ROWS = 4_096
NUM_SHARDS = 8
SPEC = ErrorSpec(relative_error=0.10, confidence=0.95)


def _make_table(seed: int = 7, signed: bool = False) -> Table:
    rng = np.random.default_rng(seed)
    values = (
        rng.normal(0.0, 50.0, N_ROWS)
        if signed
        else rng.exponential(10.0, N_ROWS)
    )
    return Table(
        {
            "v": values,
            "k": rng.integers(0, 5, N_ROWS),
        },
        name="events",
        block_size=256,
    )


@pytest.fixture()
def world():
    table = _make_table()
    db = Database()
    db.create_table("events", {c: table[c] for c in table.column_names})
    sharded = ShardedTable.from_table(table, NUM_SHARDS)
    return db, sharded


# ----------------------------------------------------------------------
# Substrate
# ----------------------------------------------------------------------
class TestSubstrate:
    def test_split_by_assignment_partitions_stably(self):
        t = Table({"x": np.arange(10)}, name="t")
        parts = t.split_by_assignment(
            np.array([0, 1, 0, 2, 1, 0, 2, 2, 1, 0]), 3
        )
        assert [list(p["x"]) for p in parts] == [
            [0, 2, 5, 9],
            [1, 4, 8],
            [3, 6, 7],
        ]

    def test_split_by_assignment_rejects_bad_input(self):
        t = Table({"x": np.arange(4)}, name="t")
        with pytest.raises(SchemaError):
            t.split_by_assignment(np.array([0, 1]), 2)
        with pytest.raises(SchemaError):
            t.split_by_assignment(np.array([0, 1, 2, 3]), 3)
        with pytest.raises(SchemaError):
            t.split_by_assignment(np.array([0, -1, 0, 1]), 2)

    @pytest.mark.parametrize("by,key", [("hash", None), ("hash", "k"),
                                        ("range", "v")])
    def test_shards_are_disjoint_and_complete(self, by, key):
        table = _make_table()
        sharded = ShardedTable.from_table(table, NUM_SHARDS, by=by, key=key)
        assert sharded.num_shards == NUM_SHARDS
        assert sharded.total_rows == table.num_rows
        merged = np.sort(
            np.concatenate([s.table["v"] for s in sharded.shards])
        )
        assert np.array_equal(merged, np.sort(np.asarray(table["v"])))

    def test_range_shards_are_ordered(self):
        table = _make_table()
        sharded = ShardedTable.from_table(
            table, 4, by="range", key="v"
        )
        maxes = [float(np.max(s.table["v"])) for s in sharded.shards]
        mins = [float(np.min(s.table["v"])) for s in sharded.shards]
        for i in range(3):
            assert maxes[i] <= mins[i + 1] + 1e-12

    def test_from_table_rejects_bad_input(self):
        table = _make_table()
        with pytest.raises(SchemaError):
            ShardedTable.from_table(table, 0)
        with pytest.raises(SchemaError):
            ShardedTable.from_table(table, 2, by="round_robin")
        with pytest.raises(SchemaError):
            ShardedTable.from_table(table, 2, by="range")  # no key
        with pytest.raises(SchemaError):
            ShardedTable.from_table(Table({"x": np.array([])}), 2)

    def test_stats_envelope_bounds_every_subset_sum(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 1.0, 500)
        stats = compute_shard_stats(Table({"x": x}, name="t"))
        b = stats.sum_envelope("x")
        assert b.total == pytest.approx(float(x.sum()))
        assert b.positive == pytest.approx(float(x[x > 0].sum()))
        assert b.negative == pytest.approx(float(x[x < 0].sum()))
        for _ in range(50):
            mask = rng.random(500) < rng.random()
            s = float(x[mask].sum())
            assert b.negative - 1e-9 <= s <= b.positive + 1e-9

    def test_stats_skip_non_finite_columns(self):
        t = Table(
            {"ok": np.array([1.0, 2.0]), "bad": np.array([1.0, np.inf])},
            name="t",
        )
        stats = compute_shard_stats(t)
        assert stats.sum_envelope("ok") is not None
        assert stats.sum_envelope("bad") is None


# ----------------------------------------------------------------------
# Exact scatter-gather == whole-table engine
# ----------------------------------------------------------------------
class TestExactScatterGather:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_scalar_aggregates_match_engine(self, world, workers):
        db, sharded = world
        q = (
            "SELECT SUM(v) AS s, COUNT(*) AS c, AVG(v) AS a "
            "FROM events WHERE v > 12"
        )
        expect = db.sql(q).table
        ex = ScatterGatherExecutor(sharded, max_workers=workers)
        result = ex.sql(q)
        assert isinstance(result, QueryResult)
        for col in ("s", "c", "a"):
            assert float(result.table[col][0]) == pytest.approx(
                float(expect[col][0]), rel=1e-12
            )
        shard_steps = [p for p in result.provenance if "shard" in p]
        assert [p["status"] for p in shard_steps] == ["served"] * NUM_SHARDS
        assert result.provenance[-1]["coverage"] == pytest.approx(1.0)

    def test_only_a_deadline_fans_out_to_the_pool(self, world, monkeypatch):
        """Without a deadline every shard runs in the calling thread;
        under one, ``max_workers > 1`` runs them on pool threads."""
        _db, sharded = world
        ex = ScatterGatherExecutor(sharded, max_workers=4)
        threads = []
        run_shard = ex._run_shard

        def spy(shard, q, **kwargs):
            threads.append(threading.get_ident())
            return run_shard(shard, q, **kwargs)

        monkeypatch.setattr(ex, "_run_shard", spy)
        q = "SELECT SUM(v) AS s FROM events WHERE v > 12"
        plain = ex.sql(q)
        assert threads == [threading.get_ident()] * NUM_SHARDS
        threads.clear()
        bounded = ex.sql(q, options=QueryOptions(deadline=Deadline(3600.0)))
        assert len(threads) == NUM_SHARDS
        assert threading.get_ident() not in threads
        assert float(bounded.table["s"][0]) == pytest.approx(
            float(plain.table["s"][0]), rel=1e-12
        )

    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("by,key", [("hash", None), ("range", "v")])
    @pytest.mark.parametrize(
        "select,group_by",
        [
            ("k", "k"),
            ("k, j", "k, j"),
            ("name", "name"),
            ("k + j AS kj", "k + j"),
        ],
        ids=["int", "composite", "string", "expression"],
    )
    def test_group_by_matches_engine(self, select, group_by, by, key, bounded):
        """Same rows, same order, as the engine over the whole table —
        through the whole-shard fold and (with a generous deadline forcing
        block boundaries) the per-block fold + merge."""
        rng = np.random.default_rng(3)
        table = _make_table()
        table = Table(
            {
                **table.columns_dict(),
                "j": rng.integers(-3, 3, N_ROWS),
                "name": rng.choice(
                    np.array(["ash", "birch", "cedar", "oak"], dtype=object),
                    N_ROWS,
                ),
            },
            name="events",
            block_size=256,
        )
        sharded = ShardedTable.from_table(table, NUM_SHARDS, by=by, key=key)
        db = Database()
        db.create_table("events", sharded.whole_table().columns_dict())
        q = (
            f"SELECT {select}, SUM(v) AS s, COUNT(*) AS c, AVG(v) AS a "
            f"FROM events WHERE v > 8 GROUP BY {group_by}"
        )
        expect = db.sql(q).table
        options = QueryOptions(deadline=Deadline(3600.0) if bounded else None)
        got = ScatterGatherExecutor(sharded, max_workers=1).sql(
            q, options=options
        )
        assert got.table.column_names == expect.column_names
        for name in expect.column_names:
            if name in ("s", "c", "a"):
                np.testing.assert_allclose(
                    got.table[name], expect[name], rtol=1e-9, atol=0.0
                )
            else:
                assert list(got.table[name]) == list(expect[name])

    def test_unsupported_queries_are_typed(self, world):
        _db, sharded = world
        ex = ScatterGatherExecutor(sharded)
        ola = QueryOptions(technique="ola", spec=SPEC)
        bad = [
            ("SELECT SUM(v) AS s FROM events",
             QueryOptions(technique="psychic")),
            ("SELECT v FROM events LIMIT 3", None),
            ("SELECT SUM(v) AS s FROM events ORDER BY s", None),
            ("SELECT MIN(v) AS m FROM events", None),
            ("SELECT k, SUM(v) AS s FROM events GROUP BY k", ola),
        ]
        for sql, options in bad:
            with pytest.raises(UnsupportedQueryError):
                ex.sql(sql, options=options)


# ----------------------------------------------------------------------
# Missing-shard widening
# ----------------------------------------------------------------------
class TestMissingShardWidening:
    @pytest.mark.parametrize("signed", [False, True])
    def test_widened_ci_always_covers_truth(self, signed):
        table = _make_table(seed=23, signed=signed)
        sharded = ShardedTable.from_table(table, NUM_SHARDS)
        v = np.asarray(table["v"])
        threshold = float(np.quantile(v, 0.6))
        q = f"SELECT SUM(v) AS s, COUNT(*) AS c FROM events WHERE v > {threshold}"
        truth_s = float(v[v > threshold].sum())
        truth_c = float((v > threshold).sum())
        for victim in range(NUM_SHARDS):
            ex = ScatterGatherExecutor(sharded, max_workers=1)
            with inject(FaultInjector([kill_shard(victim)])):
                result = ex.sql(q)
            assert isinstance(result, ApproximateResult)
            assert result.is_degraded
            s = result.estimate("s", 0)
            c = result.estimate("c", 0)
            # deterministic, not statistical: exact survivors + a
            # worst-case envelope must always contain the truth
            assert s.ci_low - 1e-9 <= truth_s <= s.ci_high + 1e-9
            assert c.ci_low - 1e-9 <= truth_c <= c.ci_high + 1e-9
            assert s.ci_low <= s.value <= s.ci_high
            summary = result.provenance[-1]
            assert summary["rung"] == RESHARD_RUNG
            assert summary["shards_missing"] == [victim]
            assert summary["coverage"] == pytest.approx(
                sharded.rows_in(
                    [i for i in range(NUM_SHARDS) if i != victim]
                )
                / sharded.total_rows
            )

    def test_grouped_cells_widen_by_full_envelope(self, world):
        _db, sharded = world
        table = sharded.whole_table()
        v, k = np.asarray(table["v"]), np.asarray(table["k"])
        q = "SELECT k, SUM(v) AS s FROM events WHERE v > 9 GROUP BY k"
        ex = ScatterGatherExecutor(sharded, max_workers=1)
        with inject(FaultInjector([kill_shard(3)])):
            result = ex.sql(q)
        assert result.is_degraded
        assert result.diagnostics["groups_possibly_missing"] is True
        for row in range(result.table.num_rows):
            key = int(result.table["k"][row])
            truth = float(v[(k == key) & (v > 9)].sum())
            cell = result.estimate("s", row)
            assert cell.ci_low - 1e-9 <= truth <= cell.ci_high + 1e-9

    def test_empty_served_count_makes_avg_unbounded(self, world):
        _db, sharded = world
        hi = float(np.max(np.asarray(sharded.whole_table()["v"]))) + 1.0
        ex = ScatterGatherExecutor(sharded, max_workers=1)
        with inject(FaultInjector([kill_shard(0)])):
            result = ex.sql(
                f"SELECT AVG(v) AS a FROM events WHERE v > {hi}"
            )
        cell = result.estimate("a", 0)
        assert math.isinf(cell.ci_low) and math.isinf(cell.ci_high)

    def test_unbounded_cell_claims_the_cap_on_every_door(self, world):
        """No served row matches and the missing shard's COUNT may be 0,
        so the AVG is unbounded: the shard door claims 0.99 beside it, as
        the ladder's partial-OLA rung does for its unbounded cell."""
        db, sharded = world
        hi = float(np.max(np.asarray(sharded.whole_table()["v"]))) + 1.0
        ex = ScatterGatherExecutor(sharded, max_workers=1)
        with inject(FaultInjector([kill_shard(0)])):
            result = ex.sql(
                f"SELECT AVG(v) AS a FROM events WHERE v > {hi}",
                options=QueryOptions(spec=SPEC),
            )
        cell = result.estimate("a", 0)
        assert math.isinf(cell.ci_low) and math.isinf(cell.ci_high)
        assert result.spec.relative_error == 0.99
        ladder = ResilientEngine(db, warn_on_degrade=False).sql(
            f"SELECT SUM(v) AS s FROM events WHERE v > {hi}",
            options=QueryOptions(spec=SPEC, entry_rung="partial_ola"),
        )
        assert ladder.technique == "partial_ola"
        assert ladder.spec.relative_error == 0.99

    def test_quorum_failure_refuses_with_provenance(self, world):
        _db, sharded = world
        ex = ScatterGatherExecutor(sharded, max_workers=1)
        specs = [kill_shard(i) for i in range(5)]
        with inject(FaultInjector(specs)):
            with pytest.raises(QueryRefused) as exc:
                ex.sql("SELECT SUM(v) AS s FROM events")
        prov = exc.value.provenance
        shard_steps = [p for p in prov if "shard" in p]
        assert len(shard_steps) == NUM_SHARDS
        assert (
            sum(1 for p in shard_steps if p["status"] == "failed") == 5
        )
        assert prov[-1]["outcome"] == "failed"

    def test_expression_aggregate_cannot_widen(self, world):
        _db, sharded = world
        ex = ScatterGatherExecutor(sharded, max_workers=1)
        # fine with all shards present ...
        full = ex.sql("SELECT SUM(v * 2) AS s FROM events")
        assert float(full.table["s"][0]) == pytest.approx(
            2.0 * float(np.asarray(sharded.whole_table()["v"]).sum())
        )
        # ... but with a shard down there is no catalog envelope for the
        # expression, so the executor must refuse rather than guess
        with inject(FaultInjector([kill_shard(2)])):
            with pytest.raises(QueryRefused, match="widen"):
                ex.sql("SELECT SUM(v * 2) AS s FROM events")

    def test_non_finite_column_cannot_widen(self):
        rng = np.random.default_rng(5)
        w = rng.normal(0.0, 1.0, 1024)
        w[100] = np.inf
        table = Table({"w": w}, name="events", block_size=256)
        sharded = ShardedTable.from_table(table, 4)
        ex = ScatterGatherExecutor(sharded, max_workers=1)
        victim = next(
            s.shard_id
            for s in sharded.shards
            if s.stats.sum_envelope("w") is None
        )
        with inject(FaultInjector([kill_shard(victim)])):
            with pytest.raises(QueryRefused, match="widen"):
                ex.sql("SELECT SUM(w) AS s FROM events")


# ----------------------------------------------------------------------
# OLA and sample modes
# ----------------------------------------------------------------------
class TestApproximateModes:
    def test_ola_mode_covers_truth(self, world):
        db, sharded = world
        q = "SELECT SUM(v) AS s FROM events WHERE v > 12"
        truth = float(db.sql(q).table["s"][0])
        hits = 0
        for seed in range(10):
            result = ScatterGatherExecutor(sharded).sql(
                q,
                options=QueryOptions(spec=SPEC, seed=seed, technique="ola"),
            )
            assert isinstance(result, ApproximateResult)
            assert result.technique == "scatter_gather_ola"
            hits += result.estimate("s", 0).covers(truth)
        assert hits >= 8

    def test_sample_mode_uses_shard_samples(self, world):
        db, sharded = world
        sharded.build_shard_samples(rows_per_shard=200, seed=1)
        q = "SELECT SUM(v) AS s FROM events WHERE v > 12"
        truth = float(db.sql(q).table["s"][0])
        result = ScatterGatherExecutor(sharded).sql(
            q,
            options=QueryOptions(spec=SPEC, technique="sample"),
        )
        assert result.technique == "scatter_gather_sample"
        cell = result.estimate("s", 0)
        assert cell.ci_low <= truth <= cell.ci_high
        # the estimate comes from samples, not full scans
        assert result.stats.rows_scanned <= 200 * NUM_SHARDS

    def test_rebuilt_shard_samples_replace_the_old_ones(self, world):
        """A rebuild under a new seed answers as a fresh build with that
        seed does, and leaves one catalog entry per shard."""
        _db, sharded = world
        q = "SELECT SUM(v) AS s, AVG(v) AS a FROM events WHERE v > 12"
        options = QueryOptions(spec=SPEC, technique="sample")
        sharded.build_shard_samples(rows_per_shard=200, seed=0)
        first = ScatterGatherExecutor(sharded).sql(q, options=options)
        sharded.build_shard_samples(rows_per_shard=200, seed=1)
        rebuilt = ScatterGatherExecutor(sharded).sql(q, options=options)
        catalog = SynopsisCatalog.for_database(sharded.binder_database())
        assert len(catalog.samples) == NUM_SHARDS
        fresh = ShardedTable.from_table(_make_table(), NUM_SHARDS)
        fresh.build_shard_samples(rows_per_shard=200, seed=1)
        want = ScatterGatherExecutor(fresh).sql(q, options=options)
        for alias in ("s", "a"):
            assert rebuilt.estimate(alias, 0) == want.estimate(alias, 0)
        assert rebuilt.estimate("s", 0) != first.estimate("s", 0)

    def test_sample_mode_without_samples_refuses(self):
        sharded = ShardedTable.from_table(_make_table(seed=31), 4)
        ex = ScatterGatherExecutor(sharded)
        with pytest.raises(QueryRefused):
            ex.sql(
                "SELECT SUM(v) AS s FROM events",
                options=QueryOptions(spec=SPEC, technique="sample"),
            )

    def test_corrupt_shard_is_a_typed_failure(self, world):
        db, sharded = world
        q = "SELECT SUM(v) AS s FROM events WHERE v > 12"
        truth = float(db.sql(q).table["s"][0])
        ex = ScatterGatherExecutor(sharded, max_workers=1)
        with inject(FaultInjector([corrupt_shard(4)])):
            result = ex.sql(q)
        step = [p for p in result.provenance if p.get("shard") == 4][0]
        assert step["status"] == "failed"
        assert "checksum" in step["error"]
        cell = result.estimate("s", 0)
        assert cell.ci_low - 1e-9 <= truth <= cell.ci_high + 1e-9


# ----------------------------------------------------------------------
# Hedging and breakers
# ----------------------------------------------------------------------
class TestHedgingAndBreakers:
    def test_straggler_is_abandoned_and_hedged(self, world):
        db, sharded = world
        q = "SELECT SUM(v) AS s FROM events"
        truth = float(db.sql(q).table["s"][0])
        clock = ManualClock()
        slow = FaultSpec(
            site=shard_site(0, "scan"),
            kind="slow",
            delay=6.0,
            probability=1.0,
            max_fires=1,
        )
        ex = ScatterGatherExecutor(sharded, max_workers=1)
        with inject(FaultInjector([slow], clock=clock)):
            result = ex.sql(
                q,
                options=QueryOptions(deadline=Deadline(10.0, clock=clock)),
            )
        step = [p for p in result.provenance if p.get("shard") == 0][0]
        assert step["status"] == "served_hedged"
        assert "abandoned" in step["attempts"]
        assert result.provenance[-1]["hedged"] == [0]
        # the hedged retry re-read the whole shard: the answer is exact
        assert float(result.table["s"][0]) == pytest.approx(
            truth, rel=1e-12
        )

    def test_abandonment_does_not_trip_the_breaker(self, world):
        _db, sharded = world
        clock = ManualClock()
        slow = FaultSpec(
            site=shard_site(0, "scan"),
            kind="slow",
            delay=6.0,
            probability=1.0,
            max_fires=1,
        )
        ex = ScatterGatherExecutor(sharded, max_workers=1)
        with inject(FaultInjector([slow], clock=clock)):
            ex.sql(
                "SELECT SUM(v) AS s FROM events",
                options=QueryOptions(deadline=Deadline(10.0, clock=clock)),
            )
        assert ex.breaker(0).total_failures == 0
        assert ex.breaker(0).state == "closed"

    def test_persistent_failures_open_the_breaker(self, world):
        _db, sharded = world
        q = "SELECT SUM(v) AS s FROM events"
        ex = ScatterGatherExecutor(sharded, max_workers=1)
        with inject(FaultInjector([kill_shard(2)])):
            first = ex.sql(q)
            second = ex.sql(q)
            third = ex.sql(q)
        for result in (first, second):
            step = [p for p in result.provenance if p.get("shard") == 2][0]
            assert step["status"] == "failed"
            assert step["attempts"] == ["failed", "failed"]
        step = [p for p in third.provenance if p.get("shard") == 2][0]
        assert step["status"] == "breaker_open"
        assert step["outcome"] == "skipped"
        assert ex.breaker(2).state == "open"
        # untouched shards keep closed breakers
        assert ex.breaker(1).state == "closed"


# ----------------------------------------------------------------------
# Catalog shard isolation
# ----------------------------------------------------------------------
class TestCatalogShardIsolation:
    def test_shard_entries_are_invisible_to_whole_table_lookups(self):
        sharded = ShardedTable.from_table(_make_table(seed=41), 4)
        catalog = SynopsisCatalog.for_database(sharded.binder_database())
        sharded.build_shard_samples(
            rows_per_shard=100, seed=2, catalog=catalog
        )
        assert catalog.find_sample("events", require_fresh=False) is None
        for i in range(4):
            entry = catalog.find_sample(
                "events", require_fresh=False, shard=i
            )
            assert entry is not None and entry.shard == i

    def test_whole_table_entries_are_invisible_to_shard_lookups(self):
        table = _make_table(seed=43)
        catalog = SynopsisCatalog(Database())
        catalog.add_sample(
            SampleEntry(
                table="events",
                sample=srs_sample(table, 100, np.random.default_rng(0)),
                kind="uniform",
                built_at_rows=table.num_rows,
            )
        )
        assert (
            catalog.find_sample("events", require_fresh=False, shard=0)
            is None
        )
        assert catalog.find_sample("events", require_fresh=False) is not None


# ----------------------------------------------------------------------
# Merge helpers
# ----------------------------------------------------------------------
class TestMergeHelpers:
    def test_merge_requires_input(self):
        with pytest.raises(MergeError):
            merge_sketches([])
        with pytest.raises(MergeError):
            merge_partial_tables([], ())

    def test_partial_tables_regroup_and_add(self):
        a = Table({"k": np.array([1, 3]), "s": np.array([1.0, 2.0])})
        b = Table({"k": np.array([]), "s": np.array([])})  # no rows matched
        c = Table({"k": np.array([0, 3]), "s": np.array([4.0, 8.0])})
        merged = merge_partial_tables([a, b, c], ("k",))
        assert merged["k"].dtype == a["k"].dtype
        assert list(merged["k"]) == [0, 1, 3]
        assert list(merged["s"]) == [4.0, 1.0, 10.0]
        scalar = merge_partial_tables([a, c], ())
        assert scalar.num_rows == 1 and float(scalar["s"][0]) == 15.0


# ----------------------------------------------------------------------
# Door conformance (DESIGN.md §2.10: every front door is a stage over
# one query pipeline, so the accounting around the stage is identical)
# ----------------------------------------------------------------------
def _open_door(name, db, sharded):
    """``(sql, close)`` for one of the five front doors."""
    if name == "Database":
        return db.sql, lambda: None
    if name == "AQPEngine":
        return AQPEngine(db).sql, lambda: None
    if name == "ResilientEngine":
        return ResilientEngine(db, warn_on_degrade=False).sql, lambda: None
    if name == "ScatterGatherExecutor":
        return ScatterGatherExecutor(sharded).sql, lambda: None
    frontend = ServingFrontend(db, workers=1)
    return frontend.sql, frontend.close


@pytest.mark.parametrize("tenant", ["default", "acme"])
@pytest.mark.parametrize(
    "door",
    [
        "Database",
        "AQPEngine",
        "ResilientEngine",
        "ScatterGatherExecutor",
        "ServingFrontend",
    ],
)
def test_every_door_accounts_for_a_query_the_same_way(
    world, door, tenant, monkeypatch
):
    db, sharded = world
    # options.trace starts a fresh tracer inside the pipeline (also on
    # the frontend's worker thread); keep a handle on it.
    tracers = []

    class RecordingTracer(Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    monkeypatch.setattr("repro.obs.trace.Tracer", RecordingTracer)
    registry = MetricsRegistry()
    set_metrics(registry)
    log = WorkloadLog()
    previous = install_workload_log(log)
    sql, close = _open_door(door, db, sharded)
    try:
        result = sql(
            "SELECT SUM(v) AS s FROM events WHERE k > 1 "
            "ERROR WITHIN 20% CONFIDENCE 95%",
            # options.spec overrides the SQL clause, at every door alike
            options=QueryOptions(spec=SPEC, seed=3, tenant=tenant, trace=True),
        )
    finally:
        close()
        install_workload_log(previous)
        set_metrics(None)
    labelled = {} if tenant == "default" else {"tenant": tenant}
    served = getattr(result, "technique", "exact")

    # exactly one root ``query`` span, fully labelled
    (tracer,) = tracers
    (root,) = tracer.roots
    assert root.name == "query"
    assert len(tracer.find("query")) == 1
    attrs = root.attributes
    assert attrs["engine"] in ("aqp", "ladder", "scatter_gather")
    assert attrs["technique"] == served
    assert attrs["stats"] == result.stats.to_dict()
    assert attrs.get("tenant") == labelled.get("tenant")

    # exactly one ``queries_total`` increment, under the span's identity
    routing = {k: attrs[k] for k in ("rung", "mode") if k in attrs}
    assert registry.counter_total("queries_total") == 1.0
    assert registry.counter_value(
        "queries_total",
        engine=attrs["engine"],
        technique=served,
        **routing,
        **labelled,
    ) == 1.0

    # exactly one workload-log entry: same fingerprint and contract
    (entry,) = log.entries()
    assert entry.technique == served
    assert (
        entry.table,
        entry.predicate_columns,
        entry.group_columns,
        entry.agg_family,
        entry.measure_columns,
        entry.tenant,
        entry.requested_error,
    ) == ("events", ("k",), (), "sum", ("v",), tenant, SPEC.relative_error)
