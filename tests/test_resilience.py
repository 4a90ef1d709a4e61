"""Tests for the resilience serving layer.

Covers the cooperative deadline/budget objects, their threading through
the executor and the online loops, the circuit breaker, the synopsis
cache's failed-build semantics, the fault injector, and the degradation
ladder's rung-by-rung behaviour and its retry of synopsis-backed rungs.
The randomized fault sweeps live in ``test_chaos.py``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.core.exceptions import (
    BudgetExhausted,
    DeadlineExceeded,
    DegradedAnswer,
    InjectedFault,
    QueryRefused,
    SynopsisUnavailable,
    UnsupportedQueryError,
)
from repro.core.errorspec import ErrorSpec
from repro.core.options import QueryOptions
from repro.engine.fused import SliceRelation, prepare_partial_aggregate
from repro.engine.kernel_cache import get_kernel_cache
from repro.engine.database import Database
from repro.engine.table import Table
from repro.offline.catalog import SampleEntry, SynopsisCatalog
from repro.online.ola import OnlineAggregator
from repro.online.ripple import RippleJoin
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FaultSpec,
    LADDER_RUNGS,
    ManualClock,
    ResilientEngine,
    ResourceBudget,
    deadline_scope,
    inject,
)
from repro.resilience.deadline import current_budget, current_deadline
from repro.sampling.row import srs_sample
from repro.serving import ServingFrontend
from repro.sql import bind_sql
from repro.storage.synopsis_cache import SynopsisCache

from .ola_reference import reference_fixed_stop


# ----------------------------------------------------------------------
# Deadline / ResourceBudget
# ----------------------------------------------------------------------

class TestDeadline:
    def test_manual_clock_drives_expiry(self):
        clock = ManualClock()
        dl = Deadline(5.0, clock=clock)
        assert not dl.expired
        assert dl.remaining() == pytest.approx(5.0)
        clock.advance(4.0)
        assert not dl.expired
        clock.advance(1.5)
        assert dl.expired
        assert dl.elapsed() == pytest.approx(5.5)

    def test_check_raises_with_site(self):
        clock = ManualClock()
        dl = Deadline(1.0, clock=clock)
        dl.check(site="warmup")  # no-op before expiry
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded) as exc_info:
            dl.check(site="scan:sales")
        assert exc_info.value.site == "scan:sales"
        assert dl.fired_sites == ["scan:sales"]

    def test_grace_window(self):
        clock = ManualClock()
        dl = Deadline(10.0, clock=clock, grace_fraction=0.10)
        clock.advance(10.5)
        assert dl.expired
        assert dl.within_grace()
        clock.advance(0.6)  # now at 11.1 > 10 * 1.1
        assert not dl.within_grace()

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(1.0, grace_fraction=-0.1)
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


class TestResourceBudget:
    def test_rows_exhaustion(self):
        budget = ResourceBudget(max_rows=100)
        budget.charge(rows=60)
        assert budget.remaining_rows() == 40
        with pytest.raises(BudgetExhausted) as exc_info:
            budget.charge(rows=50, site="scan:t")
        assert exc_info.value.resource == "rows"

    def test_blocks_exhaustion(self):
        budget = ResourceBudget(max_blocks=2)
        budget.charge(blocks=2)
        with pytest.raises(BudgetExhausted) as exc_info:
            budget.charge(blocks=1)
        assert exc_info.value.resource == "blocks"

    def test_unlimited_by_default(self):
        budget = ResourceBudget()
        budget.charge(rows=10**9, blocks=10**6)
        assert budget.remaining_rows() is None


class TestDeadlineScope:
    def test_ambient_propagation_and_reset(self):
        assert current_deadline() is None
        dl = Deadline(5.0, clock=ManualClock())
        budget = ResourceBudget(max_rows=10)
        with deadline_scope(dl, budget):
            assert current_deadline() is dl
            assert current_budget() is budget
        assert current_deadline() is None
        assert current_budget() is None

    def test_none_inherits_enclosing_scope(self):
        dl = Deadline(5.0, clock=ManualClock())
        inner_budget = ResourceBudget(max_rows=10)
        with deadline_scope(dl, None):
            with deadline_scope(None, inner_budget):
                # The nested scope tightens the budget without losing
                # the outer deadline.
                assert current_deadline() is dl
                assert current_budget() is inner_budget
            assert current_budget() is None


# ----------------------------------------------------------------------
# Executor threading
# ----------------------------------------------------------------------

@pytest.fixture
def small_db():
    rng = np.random.default_rng(7)
    db = Database()
    db.create_table(
        "t",
        {"x": rng.exponential(10.0, 4000), "g": rng.integers(0, 4, 4000)},
    )
    return db


class TestExecutorLimits:
    def test_expired_deadline_raises_from_exact_query(self, small_db):
        clock = ManualClock()
        dl = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded):
            small_db.sql(
                "SELECT SUM(x) AS s FROM t",
                options=QueryOptions(deadline=dl),
            )
        assert dl.fired_sites  # the checkpoint recorded where it fired

    def test_row_budget_raises_from_exact_query(self, small_db):
        with pytest.raises(BudgetExhausted):
            small_db.sql(
                "SELECT SUM(x) AS s FROM t",
                options=QueryOptions(budget=ResourceBudget(max_rows=100)),
            )

    def test_generous_limits_leave_answer_unchanged(self, small_db):
        plain = small_db.sql("SELECT SUM(x) AS s FROM t")
        bounded = small_db.sql(
            "SELECT SUM(x) AS s FROM t",
            options=QueryOptions(
                deadline=Deadline(1e9), budget=ResourceBudget(max_rows=10**9)
            ),
        )
        assert bounded.scalar() == pytest.approx(plain.scalar())

    def test_ambient_scope_reaches_executor(self, small_db):
        clock = ManualClock()
        dl = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with deadline_scope(dl):
            with pytest.raises(DeadlineExceeded):
                small_db.sql("SELECT SUM(x) AS s FROM t")


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_opens_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=2)
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert not breaker.allow()
        # cooldown consumed: half-open lets a probe through
        assert breaker.state == "half_open"
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert breaker.state == "open"
        breaker.allow()  # cooldown rejection -> half_open
        assert breaker.allow()  # probe admitted
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.times_opened == 2

    def test_retry_policy_respects_open_breaker(self, sales_db):
        # The ladder's retry asks the rung's breaker before every
        # attempt: an open one fails the rung without running it.
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        breaker = engine.breakers["requested"] = CircuitBreaker(
            failure_threshold=1, cooldown=100, name="ladder.requested"
        )
        breaker.record_failure()
        injector = FaultInjector([FaultSpec(site="ladder.requested")])
        with inject(injector):
            result = engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
        assert injector.fired_at("ladder.requested") == 0
        steps = {p["rung"]: p for p in result.provenance}
        assert steps["requested"]["detail"] == "synopsis unavailable"
        assert "circuit open for requested" in steps["requested"]["error"]

    def test_reopen_does_not_count_an_ordinary_failure(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1)
        breaker.record_failure()
        breaker.allow()  # closed: allowed, failure count stands at 1
        breaker.reopen()
        assert breaker.state == "open"
        assert breaker.times_opened == 1
        assert breaker.total_failures == 1
        assert breaker.consecutive_failures == 1

    def test_aborted_half_open_probe_reopens_without_a_failure(
        self, sales_db
    ):
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        breaker = engine.breakers["requested"] = CircuitBreaker(
            failure_threshold=2, cooldown=1, name="ladder.requested"
        )
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        breaker.allow()  # cooldown rejection -> half_open
        assert breaker.state == "half_open"

        # The admitted probe blows its deadline.
        injector = FaultInjector(
            [FaultSpec(site="ladder.requested", error_type=DeadlineExceeded)]
        )
        with inject(injector):
            result = engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
        # the deadline abort consumed no retry ...
        assert injector.fired_at("ladder.requested") == 1
        steps = {p["rung"]: p for p in result.provenance}
        assert steps["requested"]["detail"] == "deadline"
        # ... and the breaker is back to open — but the abort was not
        # recorded as an observed failure (the probe's health is unknown)
        assert breaker.state == "open"
        assert breaker.total_failures == 2
        assert breaker.times_opened == 2


# ----------------------------------------------------------------------
# Synopsis cache: failed builds must not poison
# ----------------------------------------------------------------------

class TestCacheFailedBuilds:
    def _table_key(self):
        return ("t", "fp-abc")

    def test_failed_build_is_not_cached(self):
        cache = SynopsisCache()

        def bad_builder():
            raise OSError("store hiccup")

        with pytest.raises(OSError):
            cache.get_or_build(self._table_key(), "sketch:hll", bad_builder)
        assert cache.stats.failed_builds == 1
        # The miss stays a miss: the next lookup does not see a poisoned
        # entry and the builder runs again.
        assert (
            cache.get(cache.make_key(self._table_key(), "sketch:hll")) is None
        )
        value = cache.get_or_build(
            self._table_key(), "sketch:hll", lambda: "good"
        )
        assert value == "good"

    def test_failed_refresh_evicts_previous_entry(self):
        cache = SynopsisCache()
        key_src = self._table_key()
        cache.get_or_build(key_src, "sketch:hll", lambda: "v1")

        def partial_builder():
            # A builder that self-registers a partial result before
            # dying — the classic poisoned-entry bug.
            cache.put(cache.make_key(key_src, "sketch:hll"), "partial")
            raise OSError("died mid-build")

        with pytest.raises(OSError):
            cache.get_or_build(
                key_src, "sketch:hll", partial_builder, refresh=True
            )
        assert cache.get(cache.make_key(key_src, "sketch:hll")) is None
        assert cache.stats.failed_builds == 1

    def test_refresh_rebuilds_unconditionally(self):
        cache = SynopsisCache()
        key_src = self._table_key()
        cache.get_or_build(key_src, "sketch:hll", lambda: "v1")
        value = cache.get_or_build(
            key_src, "sketch:hll", lambda: "v2", refresh=True
        )
        assert value == "v2"
        assert cache.get(cache.make_key(key_src, "sketch:hll")) == "v2"

    def test_evict_reports_whether_anything_was_dropped(self):
        cache = SynopsisCache()
        key = cache.make_key(self._table_key(), "sketch:hll")
        assert not cache.evict(key)
        cache.put(key, "v", nbytes=8)
        assert cache.evict(key)
        assert cache.current_bytes == 0

    def test_injected_eviction_forces_rebuild(self):
        cache = SynopsisCache()
        key_src = self._table_key()
        builds = {"n": 0}

        def counting_builder():
            builds["n"] += 1
            return f"v{builds['n']}"

        cache.get_or_build(key_src, "sketch:hll", counting_builder)
        injector = FaultInjector(
            [FaultSpec(site="cache.lookup", kind="evict", max_fires=1)]
        )
        with inject(injector):
            cache.get_or_build(key_src, "sketch:hll", counting_builder)
        assert builds["n"] == 2  # the eviction made the lookup a miss
        assert injector.fired_at("cache.lookup") == 1


# ----------------------------------------------------------------------
# Catalog: stale gate + sketch-build breaker
# ----------------------------------------------------------------------

class TestCatalogResilience:
    def _stale_catalog(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(10.0, 4000)
        db = Database()
        db.create_table("t", {"x": values})
        prefix = 3000
        sample = srs_sample(
            Table({"x": values[:prefix]}, name="t"), 500, rng
        )
        catalog = SynopsisCatalog(db)
        catalog.add_sample(
            SampleEntry(
                table="t", sample=sample, kind="uniform",
                built_at_rows=prefix,
            )
        )
        return db, catalog

    def test_allow_stale_suspends_freshness_gate(self):
        _, catalog = self._stale_catalog()
        assert catalog.find_sample("t") is None  # stale: gated out
        with catalog.allow_stale():
            assert catalog.find_sample("t") is not None
        assert catalog.find_sample("t") is None  # gate restored

    def test_allow_stale_restores_gate_on_error(self):
        _, catalog = self._stale_catalog()
        with pytest.raises(RuntimeError):
            with catalog.allow_stale():
                raise RuntimeError("body died")
        assert not catalog.stale_allowed

    def test_failing_sketch_build_raises_every_time(self):
        db = Database()
        db.create_table("t", {"x": np.arange(100.0)})
        catalog = SynopsisCatalog(db)
        injector = FaultInjector(
            [FaultSpec(site="catalog.sketch_build", kind="error")]
        )
        builds = {"n": 0}

        def builder(table_obj, column):
            builds["n"] += 1
            return object()

        with inject(injector):
            for _ in range(4):
                with pytest.raises(InjectedFault):
                    catalog.ensure_sketch("t", "x", "hll", builder)
        assert builds["n"] == 0
        assert catalog.sketches == {}


# ----------------------------------------------------------------------
# OLA / ripple deadline checkpoints (the graceful-stop satellite)
# ----------------------------------------------------------------------

def _tight_deadline():
    clock = ManualClock()
    dl = Deadline(1.0, clock=clock)
    clock.advance(2.0)
    return clock, dl


class TestOLADeadline:
    @pytest.mark.parametrize(
        "population",
        [
            np.random.default_rng(5).uniform(10.0, 20.0, 20_000),  # uniform
            np.random.default_rng(5).lognormal(3.0, 2.0, 20_000),  # skewed
        ],
        ids=["uniform", "skewed"],
    )
    def test_tight_deadline_returns_snapshot_not_raise(self, population):
        table = Table({"v": population})
        truth = float(population.sum())
        _, dl = _tight_deadline()
        ola = OnlineAggregator(table, "v", agg="sum", seed=1)
        snap = ola.run_to_target(0.01, batch_size=2000, deadline=dl)
        # The deadline expired before any batch: the answer is the first
        # batch's fixed-stop snapshot with its honest CI, never a raise.
        assert snap.rows_seen == 2000
        assert math.isfinite(snap.ci_low) and math.isfinite(snap.ci_high)
        assert snap.ci_high > snap.ci_low
        # Fixed-stop intervals are the valid kind (no peeking): at this
        # seeded prefix they cover the truth for both shapes.
        assert snap.covers(truth)

    def test_mid_run_expiry_stops_the_stream(self):
        rng = np.random.default_rng(9)
        table = Table({"v": rng.exponential(5.0, 50_000)})
        clock = ManualClock()
        dl = Deadline(3.0, clock=clock)
        ola = OnlineAggregator(table, "v", agg="sum", seed=2)
        seen = []
        for snap in ola.run(batch_size=1000, deadline=dl):
            seen.append(snap)
            clock.advance(1.0)  # each batch "costs" a second
        assert len(seen) == 3  # stopped at the deadline, not at the data
        assert seen[-1].fraction_seen < 1.0

    def test_ambient_scope_reaches_ola(self):
        rng = np.random.default_rng(9)
        table = Table({"v": rng.exponential(5.0, 10_000)})
        _, dl = _tight_deadline()
        ola = OnlineAggregator(table, "v", agg="sum", seed=2)
        with deadline_scope(dl):
            assert list(ola.run(batch_size=1000)) == []


class TestRippleDeadline:
    def _join(self, seed=3):
        rng = np.random.default_rng(seed)
        left = Table({"k": rng.integers(0, 50, 5000), "v": rng.exponential(2.0, 5000)})
        right = Table({"k": np.arange(50), "w": rng.uniform(0.5, 1.5, 50)})
        return RippleJoin(
            left, right, "k", "k", left_measure="v", right_measure="w",
            seed=seed,
        )

    def test_expired_deadline_yields_nothing(self):
        _, dl = _tight_deadline()
        assert list(self._join().run(batch=500, deadline=dl)) == []

    def test_mid_run_expiry_stops_at_batch_boundary(self):
        clock = ManualClock()
        dl = Deadline(2.0, clock=clock)
        join = self._join()
        snaps = []
        for snap in join.run(batch=500, deadline=dl):
            snaps.append(snap)
            clock.advance(1.0)
        assert len(snaps) == 2
        assert not join.is_exhausted
        # The last snapshot is still a usable estimate with a CI.
        assert math.isfinite(snaps[-1].ci_low)


# ----------------------------------------------------------------------
# The degradation ladder
# ----------------------------------------------------------------------

N_ROWS = 20_000


@pytest.fixture
def prices():
    return np.random.default_rng(0).lognormal(3.0, 1.0, N_ROWS)


@pytest.fixture
def sales_db(prices):
    db = Database()
    db.create_table("sales", {"price": prices})
    return db


def _add_stale_sample(db, prices, fraction=0.8, size=2000, seed=3):
    prefix = int(len(prices) * fraction)
    sample = srs_sample(
        Table({"price": prices[:prefix]}, name="sales"),
        size,
        np.random.default_rng(seed),
    )
    catalog = SynopsisCatalog.for_database(db)
    catalog.add_sample(
        SampleEntry(
            table="sales", sample=sample, kind="uniform",
            built_at_rows=prefix,
        )
    )
    return catalog


APPROX_SQL = "SELECT SUM(price) AS s FROM sales ERROR WITHIN 5% CONFIDENCE 95%"


class TestLadder:
    def test_exact_query_records_single_rung_provenance(self, sales_db):
        engine = ResilientEngine(sales_db)
        result = engine.sql("SELECT SUM(price) AS s FROM sales")
        assert [p["rung"] for p in result.provenance] == ["exact_no_guarantee"]
        assert not result.is_degraded

    def test_requested_rung_success_is_not_degraded(self, sales_db):
        engine = ResilientEngine(sales_db)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedAnswer)
            result = engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
        assert result.provenance[-1]["rung"] == "requested"
        assert not result.is_degraded

    def test_misspelt_technique_is_refused_before_any_rung(self, sales_db):
        # A misspelt technique must not fail the requested rung and be
        # served, degraded, by a lower one: every door refuses it typed,
        # as Database.sql does.
        engine = ResilientEngine(sales_db)
        frontend = ServingFrontend(engine=engine, workers=1)
        options = QueryOptions(seed=1, technique="quikr")
        try:
            for door in (engine.sql, frontend.sql, sales_db.sql):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DegradedAnswer)
                    with pytest.raises(
                        UnsupportedQueryError, match="unknown technique 'quikr'"
                    ):
                        door(APPROX_SQL, options=options)
        finally:
            frontend.close()
        assert engine.breakers == {}  # no rung was attempted

    def test_stale_rung_widens_and_warns(self, sales_db, prices):
        _add_stale_sample(sales_db, prices)
        engine = ResilientEngine(sales_db)
        with pytest.warns(DegradedAnswer):
            result = engine.sql(
                APPROX_SQL,
                options=QueryOptions(seed=1, technique="offline_sample"),
            )
        assert result.technique == "offline_sample_stale"
        assert result.is_degraded
        # staleness = (20000 - 16000) / 16000 = 0.25; the claimed spec
        # loosens to 0.05 * 1.25 + 0.25.
        assert result.diagnostics["staleness"] == pytest.approx(0.25)
        assert result.spec.relative_error == pytest.approx(
            0.05 * 1.25 + 0.25
        )
        cell = result.estimate("s")
        assert cell.covers(float(prices.sum()))
        rungs = [p["rung"] for p in result.provenance]
        assert rungs == ["requested", "stale_synopsis"]
        assert result.provenance[0]["outcome"] == "failed"

    def test_stale_rung_refuses_past_widening_cap(self, sales_db, prices):
        # built_at_rows=2000 over a 20000-row table: staleness 9.0 > 4.0.
        _add_stale_sample(sales_db, prices, fraction=0.1)
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        result = engine.sql(
            APPROX_SQL,
            options=QueryOptions(seed=1, technique="offline_sample"),
        )
        steps = {p["rung"]: p for p in result.provenance}
        assert steps["stale_synopsis"]["outcome"] == "failed"
        assert "staleness" in steps["stale_synopsis"]["error"]
        assert result.provenance[-1]["outcome"] == "ok"

    def test_corrupted_sample_weights_are_rejected(self, sales_db, prices):
        catalog = _add_stale_sample(sales_db, prices)
        catalog.samples[0].sample.weights[:] = np.nan
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        result = engine.sql(
            APPROX_SQL,
            options=QueryOptions(seed=1, technique="offline_sample"),
        )
        steps = {p["rung"]: p for p in result.provenance}
        assert steps["stale_synopsis"]["outcome"] == "failed"
        assert "SynopsisUnavailable" in steps["stale_synopsis"]["error"]

    def test_all_approx_rungs_faulted_falls_to_exact(self, sales_db, prices):
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        injector = FaultInjector(
            [
                FaultSpec(site=f"ladder.{rung}", kind="error")
                for rung in LADDER_RUNGS
                if rung != "exact_no_guarantee"
            ],
            seed=7,
        )
        with inject(injector):
            result = engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
        assert result.provenance[-1]["rung"] == "exact_no_guarantee"
        assert result.is_degraded
        assert result.scalar() == pytest.approx(float(prices.sum()))
        # Every failed rung left a complete record.
        assert len(result.provenance) == len(LADDER_RUNGS)
        assert all(
            p["outcome"] == "failed" for p in result.provenance[:-1]
        )

    def test_total_failure_is_a_typed_refusal_with_provenance(
        self, sales_db
    ):
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        injector = FaultInjector(
            [FaultSpec(site=f"ladder.{rung}", kind="error") for rung in LADDER_RUNGS],
            seed=7,
        )
        with inject(injector):
            with pytest.raises(QueryRefused) as exc_info:
                engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
        provenance = exc_info.value.provenance
        assert [p["rung"] for p in provenance] == list(LADDER_RUNGS)
        assert all(p["outcome"] == "failed" for p in provenance)

    def test_expired_deadline_serves_partial_ola_snapshot(
        self, sales_db, prices
    ):
        _, dl = _tight_deadline()
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        result = engine.sql(
            APPROX_SQL,
            options=QueryOptions(seed=2, deadline=dl),
        )
        assert result.technique == "partial_ola"
        assert result.is_degraded
        # Expensive rungs were skipped, not attempted, and said so.
        skipped = [p for p in result.provenance if p["outcome"] == "skipped"]
        assert {p["detail"] for p in skipped} == {"deadline expired"}
        # The honest-CI contract: the claimed spec is never tighter than
        # what the snapshot actually achieved.
        cell = result.estimate("s")
        achieved = cell.half_width / abs(cell.value)
        assert result.spec.relative_error >= achieved - 1e-9
        assert cell.covers(float(prices.sum()))

    def test_refused_technique_is_not_asked_again(
        self, sales_db, prices, monkeypatch
    ):
        """A planner refusal is a function of (bound query, spec, seed):
        the cheaper_technique rung must not repeat the requested rung's."""
        from repro.offline.rewriter import OfflineRewriter
        from repro.online.pilot import PilotPlanner
        from repro.online.quickr import QuickrPlanner

        calls = {}
        for planner in (OfflineRewriter, PilotPlanner, QuickrPlanner):
            def counted(self, *args, _run=planner.run, _name=planner.__name__, **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _run(self, *args, **kw)

            monkeypatch.setattr(planner, "run", counted)
        _add_stale_sample(sales_db, prices)  # so stale_synopsis asks offline
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        result = engine.sql(
            "SELECT COUNT(DISTINCT price) AS d FROM sales "
            "ERROR WITHIN 5% CONFIDENCE 95%",
            options=QueryOptions(seed=1),
        )
        assert [p["rung"] for p in result.provenance] == list(LADDER_RUNGS)
        assert result.provenance[-1]["outcome"] == "ok"
        assert result.scalar() == float(len(np.unique(prices)))
        # requested asks each technique once; stale_synopsis may ask the
        # rewriter again (relaxed spec); cheaper_technique asks nobody.
        assert calls == {
            "OfflineRewriter": 2, "PilotPlanner": 1, "QuickrPlanner": 1,
        }

    def test_budget_exhaustion_is_recorded_and_refused(self, sales_db):
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        with pytest.raises(QueryRefused) as exc_info:
            engine.sql(
                "SELECT SUM(price) AS s FROM sales",
                options=QueryOptions(budget=ResourceBudget(max_rows=10)),
            )
        (step,) = exc_info.value.provenance
        assert step["rung"] == "exact_no_guarantee"
        assert step["detail"] == "budget"

    def test_breaker_skips_a_flapping_rung(self, sales_db):
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        engine.breakers["requested"] = CircuitBreaker(
            failure_threshold=2, cooldown=100, name="ladder.requested"
        )
        injector = FaultInjector(
            [FaultSpec(site="ladder.requested", kind="error")], seed=7
        )
        with inject(injector):
            # trips the breaker (2 attempts)
            engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
            arrivals_before = injector.fired_at("ladder.requested")
            result = engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
        # The second query found the breaker open: the requested rung
        # failed fast without re-running the faulted work.
        assert engine.breakers["requested"].state == "open"
        assert injector.fired_at("ladder.requested") == arrivals_before
        steps = {p["rung"]: p for p in result.provenance}
        assert steps["requested"]["detail"] == "synopsis unavailable"


class TestPartialOLARung:
    """The ``partial_ola`` rung answers from the moment table of its
    fixed-stop prefix, through the intervals every single-node sampled
    door uses."""

    SPEC = ErrorSpec(relative_error=0.05, confidence=0.95)

    def _rung(self, db, sql, seed=4, deadline=None):
        return ResilientEngine(db, warn_on_degrade=False).sql(
            sql,
            options=QueryOptions(
                spec=self.SPEC, seed=seed, deadline=deadline,
                entry_rung="partial_ola",
            ),
        )

    @staticmethod
    def _reference(db, sql, seed=4, deadline=None):
        """The estimate the rung's ``OnlineAggregator`` gave, same draw."""
        base = db.table("sales")
        bound = bind_sql(sql, db)
        return reference_fixed_stop(
            prepare_partial_aggregate(bound, get_kernel_cache()),
            SliceRelation(base, 0, base.num_rows, {"price": "sales.price"}),
            seed=seed,
            batch_size=max(512, base.num_rows // 50),
            deadline=deadline,
        ).estimate(bound.aggregates[0].func)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT SUM(price) AS x FROM sales",
            "SELECT COUNT(*) AS x FROM sales WHERE price > 30",
            "SELECT AVG(price) AS x FROM sales WHERE price > 30",
        ],
    )
    @pytest.mark.parametrize("expired", [False, True])
    def test_intervals_contain_the_aggregator_rungs(self, sales_db, sql, expired):
        """Same rows and point value as the aggregator-based rung; the
        cell confidence is now the union-bound one and AVG the interval
        quotient, so the interval can only grow."""
        deadline = _tight_deadline()[1] if expired else None
        result = self._rung(sales_db, sql, deadline=deadline)
        assert result.technique == "partial_ola"
        old = self._reference(sales_db, sql, deadline=deadline)
        assert result.diagnostics["rows_seen"] == old.sample_size
        assert result.scalar() == pytest.approx(old.value, rel=1e-9)
        old_low, old_high = old.ci(self.SPEC.confidence)
        assert result.ci_low["x"][0] <= old_low
        assert result.ci_high["x"][0] >= old_high

    def test_serves_an_expression_and_two_aggregates(self, sales_db, prices):
        result = self._rung(
            sales_db,
            "SELECT SUM(price) / 2 AS h, COUNT(*) AS c FROM sales "
            "WHERE price > 30",
        )
        assert result.technique == "partial_ola"
        kept = prices[prices > 30]
        truths = {"h": kept.sum() / 2, "c": float(len(kept))}
        for alias, truth in truths.items():
            cell = result.estimate(alias)
            assert cell.covers(truth), alias
        half = self._reference(
            sales_db, "SELECT SUM(price) AS x FROM sales WHERE price > 30"
        )
        assert result.value("h") == pytest.approx(half.value / 2, rel=1e-9)
        assert result.spec.relative_error >= max(
            result.estimate(a).half_width / abs(result.estimate(a).value)
            for a in truths
        ) - 1e-12


# ----------------------------------------------------------------------
# The ladder's retry of its synopsis-backed rungs
# ----------------------------------------------------------------------

class TestLadderRetry:
    """A transient failure of ``requested`` gets one more attempt."""

    def test_retries_then_succeeds(self, sales_db):
        engine = ResilientEngine(sales_db)
        injector = FaultInjector(
            [FaultSpec(site="ladder.requested", max_fires=1)]
        )
        with inject(injector), warnings.catch_warnings():
            warnings.simplefilter("error", DegradedAnswer)
            result = engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
        assert [p["rung"] for p in result.provenance] == ["requested"]
        assert not result.is_degraded
        breaker = engine.breakers["requested"]
        assert (breaker.total_failures, breaker.total_successes) == (1, 1)

    def test_exhausted_attempts_reraise_last_error(self, sales_db):
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        injector = FaultInjector([FaultSpec(site="ladder.requested")])
        with inject(injector):
            result = engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
        assert injector.fired_at("ladder.requested") == 2
        steps = {p["rung"]: p for p in result.provenance}
        assert steps["requested"]["outcome"] == "failed"
        assert steps["requested"]["error"].endswith("(arrival 1)")
        assert result.provenance[-1]["rung"] == "cheaper_technique"

    def test_deadline_exceeded_is_never_retried(self, sales_db):
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        injector = FaultInjector(
            [FaultSpec(site="ladder.requested", error_type=DeadlineExceeded)]
        )
        with inject(injector):
            result = engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
        assert injector.fired_at("ladder.requested") == 1
        steps = {p["rung"]: p for p in result.provenance}
        assert steps["requested"]["detail"] == "deadline"
        assert engine.breakers["requested"].total_failures == 0

    def test_non_transient_errors_propagate_immediately(self, sales_db):
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        injector = FaultInjector(
            [FaultSpec(site="ladder.requested", error_type=ValueError)]
        )
        with inject(injector):
            result = engine.sql(APPROX_SQL, options=QueryOptions(seed=1))
        assert injector.fired_at("ladder.requested") == 1
        steps = {p["rung"]: p for p in result.provenance}
        assert steps["requested"]["detail"] == "unexpected"
        assert engine.breakers["requested"].total_failures == 0

    def test_deadline_checked_between_attempts(self, sales_db, monkeypatch):
        clock = ManualClock()
        engine = ResilientEngine(sales_db, warn_on_degrade=False)
        calls = []

        def fail_and_stall(*_):
            calls.append(1)
            clock.advance(2.0)
            raise OSError("slow failure")

        monkeypatch.setattr(engine, "_run_requested", fail_and_stall)
        result = engine.sql(
            APPROX_SQL,
            options=QueryOptions(seed=1, deadline=Deadline(1.0, clock=clock)),
        )
        assert calls == [1]
        steps = {p["rung"]: p for p in result.provenance}
        assert steps["requested"]["detail"] == "deadline"
        assert "retry:requested" in steps["requested"]["error"]


# ----------------------------------------------------------------------
# Fault injector determinism
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_probabilistic_schedule_replays_exactly(self):
        def drive(injector):
            fired = []
            for _ in range(50):
                try:
                    injector.arrive("site.a")
                except InjectedFault:
                    fired.append(True)
                else:
                    fired.append(False)
            return fired

        spec = lambda: [FaultSpec(site="site.a", kind="error", probability=0.3)]
        assert drive(FaultInjector(spec(), seed=5)) == drive(
            FaultInjector(spec(), seed=5)
        )
        assert drive(FaultInjector(spec(), seed=5)) != drive(
            FaultInjector(spec(), seed=6)
        )

    def test_after_and_max_fires_window_the_outage(self):
        injector = FaultInjector(
            [FaultSpec(site="s", kind="error", after=2, max_fires=2)]
        )
        outcomes = []
        for _ in range(6):
            try:
                injector.arrive("s")
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("fault")
        assert outcomes == ["ok", "ok", "fault", "fault", "ok", "ok"]

    def test_slow_fault_advances_the_clock(self):
        clock = ManualClock()
        injector = FaultInjector(
            [FaultSpec(site="s", kind="slow", delay=3.0)], clock=clock
        )
        assert injector.arrive("s") is None
        assert clock.now() == pytest.approx(3.0)

    def test_no_injector_is_a_noop(self):
        from repro.resilience.faults import maybe_fault

        assert maybe_fault("anything") is None
