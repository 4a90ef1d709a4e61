"""The workload-adaptive synopsis tuner.

Covers the whole loop: fingerprint extraction, the bounded workload log
and its demand views, advisor planning under a storage budget, daemon
build/evict cycles (seeded, breaker-wrapped), drift detection, the
stale-tuned-entry handoff to the degradation ladder, and the headline
seeded replay: the tuned catalog must at least double the static
catalog's synopsis hit rate on the two-phase workload — deterministically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, ErrorSpec, QueryOptions, Table
from repro.obs.metrics import get_metrics
from repro.offline.catalog import SynopsisCatalog
from repro.resilience.ladder import ResilientEngine
from repro.tuner import (
    QueryFingerprint,
    SynopsisAdvisor,
    TuningDaemon,
    WorkloadLog,
    install_workload_log,
    observe_query,
    run_tune_replay,
    two_phase_workload,
)
from repro.tuner.replay import make_replay_database, run_replay

pytestmark = pytest.mark.tuner


def _grouped_fp(seg: str, table: str = "events") -> QueryFingerprint:
    return QueryFingerprint(
        table=table,
        group_columns=(seg,),
        agg_family="sum",
        measure_columns=("v",),
        technique="quickr",
    )


def _scalar_fp(table: str = "events") -> QueryFingerprint:
    return QueryFingerprint(
        table=table, agg_family="sum", measure_columns=("v",),
        technique="pilot",
    )


@pytest.fixture
def db() -> Database:
    return make_replay_database(seed=0, rows=10_000)


# ----------------------------------------------------------------------
# Fingerprints and the workload log
# ----------------------------------------------------------------------

class TestWorkloadLog:
    def test_observe_query_records_bare_column_names(self, db):
        log = WorkloadLog()
        previous = install_workload_log(log)
        try:
            db.sql(
                "SELECT seg_a, SUM(v) AS s FROM events GROUP BY seg_a "
                "ERROR WITHIN 30% CONFIDENCE 95%",
                options=QueryOptions(seed=1),
            )
        finally:
            install_workload_log(previous)
        assert len(log) == 1
        fp = log.entries()[0]
        assert fp.table == "events"
        assert fp.group_columns == ("seg_a",)  # qualifier stripped
        assert fp.measure_columns == ("v",)
        assert fp.agg_family == "sum"
        assert fp.requested_error == pytest.approx(0.30)

    def test_no_log_installed_is_a_noop(self, db):
        install_workload_log(None)
        # must not raise, must not record anywhere
        observe_query(None, QueryOptions(), None)

    def test_ring_capacity_forgets_old_demand(self):
        log = WorkloadLog(capacity=4)
        log.extend(_grouped_fp("seg_a") for _ in range(4))
        log.extend(_grouped_fp("seg_b") for _ in range(4))
        assert len(log) == 4
        assert dict(log.group_demand("events")) == {("seg_b",): 4}
        assert log.total_recorded == 8

    def test_demand_views(self):
        log = WorkloadLog()
        log.extend(_grouped_fp("seg_a") for _ in range(3))
        log.extend(_scalar_fp() for _ in range(2))
        assert log.tables() == ["events"]
        assert log.group_demand("events")[("seg_a",)] == 3
        assert log.scalar_demand("events") == 2
        assert log.measure_demand("events")["v"] == 5

    def test_column_churn_detects_phase_shift(self):
        log = WorkloadLog()
        log.extend(_grouped_fp("seg_a") for _ in range(10))
        assert log.column_churn() == 0.0  # same demand in both halves
        log.extend(_grouped_fp("seg_b") for _ in range(10))
        assert log.column_churn() == 1.0  # disjoint halves

    def test_error_miss_rate(self):
        log = WorkloadLog()
        log.record(
            QueryFingerprint(
                table="events", agg_family="sum",
                requested_error=0.1, achieved_error=0.05, spec_met=True,
            )
        )
        log.record(
            QueryFingerprint(
                table="events", agg_family="sum",
                requested_error=0.1, achieved_error=0.4, spec_met=False,
            )
        )
        assert log.error_miss_rate() == pytest.approx(0.5)

    def test_records_round_trip(self):
        log = WorkloadLog()
        log.extend([_grouped_fp("seg_a"), _scalar_fp()])
        clone = WorkloadLog.from_records(log.to_records())
        assert clone.entries() == log.entries()


# ----------------------------------------------------------------------
# Advisor planning
# ----------------------------------------------------------------------

class TestAdvisor:
    def test_candidates_follow_demand(self, db):
        log = WorkloadLog()
        log.extend(_grouped_fp("seg_a") for _ in range(5))
        log.extend(_scalar_fp() for _ in range(5))
        advisor = SynopsisAdvisor(db, log, storage_budget_rows=10_000)
        kinds = {(c.kind, c.columns) for c in advisor.candidates()}
        assert ("stratified", ("seg_a",)) in kinds
        assert ("uniform", ()) in kinds

    def test_no_demand_no_candidates(self, db):
        advisor = SynopsisAdvisor(db, WorkloadLog())
        assert advisor.candidates() == []
        plan = advisor.plan()
        assert plan.builds == [] and plan.evictions == []

    def test_budget_defers_overflow(self, db):
        log = WorkloadLog()
        log.extend(_grouped_fp("seg_a") for _ in range(5))
        log.extend(_grouped_fp("seg_b") for _ in range(3))
        advisor = SynopsisAdvisor(
            db, log, storage_budget_rows=1_200, sample_fraction=0.1
        )
        plan = advisor.plan()  # each candidate wants 1000 rows
        assert len(plan.builds) == 1
        assert plan.builds[0].columns == ("seg_a",)  # higher demand wins
        assert any(c.columns == ("seg_b",) for c in plan.deferred)

    def test_covered_demand_is_not_rebuilt(self, db):
        log = WorkloadLog()
        log.extend(_grouped_fp("seg_a") for _ in range(5))
        daemon = TuningDaemon(db, log, storage_budget_rows=10_000, seed=0)
        first = daemon.run_cycle()
        assert [b["key"] for b in first.built] == ["events:stratified:seg_a"]
        second = daemon.run_cycle()
        assert second.built == []  # fresh covering entry already exists

    def test_scalar_demand_is_covered_by_a_stratified_sample(self, db):
        # find_sample serves scalar queries from a stratified sample when
        # no uniform one exists, so a uniform build would save nothing.
        log = WorkloadLog()
        log.extend(_grouped_fp("seg_a") for _ in range(5))
        daemon = TuningDaemon(db, log, storage_budget_rows=10_000, seed=0)
        daemon.run_cycle()
        log.extend(_scalar_fp() for _ in range(6))
        assert daemon.run_cycle().built == []
        entry = SynopsisCatalog.for_database(db).find_sample("events")
        assert entry is not None and entry.kind == "stratified"


# ----------------------------------------------------------------------
# Daemon cycles
# ----------------------------------------------------------------------

class TestDaemon:
    def test_cycle_builds_and_registers_tuner_entries(self, db):
        log = WorkloadLog()
        log.extend(_grouped_fp("seg_a") for _ in range(4))
        daemon = TuningDaemon(db, log, storage_budget_rows=10_000, seed=0)
        before = get_metrics().counter_value(
            "tuner_builds", table="events", kind="stratified"
        )
        report = daemon.run_cycle(triggered_by="manual")
        assert [b["key"] for b in report.built] == ["events:stratified:seg_a"]
        catalog = SynopsisCatalog.for_database(db)
        entry = catalog.find_sample("events", group_columns=("seg_a",))
        assert entry is not None and entry.source == "tuner"
        after = get_metrics().counter_value(
            "tuner_builds", table="events", kind="stratified"
        )
        assert after == before + 1

    def test_cold_tuner_entries_are_evicted(self, db):
        log = WorkloadLog(capacity=8)
        log.extend(_grouped_fp("seg_a") for _ in range(8))
        daemon = TuningDaemon(db, log, storage_budget_rows=10_000, seed=0)
        daemon.run_cycle()
        # Phase shift: seg_a demand ages fully out of the ring.
        log.extend(_grouped_fp("seg_b") for _ in range(8))
        report = daemon.run_cycle(triggered_by="drift")
        assert any(
            e["kind"] == "stratified" for e in report.evicted
        ), "cold seg_a entry should be evicted"
        assert [b["key"] for b in report.built] == ["events:stratified:seg_b"]
        catalog = SynopsisCatalog.for_database(db)
        assert catalog.find_sample("events", group_columns=("seg_a",)) is None
        assert catalog.find_sample("events", group_columns=("seg_b",)) is not None

    def test_manual_entries_are_never_evicted(self, db):
        from repro.tuner.replay import _install_static_catalog

        catalog = _install_static_catalog(db, seed=0, sample_rows=500)
        log = WorkloadLog(capacity=8)
        log.extend(_grouped_fp("seg_b") for _ in range(8))
        daemon = TuningDaemon(db, log, storage_budget_rows=10_000, seed=0)
        daemon.run_cycle()
        log.extend(_grouped_fp("seg_a") for _ in range(8))  # seg_b goes cold
        report = daemon.run_cycle()
        assert all(e["kind"] != "uniform" for e in report.evicted)
        assert any(
            e.kind == "uniform" and e.source == "manual"
            for e in catalog.samples
        )

    def test_should_retune_fires_on_churn(self, db):
        log = WorkloadLog()
        log.extend(_grouped_fp("seg_a") for _ in range(6))
        daemon = TuningDaemon(db, log, seed=0)
        assert not daemon.should_retune()
        log.extend(_grouped_fp("seg_b") for _ in range(6))
        assert daemon.should_retune()
        assert daemon.maybe_tune() is not None

    def test_build_failures_fail_the_candidate_not_the_cycle(self, db):
        from repro.resilience import FaultInjector, FaultSpec, inject

        log = WorkloadLog()
        log.extend(_grouped_fp("seg_a") for _ in range(4))
        daemon = TuningDaemon(db, log, storage_budget_rows=10_000, seed=0)
        injector = FaultInjector(
            [FaultSpec(site="tuner.build", kind="error")], seed=1
        )
        with inject(injector):
            report = daemon.run_cycle()
        assert report.built == []
        assert [f["key"] for f in report.failed] == [
            "events:stratified:seg_a"
        ]
        # The cycle survives and the next (un-faulted) one succeeds.
        report = daemon.run_cycle()
        assert [b["key"] for b in report.built] == ["events:stratified:seg_a"]


# ----------------------------------------------------------------------
# Stale tuned entries feed the degradation ladder
# ----------------------------------------------------------------------

class TestStaleTunedEntry:
    def test_stale_tuner_entry_served_by_stale_synopsis_rung(self, db):
        log = WorkloadLog()
        log.extend(_scalar_fp() for _ in range(4))
        daemon = TuningDaemon(
            db, log, storage_budget_rows=10_000, sample_fraction=0.2, seed=0
        )
        report = daemon.run_cycle()
        assert any(b["kind"] == "uniform" for b in report.built)
        # The table's content is swapped for one 25% larger: staleness >
        # threshold (an append would have been absorbed by the sample).
        rng = np.random.default_rng(99)
        grow = db.table("events").num_rows // 4
        extra = Table(
            {
                "seg_a": rng.integers(0, 8, grow),
                "seg_b": rng.integers(0, 8, grow),
                "v": rng.exponential(10.0, grow),
                "price": rng.exponential(25.0, grow),
            }
        )
        db.replace_table("events", Table.concat([db.table("events"), extra]))
        engine = ResilientEngine(db, warn_on_degrade=False)
        result = engine.sql(
            "SELECT SUM(v) AS s FROM events",
            options=QueryOptions(
                spec=ErrorSpec(relative_error=0.30, confidence=0.95),
                seed=5,
                technique="offline_sample",
            ),
        )
        assert result.is_degraded
        assert result.provenance[-1]["rung"] == "stale_synopsis"
        exact = float(np.asarray(db.table("events")["v"]).sum())
        low, high = result.ci("s", 0)
        assert low <= exact <= high  # widened bound still covers truth


# ----------------------------------------------------------------------
# The headline: seeded two-phase replay, tuned >= 2x static hit rate
# ----------------------------------------------------------------------

@pytest.mark.slow
class TestReplay:
    def test_tuned_catalog_doubles_hit_rate(self):
        doc = run_tune_replay(seed=0)
        assert doc["static_hit_rate"] > 0  # baseline serves the scalars
        assert doc["improvement"] >= 2.0, doc
        assert doc["tuned"]["tuning_cycles"] > 0

    def test_replay_is_deterministic(self):
        first = run_tune_replay(seed=0, rows=12_000, queries_per_phase=40)
        second = run_tune_replay(seed=0, rows=12_000, queries_per_phase=40)
        assert first == second
        assert first["tuned"]["decisions"]  # tuning actually decided things

    def test_replayed_log_reproduces_decisions(self):
        """Same seed + the *serialized* log ⇒ identical catalog decisions."""
        seed = 0
        live_log = WorkloadLog(capacity=120)
        live_log.extend(_grouped_fp("seg_a") for _ in range(10))
        live_log.extend(_scalar_fp() for _ in range(6))

        def first_cycle(log):
            database = make_replay_database(seed, rows=12_000)
            daemon = TuningDaemon(
                database, log, storage_budget_rows=10_000,
                sample_fraction=0.15, seed=seed,
            )
            return daemon.run_cycle()

        live = first_cycle(live_log)
        replayed_log = WorkloadLog.from_records(
            live_log.to_records(), capacity=120
        )
        replayed = first_cycle(replayed_log)
        assert live.decisions()  # the demand justified at least one build
        assert replayed.decisions() == live.decisions()
        # Identical decisions AND identical sample draws: same seed means
        # the registered entries carry the same row counts.
        assert [b["sample_rows"] for b in replayed.built] == [
            b["sample_rows"] for b in live.built
        ]

    def test_different_seeds_still_clear_the_bar(self):
        doc = run_tune_replay(seed=1)
        assert doc["improvement"] >= 2.0, doc
