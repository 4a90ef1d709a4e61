"""The tuning daemon: applies advisor plans to the catalog.

One :meth:`TuningDaemon.run_cycle` takes a snapshot of the workload log,
asks the :class:`~repro.tuner.advisor.SynopsisAdvisor` for a plan, and
applies it: winning candidates are materialized into the catalog
(through the content-addressed synopsis cache; a failed build fails its
candidate, not the cycle), cold tuner-built entries are evicted,
and the cycle is recorded as a span (``tuner_cycle``) plus metrics
(``tuner_builds``, ``tuner_evictions``, ``synopsis_hit_rate``).

Determinism: the RNG for every build is derived from
``splitmix64(seed, cycle, crc32(candidate.key))`` — no wall clock, no
global RNG — so the same seed over the same replayed log produces
identical catalog decisions *and* identical sample contents.

Entries the daemon built that go stale before the next cycle are not
special-cased away: they stay registered, which means the degradation
ladder's ``stale_synopsis`` rung can still serve from them with honestly
widened bounds until the daemon refreshes them (see
:mod:`repro.resilience.ladder`).
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.exceptions import ReproError
from ..obs.metrics import get_metrics
from ..obs.trace import span
from ..offline.catalog import SampleEntry, SynopsisCatalog
from ..resilience.faults import maybe_fault, splitmix64
from ..sampling.measure_biased import measure_biased_sample
from ..sampling.row import srs_sample
from ..sampling.stratified import stratified_sample
from .advisor import Candidate, SynopsisAdvisor, TuningPlan
from .workload import WorkloadLog

__all__ = ["TuningDaemon", "TuningReport"]

#: :meth:`TuningDaemon.should_retune` fires when group-column churn or
#: the error-contract miss rate crosses these.
DRIFT_CHURN_THRESHOLD = 0.5
DRIFT_MISS_THRESHOLD = 0.2
#: Cadence (seconds) of the background thread; cycles also run early
#: when drift is detected.
INTERVAL_S = 5.0


@dataclass
class TuningReport:
    """What one tuning cycle decided and did."""

    cycle: int
    triggered_by: str  # "interval" | "drift" | "manual"
    built: List[Dict[str, object]] = field(default_factory=list)
    evicted: List[Dict[str, object]] = field(default_factory=list)
    failed: List[Dict[str, object]] = field(default_factory=list)
    deferred: List[Dict[str, object]] = field(default_factory=list)
    column_churn: float = 0.0
    error_miss_rate: float = 0.0
    synopsis_hit_rate: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "cycle": self.cycle,
            "triggered_by": self.triggered_by,
            "built": self.built,
            "evicted": self.evicted,
            "failed": self.failed,
            "deferred": self.deferred,
            "column_churn": round(self.column_churn, 4),
            "error_miss_rate": round(self.error_miss_rate, 4),
            "synopsis_hit_rate": round(self.synopsis_hit_rate, 4),
        }

    def decisions(self) -> List[str]:
        """Stable decision signature (the determinism test's subject)."""
        return (
            [f"build:{b['key']}" for b in self.built]
            + [f"evict:{e['key']}" for e in self.evicted]
            + [f"fail:{f['key']}" for f in self.failed]
        )


class TuningDaemon:
    """Materializes advisor plans into the catalog, cycle by cycle.

    Parameters
    ----------
    database / log:
        What to tune and the evidence to tune from.
    storage_budget_rows / sample_fraction:
        Forwarded to the :class:`SynopsisAdvisor`.
    seed:
        Root of every build RNG (see module docstring).
    """

    def __init__(
        self,
        database,
        log: WorkloadLog,
        storage_budget_rows: int = 50_000,
        sample_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.database = database
        self.log = log
        self.catalog = SynopsisCatalog.for_database(database)
        self.advisor = SynopsisAdvisor(
            database,
            log,
            storage_budget_rows=storage_budget_rows,
            sample_fraction=sample_fraction,
        )
        self.seed = seed
        self.cycle = 0
        self.reports: List[TuningReport] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Drift policy
    # ------------------------------------------------------------------
    def should_retune(self) -> bool:
        """Re-tune early when the workload stopped matching the catalog."""
        return (
            self.log.column_churn() > DRIFT_CHURN_THRESHOLD
            or self.log.error_miss_rate() > DRIFT_MISS_THRESHOLD
        )

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def run_cycle(self, triggered_by: str = "manual") -> TuningReport:
        """Plan against the current log and apply builds/evictions."""
        metrics = get_metrics()
        with self._lock:
            cycle = self.cycle
            self.cycle += 1
        report = TuningReport(
            cycle=cycle,
            triggered_by=triggered_by,
            column_churn=self.log.column_churn(),
            error_miss_rate=self.log.error_miss_rate(),
        )
        with span(
            "tuner_cycle",
            cycle=cycle,
            triggered_by=triggered_by,
            log_size=len(self.log),
        ) as tsp:
            plan = self.advisor.plan()
            for entry in plan.evictions:
                self._evict(entry)
                report.evicted.append(
                    {
                        "key": f"{entry.table}:{entry.kind}",
                        "table": entry.table,
                        "kind": entry.kind,
                    }
                )
                metrics.inc("tuner_evictions", table=entry.table, kind=entry.kind)
            for candidate in plan.builds:
                try:
                    built = self._build(candidate, cycle)
                except ReproError as exc:
                    report.failed.append(
                        {"key": candidate.key, "error": str(exc)}
                    )
                    continue
                report.built.append(
                    {"key": candidate.key, **candidate.to_dict(),
                     "sample_rows": built.storage_rows}
                )
                metrics.inc(
                    "tuner_builds", table=candidate.table, kind=candidate.kind
                )
            report.deferred = [c.to_dict() for c in plan.deferred]
            hit_rate = float(self.catalog.cache_stats().get("hit_rate", 0.0))
            report.synopsis_hit_rate = hit_rate
            metrics.set_gauge("synopsis_hit_rate", hit_rate)
            tsp.set(
                builds=len(report.built),
                evictions=len(report.evicted),
                failures=len(report.failed),
            )
        self.reports.append(report)
        return report

    def maybe_tune(self) -> Optional[TuningReport]:
        """Run a cycle only when drift says the catalog went stale."""
        if not self.should_retune():
            return None
        return self.run_cycle(triggered_by="drift")

    # ------------------------------------------------------------------
    # Builds / evictions
    # ------------------------------------------------------------------
    def _build_seed(self, candidate: Candidate, cycle: int) -> int:
        return splitmix64(
            self.seed, cycle, zlib.crc32(candidate.key.encode())
        ) % (2**31)

    def _build(self, candidate: Candidate, cycle: int) -> SampleEntry:
        """Materialize one candidate; a failed build raises."""
        table_obj = self.database.table(candidate.table)
        build_seed = self._build_seed(candidate, cycle)

        def _sample():
            rng = np.random.default_rng(build_seed)
            if candidate.kind == "uniform":
                return srs_sample(table_obj, candidate.rows, rng=rng)
            if candidate.kind == "stratified":
                return stratified_sample(
                    table_obj,
                    list(candidate.columns)
                    if len(candidate.columns) > 1
                    else candidate.columns[0],
                    total_size=candidate.rows,
                    policy="congress",
                    rng=rng,
                )
            return measure_biased_sample(
                table_obj, candidate.columns[0], candidate.rows, rng=rng
            )

        # Arrive at the hazard point on every build (not just cache
        # misses) so fault schedules see deterministic arrivals.
        maybe_fault("tuner.build")
        sample = self.catalog.cache.get_or_build(
            table_obj,
            kind=f"tuned:{candidate.kind}",
            columns=candidate.columns,
            params={"rows": candidate.rows, "seed": build_seed},
            builder=_sample,
        )
        return self._register(candidate, sample, table_obj.num_rows)

    def _register(
        self, candidate: Candidate, sample, built_at_rows: int
    ) -> SampleEntry:
        """Install (or refresh in place) the tuned entry."""
        strata = (
            (
                candidate.columns[0]
                if len(candidate.columns) == 1
                else tuple(candidate.columns)
            )
            if candidate.kind == "stratified"
            else None
        )
        measure = (
            candidate.columns[0] if candidate.kind == "measure_biased" else None
        )
        for entry in self.catalog.samples:
            if (
                entry.source == "tuner"
                and entry.table == candidate.table
                and entry.kind == candidate.kind
                and entry.strata_column == strata
                and entry.measure_column == measure
                and entry.shard is None
            ):
                entry.sample = sample
                entry.built_at_rows = built_at_rows
                entry.version += 1
                return entry
        entry = SampleEntry(
            table=candidate.table,
            sample=sample,
            kind=candidate.kind,
            strata_column=strata,
            measure_column=measure,
            built_at_rows=built_at_rows,
            source="tuner",
        )
        self.catalog.add_sample(entry)
        return entry

    def _evict(self, entry: SampleEntry) -> None:
        try:
            self.catalog.samples.remove(entry)
        except ValueError:
            pass  # already gone (concurrent cycle); eviction is idempotent

    # ------------------------------------------------------------------
    # Background operation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run cycles on :data:`INTERVAL_S` cadence (drift checks between)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-tuner", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _loop(self) -> None:
        # Check for drift at a finer grain than the full-cycle cadence so
        # a phase shift is answered within ~interval/5, not a full period.
        tick = max(INTERVAL_S / 5.0, 0.05)
        elapsed = 0.0
        while not self._stop.wait(timeout=tick):
            elapsed += tick
            if elapsed >= INTERVAL_S:
                self.run_cycle(triggered_by="interval")
                elapsed = 0.0
            elif self.should_retune():
                self.run_cycle(triggered_by="drift")
                elapsed = 0.0
