"""Seeded workload replay: the tuner's test and demo harness.

The classic failure mode of offline AQP is a *phase shift*: a catalog
tuned for yesterday's group-by columns answers nothing about today's.
:func:`two_phase_workload` generates exactly that — a seeded stream of
scalar and grouped aggregate queries whose group-by column flips from
``seg_a`` to ``seg_b`` at the halfway mark — and :func:`run_tune_replay`
replays it twice over identical data:

* **static**: the hand-built catalog (one uniform sample, the
  historical default) serves what it can;
* **tuned**: a :class:`~repro.tuner.daemon.TuningDaemon` watches the
  workload log and re-tunes every ``tune_every`` queries.

The comparison metric is the **synopsis hit rate**: the fraction of
replayed queries answered from an offline synopsis (technique
``offline_sample``) rather than falling back to query-time sampling.
Everything is seeded — same seed ⇒ same workload, same sample draws,
same tuning decisions — so the ≥2x adaptivity win is a deterministic
test assertion, not a benchmark anecdote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.options import QueryOptions
from ..engine.database import Database
from ..offline.catalog import SampleEntry, SynopsisCatalog
from ..resilience.faults import splitmix64
from ..sampling.row import srs_sample
from .daemon import TuningDaemon
from .workload import WorkloadLog, install_workload_log

__all__ = [
    "ReplayReport",
    "make_replay_database",
    "two_phase_workload",
    "run_replay",
    "run_tune_replay",
]

#: spec attached to every replayed query — loose enough that a tuner-
#: sized stratified sample (~375 rows per stratum over 8 groups) answers
#: per-group SUMs of exponential data (~20% half-width), so the hit-rate
#: comparison measures *coverage*, not sample size. The static baseline
#: misses grouped queries structurally (a uniform sample never serves a
#: group-by), so the loose spec does not help it.
_ERROR_CLAUSE = "ERROR WITHIN 30% CONFIDENCE 95%"


def make_replay_database(seed: int = 0, rows: int = 20_000) -> Database:
    """An ``events`` table with two alternative segmentation columns."""
    rng = np.random.default_rng(seed)
    db = Database()
    db.create_table(
        "events",
        {
            "seg_a": rng.integers(0, 8, rows),
            "seg_b": rng.integers(0, 8, rows),
            "v": rng.exponential(10.0, rows),
            "price": rng.exponential(25.0, rows),
        },
    )
    return db


def two_phase_workload(
    seed: int = 0,
    queries_per_phase: int = 60,
    scalar_fraction: float = 0.4,
) -> List[str]:
    """Two phases of mixed scalar / grouped queries with a column shift.

    Phase 1 groups by ``seg_a``, phase 2 by ``seg_b``; a
    ``scalar_fraction`` share of each phase is ungrouped SUM/COUNT
    traffic (servable by a plain uniform sample — the part a static
    catalog gets right).
    """
    rng = np.random.default_rng(splitmix64(seed, 0x5EED))
    queries: List[str] = []
    for phase, seg in enumerate(("seg_a", "seg_b")):
        for _ in range(queries_per_phase):
            if rng.random() < scalar_fraction:
                agg = "SUM(v) AS s" if rng.random() < 0.5 else "COUNT(*) AS c"
                queries.append(f"SELECT {agg} FROM events {_ERROR_CLAUSE}")
            else:
                queries.append(
                    f"SELECT {seg}, SUM(v) AS s FROM events "
                    f"GROUP BY {seg} {_ERROR_CLAUSE}"
                )
    return queries


@dataclass
class ReplayReport:
    """Outcome of one replayed workload."""

    total: int = 0
    served: int = 0
    offline_hits: int = 0
    refused: int = 0
    techniques: Dict[str, int] = field(default_factory=dict)
    tuning: List[Dict[str, object]] = field(default_factory=list)
    #: flat decision log across all cycles (the determinism subject)
    decisions: List[str] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        """Fraction of served queries answered from an offline synopsis."""
        return self.offline_hits / self.served if self.served else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "served": self.served,
            "offline_hits": self.offline_hits,
            "refused": self.refused,
            "hit_rate": round(self.hit_rate, 4),
            "techniques": dict(sorted(self.techniques.items())),
            "tuning_cycles": len(self.tuning),
            "decisions": list(self.decisions),
        }


def run_replay(
    database: Database,
    queries: List[str],
    seed: int = 0,
    daemon: Optional[TuningDaemon] = None,
    tune_every: int = 20,
) -> ReplayReport:
    """Replay ``queries`` against ``database``, optionally tuning.

    With a ``daemon``, its workload log must already be installed as the
    global observation hook (see :func:`run_tune_replay`); every
    ``tune_every`` queries the daemon runs a cycle (drift-triggered when
    its thresholds say so, cadence otherwise) — the synchronous stand-in
    for the background thread, so replays are deterministic.
    """
    report = ReplayReport()
    for index, query in enumerate(queries):
        report.total += 1
        options = QueryOptions(seed=splitmix64(seed, 1 + index))
        try:
            result = database.sql(query, options=options)
        except Exception:
            report.refused += 1
            continue
        report.served += 1
        technique = str(getattr(result, "technique", "exact"))
        report.techniques[technique] = report.techniques.get(technique, 0) + 1
        if technique == "offline_sample":
            report.offline_hits += 1
        if daemon is not None and (index + 1) % tune_every == 0:
            cycle = (
                daemon.run_cycle(triggered_by="drift")
                if daemon.should_retune()
                else daemon.run_cycle(triggered_by="interval")
            )
            report.tuning.append(cycle.to_dict())
            report.decisions.extend(cycle.decisions())
    return report


def _install_static_catalog(
    database: Database, seed: int, sample_rows: int = 2_000
) -> SynopsisCatalog:
    """The hand-built baseline: one uniform sample over ``events``."""
    catalog = SynopsisCatalog.for_database(database)
    table = database.table("events")
    rng = np.random.default_rng(splitmix64(seed, 0xCA7A106))
    catalog.add_sample(
        SampleEntry(
            table="events",
            sample=srs_sample(table, sample_rows, rng=rng),
            kind="uniform",
            built_at_rows=table.num_rows,
            source="manual",
        )
    )
    return catalog


def run_tune_replay(
    seed: int = 0,
    rows: int = 20_000,
    queries_per_phase: int = 60,
    tune_every: int = 15,
    storage_budget_rows: int = 10_000,
) -> Dict[str, object]:
    """Static-vs-tuned comparison on the two-phase workload.

    Returns both replay reports plus the headline ``improvement`` factor
    (tuned hit rate / static hit rate). Restores the global workload-log
    hook on exit.
    """
    queries = two_phase_workload(seed, queries_per_phase=queries_per_phase)

    static_db = make_replay_database(seed, rows=rows)
    _install_static_catalog(static_db, seed)
    static = run_replay(static_db, queries, seed=seed)

    tuned_db = make_replay_database(seed, rows=rows)
    _install_static_catalog(tuned_db, seed)
    log = WorkloadLog(capacity=4 * queries_per_phase)
    daemon = TuningDaemon(
        tuned_db,
        log,
        storage_budget_rows=storage_budget_rows,
        sample_fraction=0.15,
        seed=seed,
    )
    previous = install_workload_log(log)
    try:
        tuned = run_replay(
            tuned_db, queries, seed=seed, daemon=daemon, tune_every=tune_every
        )
    finally:
        install_workload_log(previous)

    static_rate = static.hit_rate
    tuned_rate = tuned.hit_rate
    improvement = tuned_rate / static_rate if static_rate else float("inf")
    return {
        "seed": seed,
        "queries": len(queries),
        "static": static.to_dict(),
        "tuned": tuned.to_dict(),
        "static_hit_rate": round(static_rate, 4),
        "tuned_hit_rate": round(tuned_rate, 4),
        "improvement": round(improvement, 4),
    }
