"""Workload-adaptive synopsis tuning.

The survey's "no silver bullet" verdict cuts hardest at offline AQP:
precomputed samples and sketches only pay off when they match the
*observed* workload, and someone has to keep choosing them as the
workload drifts. Historically that someone was the operator — the
catalog in :mod:`repro.offline` was populated by hand and never learned
from the query log. This package closes the loop:

* :class:`~repro.tuner.workload.WorkloadLog` ingests one
  :class:`~repro.tuner.workload.QueryFingerprint` per served query
  (table, predicate columns, group-by columns, aggregate family,
  achieved vs. requested error) from every ``sql()`` front door — they
  all speak :class:`~repro.core.options.QueryOptions`, so fingerprints
  are uniform no matter which door the query walked through.
* :class:`~repro.tuner.advisor.SynopsisAdvisor` scores candidate
  synopses (uniform / stratified / measure-biased samples) against the
  logged demand under a storage budget, using the cost model in
  :mod:`repro.storage.cost` and the observed miss counters of the
  content-addressed :mod:`repro.storage.synopsis_cache`.
* :class:`~repro.tuner.daemon.TuningDaemon` materializes the winners
  into the :class:`~repro.offline.catalog.SynopsisCatalog`
  (deadline-scoped, circuit-breaker-wrapped builds, like every other
  synopsis build), evicts cold tuner-built entries, and re-tunes when
  the log shows drift — column-set churn or error-contract misses.
  Tuner-built entries that go stale before the next cycle feed the
  degradation ladder's existing ``stale_synopsis`` rung (served with
  honestly widened bounds) rather than vanishing.
* :mod:`~repro.tuner.replay` replays a seeded two-phase workload so
  tuning decisions are testable and ``python -m repro tune`` can
  narrate the adaptivity win end to end.

Everything is deterministic under a seed: same seed + same replayed log
⇒ identical catalog decisions.
"""

from .advisor import Candidate, SynopsisAdvisor, TuningPlan
from .daemon import TuningDaemon, TuningReport
from .replay import ReplayReport, run_tune_replay, two_phase_workload
from .workload import (
    QueryFingerprint,
    WorkloadLog,
    fingerprint_query,
    get_workload_log,
    install_workload_log,
    observe_query,
)

__all__ = [
    "Candidate",
    "QueryFingerprint",
    "ReplayReport",
    "SynopsisAdvisor",
    "TuningDaemon",
    "TuningPlan",
    "TuningReport",
    "WorkloadLog",
    "fingerprint_query",
    "get_workload_log",
    "install_workload_log",
    "observe_query",
    "run_tune_replay",
    "two_phase_workload",
]
