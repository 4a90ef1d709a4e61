"""Statistical guarantee-audit subsystem.

The paper's thesis is that AQP schemes trade generality, speedup, and
*a-priori error guarantees* against each other — so a reproduction must
be able to check, empirically, that the guarantees each estimator claims
actually hold. This package provides that check:

* :mod:`~repro.audit.acceptance` — shared binomial/CLT acceptance bands,
  so coverage audits accept/reject with proper statistical tolerances
  instead of hard-coded thresholds (and the whole test suite can reuse
  them);
* :mod:`~repro.audit.doors` — the one door runner: a
  :class:`~repro.audit.doors.DoorRow` sends a query through a ``sql()``
  door and scores it against the same door's exact twin;
* :mod:`~repro.audit.paths` — the registry: one door row per served
  (entry, door) pair, plus the estimator-level paths (library samplers,
  Sample+Seek, OLA, ripple join, sketches, histograms, wavelets);
* :mod:`~repro.audit.runner` — repeated-trial coverage audits: N seeded
  trials per (estimator, query, confidence), hit counts against the
  claimed coverage, and a verdict from the binomial band;
* :mod:`~repro.audit.report` — ``audit/AUDIT_report.json`` serialization
  plus the regression diff against the committed baseline.

Entry points: ``python -m repro audit [--smoke]`` and
``pytest -m audit``.
"""

from .acceptance import (
    binomial_acceptance_band,
    binomial_cdf,
    chi2_upper_bound,
    coverage_lower_bound,
    coverage_verdict,
    mc_mean_band,
    mc_mean_within,
    within_sigma,
)
from .doors import DoorRow, TrialResult, score
from .paths import AuditContext, AuditPath, build_paths
from .report import (
    AUDIT_BASELINE_JSON,
    AUDIT_REPORT_JSON,
    diff_against_baseline,
    load_report,
    write_report,
)
from .runner import audit_one, run_audit

__all__ = [
    "AUDIT_BASELINE_JSON",
    "AUDIT_REPORT_JSON",
    "AuditContext",
    "AuditPath",
    "DoorRow",
    "TrialResult",
    "audit_one",
    "binomial_acceptance_band",
    "binomial_cdf",
    "build_paths",
    "chi2_upper_bound",
    "coverage_lower_bound",
    "coverage_verdict",
    "diff_against_baseline",
    "load_report",
    "mc_mean_band",
    "mc_mean_within",
    "run_audit",
    "score",
    "within_sigma",
    "write_report",
]
