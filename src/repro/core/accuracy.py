"""Accuracy evaluation harness.

Utilities for auditing an AQP configuration the way the benchmarks do:
run a query approximately many times, compare every cell against the
exact answer, and report whether the error specification's *joint*
semantics actually held. Used by the test suite and benchmarks, and
useful to library users validating their own workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec
from ..core.options import QueryOptions
from ..core.result import ApproximateResult, QueryResult


@dataclass
class CellComparison:
    """One approximate cell against its exact counterpart."""

    alias: str
    key: Tuple
    approximate: float
    exact: float

    @property
    def relative_error(self) -> float:
        if self.exact == 0:
            return 0.0 if self.approximate == 0 else math.inf
        return abs(self.approximate - self.exact) / abs(self.exact)


@dataclass
class TrialOutcome:
    """One approximate run audited against the exact answer."""

    technique: str
    cells: List[CellComparison]
    missing_groups: int
    extra_groups: int
    fell_back_to_exact: bool = False

    @property
    def max_relative_error(self) -> float:
        if self.fell_back_to_exact:
            return 0.0
        if self.missing_groups or self.extra_groups:
            return math.inf
        return max((c.relative_error for c in self.cells), default=0.0)

    def within(self, spec: ErrorSpec) -> bool:
        return self.max_relative_error <= spec.relative_error


@dataclass
class GuaranteeReport:
    """Aggregate outcome of repeated audited runs."""

    spec: ErrorSpec
    trials: int
    violations: int
    outcomes: List[TrialOutcome] = field(default_factory=list)

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials if self.trials else 0.0

    @property
    def holds(self) -> bool:
        """Is the empirical violation rate consistent with the spec?

        Accepts iff the number of non-violating trials reaches the exact
        one-sided binomial acceptance bound for the claimed confidence
        (see :func:`repro.audit.acceptance.coverage_lower_bound`), so
        small trial counts get a statistically proper tolerance instead
        of a heuristic slack.
        """
        from ..audit.acceptance import coverage_lower_bound

        if not self.trials:
            return True
        hits = self.trials - self.violations
        return hits >= coverage_lower_bound(self.trials, self.spec.confidence)

    def max_observed_error(self) -> float:
        finite = [
            o.max_relative_error
            for o in self.outcomes
            if math.isfinite(o.max_relative_error)
        ]
        return max(finite, default=0.0)


def compare_results(
    approx,
    exact: QueryResult,
) -> TrialOutcome:
    """Audit one result (approximate or fallback-exact) cell by cell."""
    if not getattr(approx, "is_approximate", False):
        return TrialOutcome(
            technique="exact",
            cells=[],
            missing_groups=0,
            extra_groups=0,
            fell_back_to_exact=True,
        )
    assert isinstance(approx, ApproximateResult)
    agg_aliases = list(approx.ci_low) or [
        c for c in approx.table.column_names if c in exact.table
    ]
    key_cols = [c for c in approx.table.column_names if c not in agg_aliases]
    exact_rows = {
        tuple(r[k] for k in key_cols): r for r in exact.table.to_pylist()
    }
    cells: List[CellComparison] = []
    extra = 0
    seen_keys = set()
    for row in approx.table.to_pylist():
        key = tuple(row[k] for k in key_cols)
        seen_keys.add(key)
        truth = exact_rows.get(key)
        if truth is None:
            extra += 1
            continue
        for alias in agg_aliases:
            cells.append(
                CellComparison(
                    alias=alias,
                    key=key,
                    approximate=float(row[alias]),
                    exact=float(truth[alias]),
                )
            )
    missing = len(set(exact_rows) - seen_keys)
    return TrialOutcome(
        technique=approx.technique,
        cells=cells,
        missing_groups=missing,
        extra_groups=extra,
    )


def audit_query(
    database,
    sql: str,
    spec: ErrorSpec,
    trials: int = 10,
    seed: int = 0,
    technique: Optional[str] = None,
) -> GuaranteeReport:
    """Run ``sql`` approximately ``trials`` times and audit each run.

    The SQL string must *not* carry its own ERROR clause; the spec is
    passed programmatically so the exact reference uses the same text.
    """
    from .session import AQPEngine

    engine = AQPEngine(database)
    exact = engine.sql(sql)
    outcomes: List[TrialOutcome] = []
    violations = 0
    for trial in range(trials):
        result = engine.sql(
            sql,
            options=QueryOptions(
                spec=spec, seed=seed + trial, technique=technique
            ),
        )
        outcome = compare_results(result, exact)
        outcomes.append(outcome)
        if not outcome.within(spec):
            violations += 1
    return GuaranteeReport(
        spec=spec, trials=trials, violations=violations, outcomes=outcomes
    )
