"""Quickr-style query-time sampling (lazy approximation).

Quickr's deal, per the survey: zero precomputation, at most one pass over
the data, samplers *injected into the plan* at optimization time using
plan statistics — and in exchange, only a-posteriori error estimates (the
system reports the error it achieved; it cannot promise one upfront).

Our reimplementation keeps the decision structure:

* the sampler goes on the largest input (deepest, so one pass suffices);
* the **uniform** sampler is the default; the **distinct** sampler is
  chosen when the query groups by columns of the sampled table whose
  group count is large enough that uniform sampling would lose groups
  (Quickr's "sampler dominance" escape hatch for group coverage);
* the sampler is a *scan directive*: a ``SampleClause`` on the target's
  ``Scan``, executed inside the one fused pass, which exposes each kept
  row's Horvitz–Thompson weight as a hidden ``__weight`` column — the
  row-level mirror of the pilot planner's ``system_blocks`` clause and
  its ``__block_id`` column. The same pass folds the per-group HT
  moments, so no sampled relation is materialized or registered.

Cost accounting is what that pass measured: every row of the sampled
table read once, the kept rows flowing on — which is why Quickr's
speedups are real but bounded, one of the trade-offs experiment E9
measures.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec
from ..core.exceptions import InfeasiblePlanError
from ..core.result import (
    ApproximateResult,
    claimed_relative_error,
    max_relative_half_width,
)
from ..engine.executor import ExecutionStats
from ..engine.plan import SampleClause, attach_sample
from ..engine.table import Table
from ..sql.binder import BoundQuery, BoundTable
from ..storage.blocks import WEIGHT_COLUMN
from ..storage.cost import aggregation_cost, scan_cost
from .estimation import (
    MIN_SAMPLABLE_ROWS,
    group_columns_on,
    moment_aggregate,
    project_output_with_intervals,
    require_linear_aggregates,
)

#: Default sampling rate when the spec does not force more data. Quickr
#: picks rates from plan statistics; 10% matches its published default.
DEFAULT_RATE = 0.1

#: Use the distinct sampler once the group-by column(s) exceed this many
#: distinct values on the sampled table.
DISTINCT_SAMPLER_NDV_THRESHOLD = 50

#: Rows the distinct sampler keeps outright per group-by value combination.
DISTINCT_SAMPLER_CAP = 10

_SAMPLER_NAMES = {"bernoulli_rows": "uniform", "distinct_rows": "distinct"}


class QuickrPlanner:
    """Injects a sampler into the query plan and estimates a-posteriori."""

    def __init__(
        self,
        database,
        rate: float = DEFAULT_RATE,
        seed: Optional[int] = None,
    ) -> None:
        if not (0.0 < rate <= 1.0):
            raise ValueError("rate must be in (0, 1]")
        self.database = database
        self.rate = rate
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def run(self, bound: BoundQuery, spec: ErrorSpec) -> ApproximateResult:
        require_linear_aggregates(
            bound,
            "Quickr requires an aggregate query",
            "Quickr cannot sample through {func}",
        )
        target = self.choose_table(bound)
        sample = self._choose_sampler(bound, target)
        moments, stats = self.database.execute(
            moment_aggregate(
                bound,
                attach_sample(bound.pre_agg_plan, target.name, sample),
                f"{target.alias}.{WEIGHT_COLUMN}",
            )
        )
        out_table, ci_low, ci_high = project_output_with_intervals(
            bound, spec, moments
        )
        base = self.database.table(target.name)
        exact_cost = (
            scan_cost(base.num_blocks, base.num_rows).total
            + aggregation_cost(base.num_rows).total
        )
        return ApproximateResult(
            table=out_table,
            stats=stats,
            # the a-posteriori answer states what its widest cell achieved
            spec=replace(
                spec,
                relative_error=claimed_relative_error(
                    spec.relative_error, out_table, ci_low, ci_high
                ),
            ),
            technique="quickr",
            ci_low=ci_low,
            ci_high=ci_high,
            fraction_scanned=stats.fraction_blocks_read,
            approx_cost=stats.simulated_cost().total,
            exact_cost=exact_cost,
            diagnostics={
                "sampler": _SAMPLER_NAMES[sample.method],
                "rate": self.rate,
                "sampled_table": target.name,
                "sample_rows": stats.per_table[target.name].rows_returned,
                # did the a-posteriori CIs come in under the requested error?
                "met_spec": max_relative_half_width(out_table, ci_low, ci_high)
                <= spec.relative_error,
                "guarantee": "a_posteriori",
            },
        )

    # ------------------------------------------------------------------
    def choose_table(self, bound: BoundQuery) -> BoundTable:
        candidates = [t for t in bound.tables if t.num_rows >= MIN_SAMPLABLE_ROWS]
        if not candidates:
            raise InfeasiblePlanError("all inputs are too small to sample")
        return max(candidates, key=lambda t: t.num_rows)

    def _choose_sampler(self, bound: BoundQuery, target: BoundTable) -> SampleClause:
        seed = int(self.rng.integers(0, 2**31))
        group_cols = group_columns_on(bound, target.alias)
        if group_cols:
            stats = self.database.stats(target.name)
            ndv = 1
            for c in group_cols:
                col = stats.column(c)
                ndv *= col.num_distinct if col else 1
            if ndv >= DISTINCT_SAMPLER_NDV_THRESHOLD:
                return SampleClause(
                    "distinct_rows",
                    rate=self.rate,
                    seed=seed,
                    columns=tuple(group_cols),
                    cap=DISTINCT_SAMPLER_CAP,
                )
        return SampleClause("bernoulli_rows", rate=self.rate, seed=seed)

    # ------------------------------------------------------------------
    def sampled_relation(
        self, bound: BoundQuery, target: BoundTable
    ) -> Tuple[Table, np.ndarray, ExecutionStats, str]:
        """The weighted pre-aggregation relation at full width, in one
        pass — what the reuse cache keeps for queries yet to come.

        Runs the query's joins and filters with the sampler attached to
        the target's scan and returns ``(relation, weights, stats,
        sampler name)``.
        """
        sample = self._choose_sampler(bound, target)
        relation, stats = self.database.execute(
            attach_sample(bound.pre_agg_plan, target.name, sample)
        )
        weights = relation[f"{target.alias}.{WEIGHT_COLUMN}"]
        return relation, weights, stats, _SAMPLER_NAMES[sample.method]
