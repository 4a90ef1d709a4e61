"""Two-stage pilot-based online AQP with a-priori error guarantees.

This is the survey's "guarantees without precomputation" direction made
concrete. Stage 1 runs a cheap *pilot* query — the user's query rewritten
to (a) block-sample its most expensive table and (b) aggregate per
(group, block) — which yields, for every group and linear aggregate, the
distribution of per-block contributions. Stage 2 solves for the smallest
block-sampling rate whose CLT error bound meets the (confidence-adjusted)
spec, rejects the plan if it would cost more than exact execution, and
runs the rewritten final query. A table too small for any useful stage-2
rate (fewer than ``2 * MIN_FINAL_BLOCKS`` blocks) is refused before the
pilot reads it: the block count alone decides that verdict.

Key statistical ingredients, mirroring what a correct block-sampling
analysis must do:

* the sampling unit is the *block*, so every variance is computed over
  per-block totals (including zero totals for sampled blocks where a
  group did not appear);
* bounds derived from the pilot are probabilistic, so their failure
  probabilities are charged against the user's confidence budget
  (union bound), leaving the final-stage CLT the remainder;
* AVG is planned as a SUM/COUNT ratio with error split via the quotient
  propagation rule; composite SELECT expressions are handled by interval
  arithmetic over per-aggregate CIs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec, chi2_ppf, student_t_ppf, z_value
from ..core.exceptions import InfeasiblePlanError
from ..core.result import ApproximateResult
from ..engine import expressions as E
from ..engine.aggregates import AggregateSpec
from ..engine.optimizer import optimize_plan
from ..engine.plan import (
    GroupByAggregate,
    PlanNode,
    SampleClause,
    attach_sample,
)
from ..engine.table import Table
from ..sql.binder import BoundQuery, BoundTable
from ..storage.cost import block_sample_cost, scan_cost
from .estimation import (
    MIN_SAMPLABLE_ROWS,
    expanded_aggregates,
    require_linear_aggregates,
)

#: Sampling rates above this are rejected: the sampled query would cost
#: about as much as the exact one.
MAX_USEFUL_RATE = 0.5

#: Group-coverage boosts to the pilot rate are capped here; beyond it the
#: pilot itself would cost a sizable fraction of the exact query.
MAX_PILOT_RATE = 0.1

#: Stage 2 always samples at least this many blocks: below ~30 clusters the
#: CLT interval and the between-block variance estimate are both unreliable,
#: so a "cheaper" plan would silently void the guarantee.
MIN_FINAL_BLOCKS = 30


def final_rate_floor(total_blocks: int) -> float:
    """The least rate stage 2 samples at: :data:`MIN_FINAL_BLOCKS` blocks,
    or the whole table when it has fewer."""
    return min(MIN_FINAL_BLOCKS / max(total_blocks, 1), 1.0)


def _require_useful_rate(rate: float) -> None:
    if rate > MAX_USEFUL_RATE:
        raise InfeasiblePlanError(
            f"required sampling rate {rate:.3f} exceeds the useful "
            f"maximum {MAX_USEFUL_RATE}; exact execution is cheaper"
        )


@dataclass
class SamplingPlan:
    """A concrete stage-2 decision."""

    table_name: str
    rate: float
    estimated_cost: float
    exact_cost: float
    pilot_blocks: int
    diagnostics: Dict[str, object] = field(default_factory=dict)


@dataclass
class _GroupStats:
    """Pilot statistics for one (group-key-tuple)."""

    key: Tuple
    #: per simple-aggregate: (mean_block_total, var_block_total, sumsq_ub)
    block_means: Dict[str, float] = field(default_factory=dict)
    block_vars: Dict[str, float] = field(default_factory=dict)
    block_sumsq: Dict[str, float] = field(default_factory=dict)


class PilotPlanner:
    """Plans and executes two-stage approximate aggregation queries."""

    def __init__(
        self,
        database,
        pilot_rate: float = 0.01,
        seed: Optional[int] = None,
    ) -> None:
        if not (0.0 < pilot_rate <= 1.0):
            raise ValueError("pilot_rate must be in (0, 1]")
        self.database = database
        self.pilot_rate = pilot_rate
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, bound: BoundQuery, spec: ErrorSpec) -> ApproximateResult:
        """Full two-stage execution. Raises :class:`InfeasiblePlanError`
        when no profitable sampling plan satisfies the spec."""
        require_linear_aggregates(
            bound,
            "pilot AQP requires an aggregate query",
            "{func} is not a linear aggregate; "
            "sampling cannot bound its error a priori",
        )
        target = self.choose_table(bound)
        plan, pilot_stats_obj = self.plan_sampling(bound, spec, target)
        return self.execute_final(bound, spec, plan, pilot_stats_obj)

    def choose_table(self, bound: BoundQuery) -> BoundTable:
        """Sample the largest scannable table (the scan bottleneck)."""
        candidates = [
            t for t in bound.tables if t.num_rows >= MIN_SAMPLABLE_ROWS
        ]
        if not candidates:
            raise InfeasiblePlanError(
                "no table is large enough for sampling to pay off"
            )
        return max(candidates, key=lambda t: t.num_rows)

    # ------------------------------------------------------------------
    # Stage 1: the pilot
    # ------------------------------------------------------------------
    def plan_sampling(
        self, bound: BoundQuery, spec: ErrorSpec, target: BoundTable
    ) -> Tuple[SamplingPlan, Dict]:
        # The one refusal the block count alone decides: below
        # 2 * MIN_FINAL_BLOCKS blocks even the stage-2 floor exceeds the
        # useful rate, so refuse before the pilot reads anything. No Table
        # is bound here: a later refusal's traceback would keep it alive.
        _require_useful_rate(final_rate_floor(target.num_blocks))
        self._has_group_keys = bool(bound.group_keys)
        self._coverage_best_effort = False
        pilot_rate = self._pilot_rate_for_groups(spec, target)
        pilot_table, sampled_blocks, pilot_cost = self._run_pilot(
            bound, target, pilot_rate
        )
        groups = self._collect_group_stats(bound, pilot_table, sampled_blocks)
        if not groups:
            raise InfeasiblePlanError(
                "pilot sample saw no qualifying rows; the query is too "
                "selective for sampling"
            )
        rate, diagnostics = self._solve_rate(bound, spec, target, groups, sampled_blocks)
        _require_useful_rate(rate)
        table = self.database.table(target.name)
        est_cost = (
            block_sample_cost(table.num_blocks, table.block_size, rate).total
            + pilot_cost
        )
        exact = scan_cost(table.num_blocks, table.num_rows).total
        if est_cost >= exact:
            raise InfeasiblePlanError(
                "sampled plan (including its pilot) costs at least as much "
                "as the exact plan"
            )
        plan = SamplingPlan(
            table_name=target.name,
            rate=rate,
            estimated_cost=est_cost,
            exact_cost=exact,
            pilot_blocks=sampled_blocks,
            diagnostics=diagnostics,
        )
        plan.diagnostics["pilot_cost"] = pilot_cost
        return plan, {"groups": groups, "pilot_rate": pilot_rate}

    def _pilot_rate_for_groups(self, spec: ErrorSpec, target: BoundTable) -> float:
        """Pilot rate high enough that groups of ``min_group_size`` rows
        are present in the pilot with probability ≥ 1 - δ/10.

        A group with g rows occupies ≥ ceil(g/b) blocks; Bernoulli block
        sampling misses all of them w.p. ≤ (1-p)^(g/b), so
        ``p ≥ 1 - δ^(b/g)`` suffices.
        """
        table = self.database.table(target.name)
        # Statistical floor: a pilot should see ~30 blocks for its t/chi2
        # bounds to be meaningful.
        floor = min(30.0 / max(table.num_blocks, 1), 1.0)
        rate = max(self.pilot_rate, floor)
        if not self._has_group_keys:
            return float(min(rate, 1.0))
        delta = spec.failure_probability / 10.0
        blocks_occupied = max(spec.min_group_size / target.block_size, 1.0)
        needed = 1.0 - delta ** (1.0 / blocks_occupied)
        # Groups smaller than a block cannot be guaranteed by block
        # sampling at a useful rate; cap the boost and record best-effort.
        if needed > MAX_PILOT_RATE:
            self._coverage_best_effort = True
            needed = MAX_PILOT_RATE
        return float(min(max(rate, needed), 1.0))

    def _run_pilot(
        self, bound: BoundQuery, target: BoundTable, pilot_rate: float
    ) -> Tuple[Table, int, float]:
        """Execute the rewritten pilot query; returns per-(group, block)
        aggregate rows, the number of blocks the sampler drew, and the
        simulated cost of the pilot pass."""
        sample = SampleClause(
            "system_blocks",
            rate=pilot_rate,
            seed=int(self.rng.integers(0, 2**31)),
        )
        sampled_plan = attach_sample(bound.pre_agg_plan, target.name, sample)
        agg_plan = self._per_block_aggregate_plan(bound, target, sampled_plan)
        table, stats = self.database.execute(
            optimize_plan(agg_plan, self.database), optimize=False
        )
        sampled_blocks = stats.per_table[target.name].blocks_scanned
        pilot_cost = stats.simulated_cost().total
        return table, sampled_blocks, pilot_cost

    def _per_block_aggregate_plan(
        self, bound: BoundQuery, target: BoundTable, child: PlanNode
    ) -> GroupByAggregate:
        """GROUP BY (user keys, block id) computing per-block sub-aggregates
        for every simple aggregate the query needs."""
        block_col = E.Column(f"{target.alias}.__block_id")
        keys = list(bound.group_keys) + [(block_col, "__pilot_block")]
        aggs = []
        for spec in expanded_aggregates(bound):
            aggs.append(spec)
        return GroupByAggregate(child=child, keys=tuple(keys), aggregates=tuple(aggs))

    def _collect_group_stats(
        self, bound: BoundQuery, pilot_table: Table, sampled_blocks: int
    ) -> Dict[Tuple, _GroupStats]:
        """Fold per-(group, block) rows into per-group block statistics.

        Blocks the sampler drew in which a group contributed nothing count
        as zero-valued observations — forgetting them is the classic way
        to underestimate block-sampling variance.
        """
        key_aliases = [alias for _, alias in bound.group_keys]
        agg_aliases = [spec.alias for spec in expanded_aggregates(bound)]
        m = max(sampled_blocks, 1)
        groups: Dict[Tuple, _GroupStats] = {}
        if pilot_table.num_rows == 0:
            return groups
        if key_aliases:
            key_arrays = [pilot_table[a] for a in key_aliases]
            from ..engine.aggregates import encode_groups

            gids, key_tuples = encode_groups(key_arrays)
        else:
            gids = np.zeros(pilot_table.num_rows, dtype=np.int64)
            key_tuples = [()]
        for agg_alias in agg_aliases:
            values = np.asarray(pilot_table[agg_alias], dtype=np.float64)
            sums = np.bincount(gids, weights=values, minlength=len(key_tuples))
            sumsq = np.bincount(
                gids, weights=values * values, minlength=len(key_tuples)
            )
            present = np.bincount(gids, minlength=len(key_tuples))
            for gi, key in enumerate(key_tuples):
                stats = groups.setdefault(key, _GroupStats(key=key))
                # Pad with zeros to all m sampled blocks.
                mean = sums[gi] / m
                var = max(sumsq[gi] / m - mean * mean, 0.0)
                if m > 1:
                    var *= m / (m - 1)
                stats.block_means[agg_alias] = float(mean)
                stats.block_vars[agg_alias] = float(var)
                stats.block_sumsq[agg_alias] = float(sumsq[gi] / m)
        return groups

    # ------------------------------------------------------------------
    # Rate solving
    # ------------------------------------------------------------------
    def _solve_rate(
        self,
        bound: BoundQuery,
        spec: ErrorSpec,
        target: BoundTable,
        groups: Dict[Tuple, _GroupStats],
        pilot_blocks: int,
    ) -> Tuple[float, Dict[str, object]]:
        """Smallest block-sampling rate meeting every per-(group, agg)
        constraint.

        Stage 2 estimates each total as ``B · mean(block totals)`` — the
        self-normalized (ratio) form whose variance depends on the
        *between-block* variance ``σ²`` rather than the raw second moment,
        so nearly-uniform blocks need only a handful of samples. The
        planning inequality is the SRS one::

            z · B · sqrt(σ² (1/m − 1/B)) ≤ ε · |total|

        solved for the number of sampled blocks ``m``. Pilot-derived
        quantities are probabilistic, so the confidence budget is split:

        * δ/4 to the pilot's lower bound on each |total| (Student t),
        * δ/4 to the pilot's upper bound on each σ² (chi-squared),
        * δ/2 to the stage-2 CLT intervals,

        each slice union-bounded across all constraints.
        """
        table = self.database.table(target.name)
        total_blocks = table.num_blocks
        constraints = self._constraints(bound, spec, groups)
        num = max(len(constraints), 1)
        delta = spec.failure_probability
        d_bound = delta / 4.0 / num  # per probabilistic pilot bound
        final_conf = 1.0 - delta / 2.0 / num  # per stage-2 CI
        z_final = z_value(final_conf)
        m = max(pilot_blocks, 2)
        t_crit = student_t_ppf(1.0 - d_bound, m - 1)
        chi2_low = chi2_ppf(d_bound, m - 1)
        worst_rate = 0.0
        binding = None
        for (key, agg_alias, eps) in constraints:
            stats = groups[key]
            mean = stats.block_means[agg_alias]
            var = stats.block_vars[agg_alias]
            # Lower bound on |total| = B * mean (one-sided t interval).
            se_mean = math.sqrt(var / m)
            mean_lb = mean - t_crit * se_mean
            if mean_lb <= 0:
                raise InfeasiblePlanError(
                    f"pilot cannot bound aggregate {agg_alias!r} away from "
                    f"zero for group {key!r}; sampling is infeasible"
                )
            total_lb = total_blocks * mean_lb
            # Upper bound on σ² via chi-squared: (m-1)s²/σ² ~ χ²(m-1).
            if chi2_low <= 0:
                raise InfeasiblePlanError("pilot saw too few blocks")
            var_ub = var * (m - 1) / chi2_low
            if var_ub <= 0:
                continue  # constant blocks: any rate works for this cell
            # Solve z²·B²·σ²·(1/m' − 1/B) ≤ (ε·total_lb)² for m'.
            target_sq = (eps * total_lb / z_final) ** 2
            inv_m = target_sq / (total_blocks * total_blocks * var_ub) + 1.0 / total_blocks
            needed_blocks = 1.0 / inv_m
            rate = max(needed_blocks, MIN_FINAL_BLOCKS) / total_blocks
            if rate > worst_rate:
                worst_rate = rate
                binding = (key, agg_alias, eps, rate)
        diagnostics = {
            "constraints": len(constraints),
            "binding_constraint": binding,
            "z_final": z_final,
            "pilot_blocks": pilot_blocks,
            "coverage_best_effort": self._coverage_best_effort,
        }
        floor = final_rate_floor(total_blocks)
        return float(min(max(worst_rate, floor), 1.0)), diagnostics

    def _constraints(
        self,
        bound: BoundQuery,
        spec: ErrorSpec,
        groups: Dict[Tuple, _GroupStats],
    ) -> List[Tuple[Tuple, str, float]]:
        """(group, simple-agg alias, per-estimate relative error) triples.

        AVG splits its budget across its SUM and COUNT halves with the
        quotient rule; SUM/COUNT take the full per-aggregate budget.
        """
        from ..estimators.propagation import allocate_for_quotient

        out: List[Tuple[Tuple, str, float]] = []
        for key in groups:
            for agg in bound.aggregates:
                if agg.func == "avg":
                    eps = allocate_for_quotient(spec.relative_error)
                    out.append((key, f"{agg.alias}__sum", eps))
                    out.append((key, f"{agg.alias}__count", eps))
                elif agg.func == "sum":
                    out.append((key, f"{agg.alias}__sum", spec.relative_error))
                else:
                    out.append((key, f"{agg.alias}__count", spec.relative_error))
        return out

    # ------------------------------------------------------------------
    # Stage 2: the final query
    # ------------------------------------------------------------------
    def execute_final(
        self,
        bound: BoundQuery,
        spec: ErrorSpec,
        plan: SamplingPlan,
        pilot_info: Dict,
    ) -> ApproximateResult:
        target_alias = next(
            t.alias for t in bound.tables if t.name == plan.table_name
        )
        sample = SampleClause(
            "system_blocks",
            rate=plan.rate,
            seed=int(self.rng.integers(0, 2**31)),
        )
        sampled_plan = attach_sample(bound.pre_agg_plan, plan.table_name, sample)
        block_col = E.Column(f"{target_alias}.__block_id")
        keys = list(bound.group_keys) + [(block_col, "__pilot_block")]
        aggs = expanded_aggregates(bound)
        agg_plan = GroupByAggregate(
            child=sampled_plan, keys=tuple(keys), aggregates=tuple(aggs)
        )
        table, stats = self.database.execute(
            optimize_plan(agg_plan, self.database), optimize=False
        )
        sampled_blocks = stats.per_table[plan.table_name].blocks_scanned
        result = self._assemble_result(
            bound, spec, plan, table, sampled_blocks, stats
        )
        return result

    def _assemble_result(
        self,
        bound: BoundQuery,
        spec: ErrorSpec,
        plan: SamplingPlan,
        per_block: Table,
        sampled_blocks: int,
        stats,
    ) -> ApproximateResult:
        from .estimation import (
            estimate_groups_from_blocks,
            project_output_with_intervals,
        )

        base_table = self.database.table(plan.table_name)
        moments = estimate_groups_from_blocks(
            bound,
            per_block,
            rate=plan.rate,
            sampled_blocks=sampled_blocks,
            total_blocks=base_table.num_blocks,
            expanded_aggs=expanded_aggregates(bound),
        )
        out_table, ci_low, ci_high = project_output_with_intervals(
            bound, spec, moments
        )
        exact = plan.exact_cost
        # The pilot pass is real work; charge it to the approximate plan.
        pilot_cost = float(plan.diagnostics.get("pilot_cost", 0.0))
        approx = stats.simulated_cost().total + pilot_cost
        return ApproximateResult(
            table=out_table,
            stats=stats,
            spec=spec,
            technique="pilot",
            ci_low=ci_low,
            ci_high=ci_high,
            fraction_scanned=stats.fraction_blocks_read,
            approx_cost=approx,
            exact_cost=exact,
            diagnostics={
                "sampling_rate": plan.rate,
                "sampled_table": plan.table_name,
                "pilot_blocks": plan.pilot_blocks,
                **plan.diagnostics,
            },
        )
