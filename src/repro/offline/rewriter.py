"""Query rewriting onto precomputed samples (the AQUA/VerdictDB move).

Given a bound aggregate query, the rewriter asks the catalog for a sample
that covers it, folds the query's HT moments over the sample rows in one
pass with the WHERE as its filter (their HT weights make every linear
aggregate unbiased), and checks *before answering* whether the resulting CIs meet the error spec — if
they cannot, it refuses and the advisor moves on. That refusal is the
honest version of offline AQP's a-priori guarantee: the guarantee only
exists when the precomputed sample happens to be big and relevant enough.

Coverage rules (deliberately conservative, as in the real systems):

* single-table queries: a fresh sample of that table, stratified on the
  group-by column when the query groups;
* FK-join queries: a join synopsis of the largest (fact) table covering
  every joined dimension.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec
from ..core.exceptions import InfeasiblePlanError
from ..core.result import ApproximateResult, max_relative_half_width
from ..engine.executor import ExecutionStats
from ..engine.fused import SliceRelation
from ..online.estimation import (
    ROWS_COLUMN,
    estimate_groups_row_level,
    group_columns_on,
    project_output_with_intervals,
    require_linear_aggregates,
)
from ..sql.binder import BoundQuery
from ..storage.cost import aggregation_cost, scan_cost
from .catalog import STALENESS_THRESHOLD, SynopsisCatalog


class OfflineRewriter:
    """Answers queries from catalog samples when coverage allows."""

    def __init__(self, database) -> None:
        self.database = database
        self.catalog = SynopsisCatalog.for_database(database)

    # ------------------------------------------------------------------
    def run(
        self, bound: BoundQuery, spec: ErrorSpec, seed: Optional[int] = None
    ) -> ApproximateResult:
        require_linear_aggregates(
            bound,
            "offline samples answer aggregates only",
            "offline samples cannot answer {func}",
        )
        sample, weights, provenance = self._find_covering_sample(bound)
        where = bound.where.columns() if bound.where is not None else ()
        missing = [c for c in where if c not in sample]
        if missing:
            raise InfeasiblePlanError(f"sample does not carry predicate columns {missing}")
        moments = estimate_groups_row_level(bound, sample, weights, bound.where)
        if moments.num_rows == 0:
            raise InfeasiblePlanError("the precomputed sample has no matching rows")
        out_table, ci_low, ci_high = project_output_with_intervals(
            bound, spec, moments
        )
        # A-priori gate: refuse if any CI is wider than the spec allows.
        for alias in ci_low:
            worst = max_relative_half_width(
                out_table, {alias: ci_low[alias]}, {alias: ci_high[alias]}
            )
            if worst > spec.relative_error:
                raise InfeasiblePlanError(
                    f"precomputed sample is too small for ±"
                    f"{spec.relative_error:.1%} on {alias!r}"
                )
        # The WHERE reads every sample row; the fold aggregates those it keeps.
        stats = ExecutionStats()
        stats.rows_scanned = sample.num_rows
        stats.agg_input_rows = int(moments[ROWS_COLUMN].sum())
        approx_cost = (
            scan_cost(max(stats.rows_scanned // 1024, 1), stats.rows_scanned).total
            + aggregation_cost(stats.agg_input_rows).total
        )
        exact_cost = self._exact_cost(bound)
        return ApproximateResult(
            table=out_table,
            stats=stats,
            spec=spec,
            technique="offline_sample",
            ci_low=ci_low,
            ci_high=ci_high,
            fraction_scanned=0.0,  # no base-table blocks touched
            approx_cost=approx_cost,
            exact_cost=exact_cost,
            diagnostics=provenance,
        )

    # ------------------------------------------------------------------
    def _find_covering_sample(
        self, bound: BoundQuery
    ) -> Tuple[SliceRelation, np.ndarray, Dict[str, object]]:
        """Locate a covering synopsis and present it, uncopied, under the
        query's qualified column names, with its rows' weights."""
        if len(bound.tables) == 1:
            target = bound.tables[0]
            group_cols = group_columns_on(bound, target.alias)
            if group_cols is None:
                raise InfeasiblePlanError(
                    "offline samples only cover group-bys on base columns"
                )
            entry = self.catalog.find_sample(
                target.name, group_columns=group_cols
            )
            if entry is None:
                raise InfeasiblePlanError(
                    f"no fresh covering sample for table {target.name!r}"
                )
            table = entry.sample.table
            mapping = {c: f"{target.alias}.{c}" for c in table.column_names}
            qualified = SliceRelation(table, 0, table.num_rows, mapping)
            return qualified, entry.sample.weights, {
                "synopsis": entry.kind,
                "table": entry.table,
                "strata_column": entry.strata_column,
                "sample_rows": entry.storage_rows,
                "version": entry.version,
            }
        # Multi-table: try a join synopsis rooted at the largest table.
        fact = max(bound.tables, key=lambda t: t.num_rows)
        dims = [t.name for t in bound.tables if t.name != fact.name]
        synopsis = self.catalog.find_join_synopsis(fact.name, dims)
        if synopsis is None:
            raise InfeasiblePlanError(
                f"no join synopsis covers fact {fact.name!r} with dimensions {dims}"
            )
        if (
            abs(
                self.database.table(fact.name).num_rows - synopsis.built_at_rows
            )
            / max(synopsis.built_at_rows, 1)
            > STALENESS_THRESHOLD
        ):
            raise InfeasiblePlanError("join synopsis is stale")
        qualified = self._qualify_join_synopsis(bound, synopsis, fact.alias)
        return qualified, synopsis.sample.weights, {
            "synopsis": "join_synopsis",
            "fact_table": fact.name,
            "dimensions": dims,
            "sample_rows": synopsis.sample.num_rows,
        }

    def _qualify_join_synopsis(
        self, bound: BoundQuery, synopsis, fact_alias: str
    ) -> SliceRelation:
        """Rename synopsis columns to the query's qualified names.

        The synopsis stores fact columns bare and dimension columns as
        ``<dimension>.<col>``; the query wants ``<alias>.<col>`` per the
        FROM-clause aliases.
        """
        alias_of = {t.name: t.alias for t in bound.tables}
        table = synopsis.sample.table
        mapping: Dict[str, str] = {}
        for col in table.column_names:
            if "." in col:
                dim, raw = col.split(".", 1)
                mapping[col] = f"{alias_of.get(dim, dim)}.{raw}"
            else:
                mapping[col] = f"{fact_alias}.{col}"
        return SliceRelation(table, 0, table.num_rows, mapping)

    def _exact_cost(self, bound: BoundQuery) -> float:
        total = 0.0
        for t in bound.tables:
            table = self.database.table(t.name)
            total += scan_cost(table.num_blocks, table.num_rows).total
        biggest = max(
            (self.database.table(t.name).num_rows for t in bound.tables),
            default=0,
        )
        total += aggregation_cost(biggest).total
        return total
