"""Result/sample reuse across queries (the IDEA direction).

Interactive exploration sessions fire *related* queries: same FROM/WHERE,
different aggregates or group-bys. Galakatos et al.'s IDEA observed that
the expensive part — producing a weighted sample of the filtered, joined
relation — can be cached and reused: any linear aggregate over the same
relation re-estimates from the cached sample for (almost) free.

:class:`ReuseCache` implements that: the first query against a given
(tables, predicate) signature pays for a Quickr-style sampled execution
and caches the weighted pre-aggregation relation; subsequent queries with
the same signature — regardless of their SELECT list or GROUP BY — are
answered from the cache without touching the base tables. Populating an
entry is the same single sampled pass a Quickr query makes, kept at full
width; the catalog is never written to. Entries are
invalidated when any underlying table changes size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec
from ..core.result import ApproximateResult
from ..engine.executor import ExecutionStats
from ..engine.table import Table
from ..sql.binder import BoundQuery, bind_sql
from ..storage.cost import scan_cost
from .estimation import (
    estimate_groups_row_level,
    project_output_with_intervals,
    require_linear_aggregates,
)
from .quickr import QuickrPlanner


@dataclass
class CacheEntry:
    """One cached weighted relation."""

    relation: Table
    weights: np.ndarray
    table_versions: Tuple[Tuple[str, int], ...]
    source_technique: str
    hits: int = 0


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ReuseCache:
    """Sample-reuse layer over the online planners."""

    def __init__(
        self,
        database,
        rate: float = 0.1,
        max_entries: int = 32,
        seed: Optional[int] = None,
    ) -> None:
        self.database = database
        self.rate = rate
        self.max_entries = max_entries
        self.seed = seed
        self._entries: Dict[Tuple, CacheEntry] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def sql(self, query: str, spec: ErrorSpec) -> ApproximateResult:
        bound = bind_sql(query, self.database)
        return self.run(bound, spec)

    def run(self, bound: BoundQuery, spec: ErrorSpec) -> ApproximateResult:
        require_linear_aggregates(
            bound,
            "reuse cache answers aggregates only",
            "cannot reuse samples for {func}",
        )
        key = self._signature(bound)
        self.stats.lookups += 1
        entry = self._entries.get(key)
        if entry is not None and not self._is_stale(entry):
            entry.hits += 1
            self.stats.hits += 1
            return self._answer_from_entry(bound, spec, entry)
        if entry is not None:
            self.stats.invalidations += 1
            del self._entries[key]
        return self._populate_and_answer(bound, spec, key)

    # ------------------------------------------------------------------
    def _signature(self, bound: BoundQuery) -> Tuple:
        """(tables, predicate) identity — everything the SELECT list and
        GROUP BY do *not* affect."""
        tables = tuple(sorted((t.name, t.alias) for t in bound.tables))
        where = repr(bound.where) if bound.where is not None else ""
        return (tables, where)

    def _versions(self, bound: BoundQuery) -> Tuple[Tuple[str, int], ...]:
        return tuple(
            sorted((t.name, self.database.table(t.name).num_rows) for t in bound.tables)
        )

    def _is_stale(self, entry: CacheEntry) -> bool:
        for name, rows in entry.table_versions:
            if not self.database.has_table(name):
                return True
            if self.database.table(name).num_rows != rows:
                return True
        return False

    # ------------------------------------------------------------------
    def _populate_and_answer(
        self, bound: BoundQuery, spec: ErrorSpec, key: Tuple
    ) -> ApproximateResult:
        planner = QuickrPlanner(self.database, rate=self.rate, seed=self.seed)
        target = planner.choose_table(bound)
        relation, weights, stats, sampler_kind = planner.sampled_relation(
            bound, target
        )
        entry = CacheEntry(
            relation=relation,
            weights=weights,
            table_versions=self._versions(bound),
            source_technique=f"quickr:{sampler_kind}",
        )
        if len(self._entries) >= self.max_entries:
            # Evict the least-used entry.
            victim = min(self._entries, key=lambda k: self._entries[k].hits)
            del self._entries[victim]
        self._entries[key] = entry
        return self._answer_from_entry(bound, spec, entry, first_run_stats=stats)

    def _answer_from_entry(
        self,
        bound: BoundQuery,
        spec: ErrorSpec,
        entry: CacheEntry,
        first_run_stats: Optional[ExecutionStats] = None,
    ) -> ApproximateResult:
        moments = estimate_groups_row_level(bound, entry.relation, entry.weights)
        out_table, ci_low, ci_high = project_output_with_intervals(
            bound, spec, moments
        )
        reused = first_run_stats is None
        stats = ExecutionStats() if reused else first_run_stats
        stats.agg_input_rows += entry.relation.num_rows  # the estimator's fold
        approx_cost = stats.simulated_cost().total
        exact_cost = 0.0
        for name, _ in entry.table_versions:
            t = self.database.table(name)
            exact_cost += scan_cost(t.num_blocks, t.num_rows).total
        return ApproximateResult(
            table=out_table,
            stats=stats,
            spec=spec,
            technique="idea_reuse" if reused else "quickr",
            ci_low=ci_low,
            ci_high=ci_high,
            fraction_scanned=0.0 if reused else 1.0,
            approx_cost=max(approx_cost, 1e-9),
            exact_cost=exact_cost,
            diagnostics={
                "reused": reused,
                "source": entry.source_technique,
                "cached_rows": entry.relation.num_rows,
                "cache_hit_rate": self.stats.hit_rate,
            },
        )

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
