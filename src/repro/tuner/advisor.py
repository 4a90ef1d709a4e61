"""Candidate synopsis scoring under a storage budget.

The advisor turns logged demand into a build/evict plan. It is pure
decision logic — no sampling, no catalog mutation — so its output
(:class:`TuningPlan`) is deterministic given a log snapshot and a
catalog state, which is what makes tuning decisions replayable.

Scoring follows the BlinkDB/VerdictDB shape: a candidate synopsis is
worth (queries it would serve) × (work it saves each one), normalized by
the storage rows it occupies; candidates are admitted greedily under the
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..offline.catalog import STALENESS_THRESHOLD, SampleEntry, SynopsisCatalog
from ..storage.cost import scan_cost
from .workload import WorkloadLog

__all__ = ["Candidate", "TuningPlan", "SynopsisAdvisor"]

#: Floors below which a candidate is not worth the bookkeeping: a
#: proposed sample holds at least ``MIN_ROWS`` rows, and a candidate
#: needs ``MIN_DEMAND`` logged queries it would serve.
MIN_ROWS = 256
MIN_DEMAND = 2


@dataclass(frozen=True)
class Candidate:
    """One buildable synopsis and why it is worth building."""

    table: str
    kind: str  # "uniform" | "stratified" | "measure_biased"
    columns: Tuple[str, ...] = ()  # strata columns / (measure column,)
    rows: int = 0  # proposed sample size (storage rows)
    demand: int = 0  # queries in the log this would serve
    score: float = 0.0  # benefit per storage row (higher = better)

    @property
    def key(self) -> str:
        """Stable identity used for seeds, breakers, and dedup."""
        return f"{self.table}:{self.kind}:{','.join(self.columns)}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "table": self.table,
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": self.rows,
            "demand": self.demand,
            "score": round(self.score, 6),
        }


@dataclass
class TuningPlan:
    """What one tuning cycle should do to the catalog."""

    builds: List[Candidate] = field(default_factory=list)
    #: catalog indices are unstable; evictions carry the entry itself
    evictions: List[SampleEntry] = field(default_factory=list)
    #: candidates that scored but did not fit the budget
    deferred: List[Candidate] = field(default_factory=list)
    storage_budget_rows: int = 0
    storage_used_rows: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "builds": [c.to_dict() for c in self.builds],
            "evictions": [
                {
                    "table": e.table,
                    "kind": e.kind,
                    "strata_column": e.strata_column,
                    "measure_column": e.measure_column,
                }
                for e in self.evictions
            ],
            "deferred": [c.to_dict() for c in self.deferred],
            "storage_budget_rows": self.storage_budget_rows,
            "storage_used_rows": self.storage_used_rows,
        }


class SynopsisAdvisor:
    """Scores candidate synopses against a workload log.

    Parameters
    ----------
    database:
        The database whose tables the candidates sample.
    log:
        The :class:`WorkloadLog` supplying demand.
    storage_budget_rows:
        Total rows the catalog's *tuner-sourced* samples may occupy.
        Manual entries are the operator's business and never counted
        against (or evicted for) the tuner's budget.
    sample_fraction:
        Proposed sample size as a fraction of the base table.
    """

    def __init__(
        self,
        database,
        log: WorkloadLog,
        storage_budget_rows: int = 50_000,
        sample_fraction: float = 0.1,
    ) -> None:
        self.database = database
        self.log = log
        self.storage_budget_rows = storage_budget_rows
        self.sample_fraction = sample_fraction
        self.catalog = SynopsisCatalog.for_database(database)

    # ------------------------------------------------------------------
    def _proposed_rows(self, table_name: str) -> int:
        table = self.database.table(table_name)
        return max(MIN_ROWS, int(table.num_rows * self.sample_fraction))

    def _benefit_per_query(self, table_name: str, rows: int) -> float:
        """Work saved by answering from ``rows`` instead of a full scan."""
        table = self.database.table(table_name)
        full = scan_cost(table.num_blocks, table.num_rows).total
        sample_blocks = max(1, rows // max(table.block_size, 1))
        approx = scan_cost(sample_blocks, rows).total
        return max(full - approx, 0.0)

    # ------------------------------------------------------------------
    def candidates(self) -> List[Candidate]:
        """All scoring candidates, best first (ties broken by key)."""
        out: List[Candidate] = []
        for table_name in self.log.tables():
            try:
                self.database.table(table_name)
            except Exception:
                continue  # logged against a table this database lacks
            rows = self._proposed_rows(table_name)
            benefit = self._benefit_per_query(table_name, rows)
            scalar = self.log.scalar_demand(table_name)
            if scalar >= MIN_DEMAND:
                out.append(
                    Candidate(
                        table=table_name,
                        kind="uniform",
                        rows=rows,
                        demand=scalar,
                        score=scalar * benefit / max(rows, 1),
                    )
                )
            for group_cols, count in self.log.group_demand(table_name).items():
                if count < MIN_DEMAND:
                    continue
                out.append(
                    Candidate(
                        table=table_name,
                        kind="stratified",
                        columns=group_cols,
                        rows=rows,
                        demand=count,
                        score=count * benefit / max(rows, 1),
                    )
                )
            for measure, count in self.log.measure_demand(table_name).items():
                # Only worth a dedicated biased sample when the measure
                # dominates scalar SUM/AVG traffic; grouped queries are
                # already covered by stratified candidates.
                if count < max(MIN_DEMAND, 2 * scalar) or scalar == 0:
                    continue
                out.append(
                    Candidate(
                        table=table_name,
                        kind="measure_biased",
                        columns=(measure,),
                        rows=rows,
                        demand=count,
                        score=0.5 * count * benefit / max(rows, 1),
                    )
                )
        out.sort(key=lambda c: (-c.score, c.key))
        return out

    # ------------------------------------------------------------------
    def _covered(self, candidate: Candidate) -> bool:
        """Is a fresh catalog entry already serving this demand?

        The rule is :meth:`SynopsisCatalog.find_sample`'s: scalar demand
        is served by any fresh uniform or stratified sample, so a uniform
        build next to a stratified one would save no further work.
        """
        for entry in self.catalog.samples:
            if entry.table != candidate.table or entry.shard is not None:
                continue
            if entry.staleness(self.database) > STALENESS_THRESHOLD:
                continue
            if candidate.kind == "uniform" and entry.kind in ("uniform", "stratified"):
                return True
            if candidate.kind == "stratified" and entry.kind == "stratified":
                have = (
                    {entry.strata_column}
                    if isinstance(entry.strata_column, str)
                    else set(entry.strata_column or ())
                )
                if set(candidate.columns) <= have:
                    return True
            if (
                candidate.kind == "measure_biased"
                and entry.kind == "measure_biased"
                and entry.measure_column == candidate.columns[0]
            ):
                return True
        return False

    def _demand_keys(self) -> set:
        """Every (table, kind-ish) the current log still asks for."""
        wanted = set()
        for table_name in self.log.tables():
            if self.log.scalar_demand(table_name) > 0:
                wanted.add((table_name, "uniform", ()))
            for group_cols in self.log.group_demand(table_name):
                wanted.add((table_name, "stratified", group_cols))
            for measure in self.log.measure_demand(table_name):
                wanted.add((table_name, "measure_biased", (measure,)))
        return wanted

    def cold_entries(self) -> List[SampleEntry]:
        """Tuner-built entries the current log no longer asks for."""
        wanted = self._demand_keys()
        cold: List[SampleEntry] = []
        for entry in self.catalog.samples:
            if entry.source != "tuner":
                continue  # manual entries are never the tuner's to evict
            if entry.kind == "uniform":
                hot = (entry.table, "uniform", ()) in wanted
            elif entry.kind == "stratified":
                have = (
                    (entry.strata_column,)
                    if isinstance(entry.strata_column, str)
                    else tuple(entry.strata_column or ())
                )
                hot = any(
                    t == entry.table and k == "stratified" and set(g) <= set(have)
                    for t, k, g in wanted
                )
            else:
                hot = (
                    entry.table,
                    "measure_biased",
                    (entry.measure_column,),
                ) in wanted
            if not hot:
                cold.append(entry)
        return cold

    # ------------------------------------------------------------------
    def plan(self) -> TuningPlan:
        """Greedy build list under the storage budget, plus evictions.

        Evicting cold entries first frees their rows for this cycle's
        builds — the budget is a property of the *post-cycle* catalog.
        """
        evictions = self.cold_entries()
        evicted_ids = {id(e) for e in evictions}
        used = sum(
            e.storage_rows
            for e in self.catalog.samples
            if e.source == "tuner" and id(e) not in evicted_ids
        )
        plan = TuningPlan(
            evictions=evictions,
            storage_budget_rows=self.storage_budget_rows,
            storage_used_rows=used,
        )
        for candidate in self.candidates():
            if self._covered(candidate):
                continue
            if used + candidate.rows > self.storage_budget_rows:
                plan.deferred.append(candidate)
                continue
            plan.builds.append(candidate)
            used += candidate.rows
        plan.storage_used_rows = used
        return plan
