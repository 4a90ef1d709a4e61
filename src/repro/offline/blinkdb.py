"""BlinkDB-style workload-aware sample selection.

Offline AQP's planning problem: given a storage budget and an expected
workload of (table, query-column-set) templates, choose which stratified
samples to precompute so the largest possible (frequency-weighted) share
of the workload is covered. BlinkDB formulates this as an MILP; like most
deployments we solve the same objective with a budgeted greedy that picks
the best marginal coverage-per-row at each step (the classic (1-1/e)
approximation for coverage objectives).

A sample stratified on column set φ covers a query template whose group
columns are a subset of φ — that is the coverage rule the catalog also
enforces at query time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.exceptions import SynopsisError
from ..sampling.stratified import stratified_sample
from ..storage.synopsis_cache import SynopsisCache, get_global_cache
from .catalog import SampleEntry, SynopsisCatalog


@dataclass(frozen=True)
class QueryTemplate:
    """One recurring query shape in the expected workload."""

    table: str
    #: group-by / filter columns the template touches (its QCS)
    columns: Tuple[str, ...]
    frequency: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency < 0:
            raise SynopsisError("frequency must be non-negative")


@dataclass
class CandidateSample:
    """One sample the selector may build."""

    table: str
    columns: Tuple[str, ...]
    storage_rows: int
    covered_weight: float = 0.0


class BlinkDBSelector:
    """Chooses and materializes stratified samples under a budget."""

    def __init__(
        self,
        database,
        budget_rows: int,
        rows_per_stratum: int = 100,
        seed: Optional[int] = None,
        cache: Optional[SynopsisCache] = None,
    ) -> None:
        if budget_rows < 1:
            raise SynopsisError("budget_rows must be >= 1")
        self.database = database
        self.budget_rows = budget_rows
        self.rows_per_stratum = rows_per_stratum
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.catalog = SynopsisCatalog.for_database(database)
        #: memoizes materialized stratified samples across rebuilds; only
        #: consulted when ``seed`` makes each build deterministic
        self.cache = get_global_cache() if cache is None else cache

    # ------------------------------------------------------------------
    def candidates(self, workload: Sequence[QueryTemplate]) -> List[CandidateSample]:
        """One candidate per distinct (table, QCS) in the workload.

        Storage cost: ``min(#strata · rows_per_stratum, table_rows)`` —
        every distinct value combination keeps up to ``rows_per_stratum``
        rows (BlinkDB's K cap).
        """
        out: Dict[Tuple[str, Tuple[str, ...]], CandidateSample] = {}
        for template in workload:
            key = (template.table, tuple(sorted(template.columns)))
            if key in out:
                continue
            table = self.database.table(template.table)
            stats = self.database.stats(template.table)
            ndv = 1
            for col in key[1]:
                cstats = stats.column(col)
                ndv *= cstats.num_distinct if cstats else 1
            storage = min(ndv * self.rows_per_stratum, table.num_rows)
            out[key] = CandidateSample(
                table=key[0], columns=key[1], storage_rows=storage
            )
        # Coverage weights: candidate covers template iff QCS ⊆ candidate.
        for cand in out.values():
            cand.covered_weight = sum(
                t.frequency
                for t in workload
                if t.table == cand.table and set(t.columns) <= set(cand.columns)
            )
        return list(out.values())

    def select(
        self, workload: Sequence[QueryTemplate]
    ) -> Tuple[List[CandidateSample], float]:
        """Greedy budgeted coverage; returns (chosen, covered_fraction).

        Marginal coverage is recomputed after each pick because a chosen
        superset-QCS candidate covers the templates of its subsets.
        """
        remaining = {id(t): t for t in workload}
        total_weight = sum(t.frequency for t in workload) or 1.0
        budget = self.budget_rows
        chosen: List[CandidateSample] = []
        cands = self.candidates(workload)
        while budget > 0 and remaining:
            best, best_score = None, 0.0
            for cand in cands:
                if cand in chosen or cand.storage_rows > budget:
                    continue
                marginal = sum(
                    t.frequency
                    for t in remaining.values()
                    if t.table == cand.table and set(t.columns) <= set(cand.columns)
                )
                if cand.storage_rows <= 0:
                    continue
                score = marginal / cand.storage_rows
                if score > best_score:
                    best, best_score = cand, score
            if best is None or best_score <= 0:
                break
            chosen.append(best)
            budget -= best.storage_rows
            for tid in [
                tid
                for tid, t in remaining.items()
                if t.table == best.table and set(t.columns) <= set(best.columns)
            ]:
                remaining.pop(tid)
        covered = 1.0 - sum(t.frequency for t in remaining.values()) / total_weight
        return chosen, covered

    # ------------------------------------------------------------------
    def materialize(self, chosen: Sequence[CandidateSample]) -> List[SampleEntry]:
        """Build the selected samples and register them in the catalog.

        With a ``seed``, each candidate's sample is drawn from its own
        deterministic generator (derived from the seed and the candidate
        identity) and memoized in the synopsis cache keyed on the table's
        content fingerprint — so re-running the selector after a restart
        or in a benchmark rerun reuses the stored sample instead of
        re-stratifying the base table. Without a seed the legacy shared-
        generator path is kept and nothing is cached.
        """
        entries: List[SampleEntry] = []
        for cand in chosen:
            table = self.database.table(cand.table)
            strata = cand.columns[0] if len(cand.columns) == 1 else list(cand.columns)
            min_per = min(self.rows_per_stratum, max(table.num_rows, 1))

            def build(table=table, strata=strata, cand=cand, min_per=min_per):
                if self.seed is None:
                    rng = self.rng
                else:
                    # Stable per-candidate stream: independent of build
                    # order, build count, and PYTHONHASHSEED.
                    digest = hashlib.blake2b(
                        "/".join(cand.columns).encode(), digest_size=4
                    ).digest()
                    rng = np.random.default_rng(
                        [self.seed, int.from_bytes(digest, "little")]
                    )
                return stratified_sample(
                    table,
                    strata,
                    total_size=cand.storage_rows,
                    policy="congress",
                    min_per_stratum=min_per,
                    rng=rng,
                )

            if self.seed is None:
                sample = build()
            else:
                sample = self.cache.get_or_build(
                    table,
                    kind="blinkdb_stratified",
                    columns=cand.columns,
                    params={
                        "storage_rows": cand.storage_rows,
                        "min_per_stratum": min_per,
                        "policy": "congress",
                        "seed": self.seed,
                    },
                    builder=build,
                )
            entry = SampleEntry(
                table=cand.table,
                sample=sample,
                kind="stratified",
                strata_column=(
                    cand.columns[0] if len(cand.columns) == 1 else cand.columns
                ),
                built_at_rows=table.num_rows,
            )
            self.catalog.add_sample(entry)
            entries.append(entry)
        return entries

    def build_for_workload(
        self, workload: Sequence[QueryTemplate]
    ) -> Tuple[List[SampleEntry], float]:
        """Select + materialize in one call; returns (entries, coverage)."""
        chosen, coverage = self.select(workload)
        return self.materialize(chosen), coverage


def workload_coverage(
    catalog: SynopsisCatalog, workload: Sequence[QueryTemplate]
) -> float:
    """Frequency-weighted fraction of ``workload`` the catalog can answer
    from fresh samples — the drift metric of experiment E7."""
    total = sum(t.frequency for t in workload) or 1.0
    covered = 0.0
    for template in workload:
        entry = catalog.find_sample(template.table, template.columns)
        if entry is not None:
            covered += template.frequency
    return covered / total
