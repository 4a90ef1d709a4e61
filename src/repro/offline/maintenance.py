"""Maintenance cost accounting for offline synopses.

The survey's sharpest criticism of offline AQP is not accuracy — it is
the *cumulative* cost of keeping synopses valid while the base data
changes. This module simulates that: it applies an insert stream to a
database, lets a refresh policy decide when each synopsis is rebuilt, and
charges every rebuild its full construction cost. Experiment E8 sweeps
update rates and shows maintenance overtaking the query-time savings.

Policies implemented:

* ``eager``     — rebuild after every batch (always fresh, max cost);
* ``threshold`` — rebuild when staleness exceeds the catalog threshold
  (the common deployment);
* ``never``     — never rebuild (zero cost, unbounded bias);
* ``reservoir`` — the catalog's own append maintenance
  (:meth:`~repro.offline.catalog.SynopsisCatalog.absorb_append`): each
  batch is folded into the sample as an exact draw of its design, at the
  cost of the batch alone. Uniform (SRS, Bernoulli) samples and
  stratified samples with per-stratum sizes have this cheap path;
  measure-biased samples still do not, and fall back to ``threshold``.

The first three model a catalog that is not told about appends: their
batches land through :meth:`~repro.engine.database.Database.replace_table`,
which swaps the table's content and leaves its samples as built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional

import numpy as np

from ..core.exceptions import SynopsisError
from ..engine.table import Table
from ..sampling.measure_biased import measure_biased_sample
from ..sampling.row import srs_sample
from ..sampling.stratified import stratified_sample
from ..storage.cost import scan_cost
from .catalog import STALENESS_THRESHOLD, SampleEntry, SynopsisCatalog

POLICIES = ("eager", "threshold", "never", "reservoir")


@dataclass
class MaintenanceLog:
    """What maintenance happened and what it cost."""

    rebuilds: int = 0
    incremental_updates: int = 0
    rows_rescanned: int = 0
    cost: float = 0.0
    #: staleness of each entry at every batch boundary (for plots)
    staleness_series: List[float] = field(default_factory=list)


class MaintenanceSimulator:
    """Applies inserts and maintains catalog samples under a policy."""

    def __init__(
        self,
        database,
        policy: str = "threshold",
        seed: Optional[int] = None,
    ) -> None:
        if policy not in POLICIES:
            raise SynopsisError(f"unknown maintenance policy {policy!r}")
        self.database = database
        self.policy = policy
        self.catalog = SynopsisCatalog.for_database(database)
        self.rng = np.random.default_rng(seed)
        self.log = MaintenanceLog()

    # ------------------------------------------------------------------
    def apply_batch(self, table: str, rows: Mapping[str, Iterable]) -> None:
        """Insert a batch, then run the maintenance policy."""
        batch_len = len(next(iter(rows.values())))
        if self.policy == "reservoir":
            versions = {id(e): e.version for e in self.catalog.samples}
            self.database.append_rows(table, rows)
            for entry in self.catalog.samples:
                if entry.table == table and entry.version != versions.get(id(entry)):
                    self.log.incremental_updates += 1
                    self.log.cost += batch_len * 0.01  # touch only the new rows
        else:
            base = self.database.table(table)
            extra = Table(rows, name=table, block_size=base.block_size)
            self.database.replace_table(table, Table.concat([base, extra], name=table))
        self._maintain(table)
        worst = max(
            (e.staleness(self.database) for e in self.catalog.samples if e.table == table),
            default=0.0,
        )
        self.log.staleness_series.append(worst)

    # ------------------------------------------------------------------
    def _maintain(self, table: str) -> None:
        for entry in self.catalog.samples:
            if entry.table != table or self.policy == "never":
                continue
            # The reservoir policy's appends already absorbed what has an
            # exact rule; what is left ages like under ``threshold``.
            if self.policy == "eager" or (
                entry.staleness(self.database) > STALENESS_THRESHOLD
            ):
                self._rebuild(entry)

    def _rebuild(self, entry: SampleEntry) -> None:
        """Full rebuild: one scan of the base table + redraw."""
        base = self.database.table(entry.table)
        if entry.kind == "uniform":
            entry.sample = srs_sample(base, entry.sample.num_rows, rng=self.rng)
        elif entry.kind == "stratified":
            entry.sample = stratified_sample(
                base,
                entry.strata_column
                if isinstance(entry.strata_column, str)
                else list(entry.strata_column),
                total_size=entry.sample.num_rows,
                policy="congress",
                rng=self.rng,
            )
        elif entry.kind == "measure_biased" and entry.measure_column:
            entry.sample = measure_biased_sample(
                base,
                entry.measure_column,
                entry.sample.num_rows,
                rng=self.rng,
            )
        else:
            raise SynopsisError(f"cannot rebuild synopsis kind {entry.kind!r}")
        entry.built_at_rows = base.num_rows
        entry.version += 1
        self.log.rebuilds += 1
        self.log.rows_rescanned += base.num_rows
        self.log.cost += scan_cost(base.num_blocks, base.num_rows).total


def cumulative_overhead(
    log: MaintenanceLog, queries_served: int, per_query_savings: float
) -> float:
    """Net benefit ratio: (query savings − maintenance cost) / savings.

    Falls below 0 when maintenance costs more than approximation saved —
    the break-even the survey warns about.
    """
    savings = queries_served * per_query_savings
    if savings <= 0:
        return -math.inf if log.cost > 0 else 0.0
    return (savings - log.cost) / savings
