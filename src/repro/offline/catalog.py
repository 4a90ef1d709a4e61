"""The synopsis catalog.

Offline AQP lives or dies by bookkeeping: which samples/sketches exist,
what they cover, how stale they are, and how much storage they consume.
The catalog is deliberately explicit about those four things because the
survey's main criticism of offline methods — maintenance burden and
workload sensitivity — is only visible when they are tracked.

A catalog attaches to a :class:`~repro.engine.database.Database`; the
offline rewriter and the advisor look synopses up through it, and
:meth:`~repro.engine.database.Database.append_rows` hands it every
appended batch (:meth:`SynopsisCatalog.absorb_append`), so samples with
an exact append rule stay fresh instead of aging toward the staleness
threshold.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import SynopsisError
from ..engine.table import Table
from ..sampling.base import WeightedSample
from ..sampling.join_synopsis import JoinSynopsis
from ..sampling.maintain import absorb_append
from ..storage.synopsis_cache import get_global_cache

#: Relative growth of its base table past which a synopsis is stale:
#: lookups skip it (outside :meth:`SynopsisCatalog.allow_stale`) and
#: maintenance rebuilds it.
STALENESS_THRESHOLD = 0.1


@dataclass
class SampleEntry:
    """One precomputed sample and its provenance."""

    table: str
    sample: WeightedSample
    kind: str  # "uniform" | "stratified" | "measure_biased"
    strata_column: Optional[str] = None
    measure_column: Optional[str] = None
    built_at_rows: int = 0
    #: monotonically increasing refresh counter (for maintenance stats)
    version: int = 0
    #: shard id for per-shard synopses of a sharded table; ``None`` means
    #: the entry covers the whole table. Shard entries only answer
    #: shard-aware lookups (and vice versa) — see :meth:`find_sample`.
    shard: Optional[int] = None
    #: who materialized this entry: ``"manual"`` (hand-registered, the
    #: historical default) or ``"tuner"`` (the workload-adaptive tuner —
    #: only tuner-sourced entries are eligible for tuner eviction).
    source: str = "manual"

    @property
    def storage_rows(self) -> int:
        return self.sample.num_rows

    def staleness(self, database) -> float:
        """Relative growth of the base table since this entry was built."""
        current = database.table(self.table).num_rows
        if self.built_at_rows == 0:
            return float("inf") if current else 0.0
        return abs(current - self.built_at_rows) / self.built_at_rows


@dataclass
class SketchEntry:
    """One precomputed sketch over (table, column)."""

    table: str
    column: str
    kind: str  # "hll", "countmin", "kmv", "quantile", ...
    sketch: object
    built_at_rows: int = 0
    #: shard id for per-shard sketches; ``None`` covers the whole table
    shard: Optional[int] = None

    def staleness(self, database) -> float:
        current = database.table(self.table).num_rows
        if self.built_at_rows == 0:
            return float("inf") if current else 0.0
        return abs(current - self.built_at_rows) / self.built_at_rows


class SynopsisCatalog:
    """Registry of all precomputed synopses for one database."""

    _ATTR = "_repro_synopsis_catalog"

    def __init__(self, database) -> None:
        self.database = database
        self.samples: List[SampleEntry] = []
        self.sketches: Dict[Tuple[str, str, str], SketchEntry] = {}
        self.join_synopses: List[JoinSynopsis] = []
        #: content-addressed store shared across catalog rebuilds
        self.cache = get_global_cache()
        #: >0 inside :meth:`allow_stale` — freshness gates are suspended
        self._stale_depth = 0
        setattr(database, self._ATTR, self)

    # ------------------------------------------------------------------
    @classmethod
    def for_database(cls, database) -> "SynopsisCatalog":
        """The database's catalog, creating an empty one if needed."""
        existing = getattr(database, cls._ATTR, None)
        if existing is not None:
            return existing
        return cls(database)

    # ------------------------------------------------------------------
    # Freshness policy
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def allow_stale(self) -> Iterator["SynopsisCatalog"]:
        """Suspend the freshness gate for the enclosed lookups.

        The degradation ladder's stale-synopsis rung deliberately serves
        from entries that failed :data:`STALENESS_THRESHOLD` — it widens
        their error bars afterwards — so it needs lookups that see those
        entries without loosening the gate for everyone else. Nests
        safely; the gate is restored on exit even if the body raises.
        """
        self._stale_depth += 1
        try:
            yield self
        finally:
            self._stale_depth -= 1

    @property
    def stale_allowed(self) -> bool:
        return self._stale_depth > 0

    # ------------------------------------------------------------------
    # Samples
    # ------------------------------------------------------------------
    def add_sample(self, entry: SampleEntry) -> None:
        if entry.sample.num_rows == 0:
            raise SynopsisError("refusing to register an empty sample")
        self.samples.append(entry)

    def absorb_append(self, table: str, batch: Table, rows_before: int) -> None:
        """Fold rows appended to ``table`` into its samples.

        Every whole-table sample that describes the table as it was
        (``rows_before`` rows) and has an exact append rule
        (:func:`~repro.sampling.maintain.absorb_append`: Bernoulli, SRS,
        stratified) becomes the same design's draw over the grown table:
        staleness 0, ``version + 1``. Draws are seeded from the sample's
        content fingerprint and the entry version, so seeded runs replay.
        The new sample is a new object; whatever the synopsis cache holds
        under the old content's fingerprint is left as it was. Entries
        without an exact rule, or already stale, age under
        :data:`STALENESS_THRESHOLD` as before.
        """
        for entry in self.samples:
            if (
                entry.table != table
                or entry.shard is not None
                or entry.built_at_rows != rows_before
                or entry.sample.population_rows != rows_before
            ):
                continue
            rng = np.random.default_rng(
                [int(entry.sample.table.fingerprint()[:15], 16), entry.version]
            )
            grown = absorb_append(entry.sample, batch, rng)
            if grown is None:
                continue
            entry.sample = grown
            entry.built_at_rows = rows_before + batch.num_rows
            entry.version += 1

    def find_sample(
        self,
        table: str,
        group_columns: Sequence[str] = (),
        require_fresh: bool = True,
        shard: Optional[int] = None,
    ) -> Optional[SampleEntry]:
        """Best sample for ``table`` grouped by ``group_columns``.

        Preference: a stratified sample whose strata column is one of the
        group columns (group coverage!), then any uniform sample. Stale
        entries are skipped when ``require_fresh``. ``shard`` selects a
        per-shard entry; whole-table lookups (``shard=None``) never see
        shard entries — a shard's sample describes a fraction of the
        table and would silently bias a whole-table estimate.
        """
        fresh = [
            e
            for e in self.samples
            if e.table == table
            and e.shard == shard
            and (
                not require_fresh
                or self.stale_allowed
                or e.staleness(self.database) <= STALENESS_THRESHOLD
            )
        ]
        if group_columns:
            wanted = set(group_columns)
            for entry in fresh:
                if entry.kind != "stratified" or entry.strata_column is None:
                    continue
                have = (
                    {entry.strata_column}
                    if isinstance(entry.strata_column, str)
                    else set(entry.strata_column)
                )
                # A sample stratified on φ keeps rows for every value
                # combination of φ, hence covers any group-by over a
                # subset of φ (BlinkDB's coverage rule).
                if wanted <= have:
                    return entry
            # A uniform sample cannot protect groups; only use it when the
            # query does not group.
            return None
        for entry in fresh:
            if entry.kind == "uniform":
                return entry
        for entry in fresh:
            if entry.kind == "stratified":
                return entry  # stratified is still a valid weighted sample
        return None

    # ------------------------------------------------------------------
    # Sketches
    # ------------------------------------------------------------------
    def add_sketch(self, entry: SketchEntry) -> None:
        self.sketches[(entry.table, entry.column, entry.kind)] = entry

    def find_sketch(
        self, table: str, column: str, kind: str, require_fresh: bool = True
    ) -> Optional[SketchEntry]:
        entry = self.sketches.get((table, column, kind))
        if entry is None:
            return None
        if (
            require_fresh
            and not self.stale_allowed
            and entry.staleness(self.database) > STALENESS_THRESHOLD
        ):
            return None
        return entry

    def ensure_sketch(
        self,
        table: str,
        column: str,
        kind: str,
        builder: Callable[..., object],
        params: Optional[Dict[str, object]] = None,
    ) -> SketchEntry:
        """A fresh sketch entry, built through the synopsis cache.

        ``builder(table_obj, column)`` runs only when neither this
        catalog nor the cache holds the synopsis — so a rebuilt catalog
        (a benchmark rerun, a fresh session over the same data) reuses
        the sketch bytes instead of re-ingesting the column.

        Each call makes one attempt; a failed build raises its own error
        and registers nothing.
        """
        existing = self.find_sketch(table, column, kind)
        if existing is not None:
            return existing
        from ..resilience.faults import maybe_fault

        table_obj = self.database.table(table)
        maybe_fault("catalog.sketch_build")
        sketch = self.cache.get_or_build(
            table_obj,
            kind=f"sketch:{kind}",
            columns=(column,),
            params=params,
            builder=lambda: builder(table_obj, column),
        )
        entry = SketchEntry(
            table=table,
            column=column,
            kind=kind,
            sketch=sketch,
            built_at_rows=table_obj.num_rows,
        )
        self.add_sketch(entry)
        return entry

    def cache_stats(self) -> Dict[str, float]:
        """Hit/miss/eviction counters of the backing synopsis cache."""
        return self.cache.stats.as_dict()

    # ------------------------------------------------------------------
    # Join synopses
    # ------------------------------------------------------------------
    def add_join_synopsis(self, synopsis: JoinSynopsis) -> None:
        self.join_synopses.append(synopsis)

    def find_join_synopsis(
        self, fact_table: str, dimensions: Sequence[str]
    ) -> Optional[JoinSynopsis]:
        """A synopsis of ``fact_table`` covering at least ``dimensions``."""
        wanted = set(dimensions)
        for syn in self.join_synopses:
            have = {edge.dimension for edge in syn.edges}
            if syn.fact_table == fact_table and wanted <= have:
                return syn
        return None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def storage_rows(self) -> int:
        """Total rows held by all synopses (the storage budget consumed)."""
        total = sum(e.storage_rows for e in self.samples)
        total += sum(s.sample.num_rows for s in self.join_synopses)
        return total

    def stale_entries(self) -> List[SampleEntry]:
        return [
            e
            for e in self.samples
            if e.staleness(self.database) > STALENESS_THRESHOLD
        ]
