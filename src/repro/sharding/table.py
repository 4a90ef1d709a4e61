"""Sharded table substrate: hash/range partitions with widening statistics.

A :class:`ShardedTable` splits one :class:`~repro.engine.table.Table`
into N disjoint shards and records, per shard, the statistics the
scatter-gather executor needs to answer *without* a shard while staying
honest about the error: the row count plus, for every numeric column,
the total, the sum of positive values and the sum of negative values.

Those three sums give a deterministic envelope for any predicate: the
contribution of a shard's *matched* rows to ``SUM(col)`` — whatever the
predicate selects — always lies in ``[negative, positive]``, because a
subset sum can at worst collect every negative value and at best every
positive one. ``COUNT`` is bounded by ``[0, rows]``. That is the
missing-shard analogue of the stale-synopsis widening rule in
:mod:`repro.resilience.ladder`: a bound derived from catalog statistics
of data we did not read, added on top of whatever sampling error the
shards we *did* read report.

Per-shard synopses (uniform samples today) register in the
:class:`~repro.offline.catalog.SynopsisCatalog` with their shard id, and
flow through the synopsis cache under shard-aware keys so two shards of
the same parent can never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.exceptions import SchemaError
from ..engine.table import Table
from ..sketches.hashing import hash64

__all__ = [
    "ColumnBounds",
    "ShardStats",
    "Shard",
    "ShardedTable",
    "compute_shard_stats",
]


@dataclass(frozen=True)
class ColumnBounds:
    """Deterministic envelope of one numeric column within one shard."""

    total: float
    #: sum of ``max(x, 0)`` — the largest any subset sum can be
    positive: float
    #: sum of ``min(x, 0)`` — the smallest any subset sum can be
    negative: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class ShardStats:
    """Catalog statistics recorded when a shard is built."""

    rows: int
    bounds: Mapping[str, ColumnBounds] = field(default_factory=dict)

    def sum_envelope(self, column: str) -> Optional[ColumnBounds]:
        return self.bounds.get(column)


def compute_shard_stats(table: Table) -> ShardStats:
    """Row count + per-numeric-column subset-sum envelopes."""
    bounds: Dict[str, ColumnBounds] = {}
    for name in table.column_names:
        arr = table[name]
        if arr.dtype.kind not in ("i", "u", "f", "b"):
            continue
        x = np.asarray(arr, dtype=np.float64)
        if len(x) == 0:
            bounds[name] = ColumnBounds(0.0, 0.0, 0.0, 0.0, 0.0)
            continue
        if not np.all(np.isfinite(x)):
            # A non-finite value defeats any subset-sum envelope; leaving
            # the column out makes the executor refuse rather than lie.
            continue
        bounds[name] = ColumnBounds(
            total=float(x.sum()),
            positive=float(np.clip(x, 0.0, None).sum()),
            negative=float(np.clip(x, None, 0.0).sum()),
            minimum=float(x.min()),
            maximum=float(x.max()),
        )
    return ShardStats(rows=table.num_rows, bounds=bounds)


@dataclass
class Shard:
    """One partition of a sharded table."""

    shard_id: int
    table: Table
    stats: ShardStats


class ShardedTable:
    """N disjoint shards of one logical table.

    Build with :meth:`from_table`; ``by="hash"`` spreads rows
    pseudo-randomly (by a key column's hash, or by row position when no
    key is given) so every shard is an exchangeable subsample of the
    whole — the property the executor's selectivity transfer relies on.
    ``by="range"`` splits on quantile boundaries of ``key`` (locality,
    shard pruning), at the price of shards that are *not* exchangeable.
    """

    def __init__(
        self,
        name: str,
        shards: Sequence[Shard],
        strategy: str = "hash",
        key: Optional[str] = None,
        boundaries: Optional[np.ndarray] = None,
    ) -> None:
        if not shards:
            raise SchemaError("a sharded table needs at least one shard")
        self.name = name
        self.shards: List[Shard] = list(shards)
        self.strategy = strategy
        self.key = key
        self.boundaries = boundaries
        self._binder_db = None

    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls,
        table: Table,
        num_shards: int,
        by: str = "hash",
        key: Optional[str] = None,
        seed: int = 0,
    ) -> "ShardedTable":
        if num_shards < 1:
            raise SchemaError("num_shards must be >= 1")
        if by not in ("hash", "range"):
            raise SchemaError(f"unknown sharding strategy {by!r}")
        if table.num_rows == 0:
            raise SchemaError("refusing to shard an empty table")
        boundaries = None
        if by == "hash":
            basis = (
                np.asarray(table[key])
                if key is not None
                else np.arange(table.num_rows, dtype=np.int64)
            )
            assignment = hash64(basis, seed=seed).astype(np.uint64) % np.uint64(
                num_shards
            )
            assignment = assignment.astype(np.int64)
        else:
            if key is None:
                raise SchemaError("range sharding requires a key column")
            values = np.asarray(table[key], dtype=np.float64)
            qs = np.linspace(0.0, 1.0, num_shards + 1)[1:-1]
            boundaries = np.quantile(values, qs) if len(qs) else np.array([])
            assignment = np.searchsorted(boundaries, values, side="right")
        parts = table.split_by_assignment(assignment, num_shards)
        name = table.name or "sharded"
        shards = [
            Shard(
                shard_id=i,
                table=Table(
                    part.columns_dict(),
                    name=f"{name}#{i}",
                    block_size=table.block_size,
                ),
                stats=compute_shard_stats(part),
            )
            for i, part in enumerate(parts)
        ]
        return cls(
            name=name,
            shards=shards,
            strategy=by,
            key=key,
            boundaries=boundaries,
        )

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_rows(self) -> int:
        return sum(s.stats.rows for s in self.shards)

    @property
    def column_names(self) -> List[str]:
        return self.shards[0].table.column_names

    def shard(self, shard_id: int) -> Shard:
        return self.shards[shard_id]

    def rows_in(self, shard_ids: Sequence[int]) -> int:
        return sum(self.shards[i].stats.rows for i in shard_ids)

    def whole_table(self) -> Table:
        """Reassemble the full table (tests/oracles only)."""
        return Table.concat(
            [s.table for s in self.shards], name=self.name
        )

    def binder_database(self):
        """A schema-only Database so SQL binds once against shard schema.

        Holds an empty table with the parent's name and columns; the
        executor never runs the bound plan against it — shards are
        evaluated directly.
        """
        if self._binder_db is None:
            from ..engine.database import Database

            template = self.shards[0].table
            db = Database()
            db.create_table(
                self.name, {c: template[c][:0] for c in template.column_names}
            )
            self._binder_db = db
        return self._binder_db

    # ------------------------------------------------------------------
    def build_shard_samples(
        self,
        rows_per_shard: int,
        seed: int = 0,
        catalog=None,
        cache=None,
    ) -> list:
        """Register one uniform sample per shard, through the cache.

        Samples are built via :meth:`SynopsisCache.get_or_build` with the
        shard id folded into the content address, and registered in
        ``catalog`` (default: the binder database's catalog) as
        :class:`~repro.offline.catalog.SampleEntry` rows carrying their
        ``shard`` id, so shard-aware lookups find exactly their shard. A
        rebuild replaces the table's earlier per-shard samples.
        """
        from ..offline.catalog import SampleEntry, SynopsisCatalog
        from ..sampling.row import srs_sample
        from ..storage.synopsis_cache import get_global_cache

        if catalog is None:
            catalog = SynopsisCatalog.for_database(self.binder_database())
        cache = get_global_cache() if cache is None else cache
        catalog.samples[:] = [
            e for e in catalog.samples if e.table != self.name or e.shard is None
        ]
        entries = []
        for shard in self.shards:
            size = min(rows_per_shard, shard.stats.rows)
            if size == 0:
                continue
            shard_seed = int(
                np.random.SeedSequence([seed, shard.shard_id]).generate_state(1)[0]
            )

            def _build(shard=shard, size=size, shard_seed=shard_seed):
                return srs_sample(
                    shard.table, size, np.random.default_rng(shard_seed)
                )

            sample = cache.get_or_build(
                (self.name, shard.table.fingerprint()),
                kind="sample:uniform",
                columns=tuple(shard.table.column_names),
                params={"rows": size, "seed": seed},
                builder=_build,
                shard=shard.shard_id,
            )
            entry = SampleEntry(
                table=self.name,
                sample=sample,
                kind="uniform",
                built_at_rows=shard.stats.rows,
                shard=shard.shard_id,
            )
            catalog.add_sample(entry)
            entries.append(entry)
        return entries
