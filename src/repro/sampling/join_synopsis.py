"""Join synopses (AQUA, Acharya et al. 1999).

Sampling *after* a foreign-key join is easy to get right and impossible to
do cheaply at query time without help: a uniform sample of the fact table,
joined with its dimension tables along FK edges, *is* a uniform sample of
the full join (each fact row matches exactly one dimension row per edge).
AQUA therefore precomputes exactly that — the join synopsis — and answers
join aggregates from it with plain SRS estimators.

This module builds join synopses against a :class:`~repro.engine.database.
Database` and exposes them as :class:`~repro.sampling.base.WeightedSample`
objects whose population is the (virtual) join result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import SynopsisError
from ..engine.table import Table
from .base import WeightedSample
from .row import srs_sample


@dataclass(frozen=True)
class ForeignKeyEdge:
    """One FK edge: ``fact.fact_key -> dimension.dim_key``."""

    fact_key: str
    dimension: str
    dim_key: str


@dataclass
class JoinSynopsis:
    """A precomputed sample of a fact table's FK join."""

    fact_table: str
    edges: Tuple[ForeignKeyEdge, ...]
    sample: WeightedSample
    #: rows of the fact table at build time (staleness tracking)
    built_at_rows: int


def build_join_synopsis(
    database,
    fact_table: str,
    edges: Sequence[ForeignKeyEdge],
    sample_size: int,
    rng: Optional[np.random.Generator] = None,
) -> JoinSynopsis:
    """SRS the fact table, then join each dimension exactly.

    Dimension columns are prefixed ``<dimension>.`` in the synopsis so
    predicates on dimension attributes can be evaluated directly. Fact
    rows that violate referential integrity (no dimension match) raise —
    a synopsis built on broken FKs would silently bias every answer.
    """
    from ..engine.executor import join_indices  # the executor imports this package

    fact = database.table(fact_table)
    sample = srs_sample(fact, sample_size, rng=rng)
    joined = sample.table
    for edge in edges:
        dim = database.table(edge.dimension)
        left_idx, right_idx, unmatched = join_indices(
            [joined[edge.fact_key]], [dim[edge.dim_key]]
        )
        if len(unmatched):
            raise SynopsisError(
                f"{len(unmatched)} fact rows have no match in "
                f"{edge.dimension!r} on {edge.fact_key}={edge.dim_key}"
            )
        if len(left_idx) != joined.num_rows:
            raise SynopsisError(
                f"FK edge to {edge.dimension!r} is not N:1 "
                f"({len(left_idx)} matches for {joined.num_rows} fact rows)"
            )
        # N:1 join preserves fact-row order once sorted by left index.
        order = np.argsort(left_idx, kind="stable")
        cols = {name: joined[name][left_idx[order]] for name in joined.column_names}
        for name in dim.column_names:
            cols[f"{edge.dimension}.{name}"] = dim[name][right_idx[order]]
        joined = Table(cols, name=f"{fact_table}_synopsis")
    weighted = WeightedSample(
        table=joined,
        weights=sample.weights,
        method="join_synopsis",
        population_rows=fact.num_rows,
        params={
            "fact_table": fact_table,
            "edges": tuple(edges),
            "sample_size": sample.num_rows,
        },
    )
    return JoinSynopsis(
        fact_table=fact_table,
        edges=tuple(edges),
        sample=weighted,
        built_at_rows=fact.num_rows,
    )


def refresh_needed(synopsis: JoinSynopsis, database, drift_threshold: float = 0.1) -> bool:
    """True when the fact table has grown/shrunk beyond ``drift_threshold``
    since the synopsis was built (the maintenance trigger)."""
    current = database.table(synopsis.fact_table).num_rows
    if synopsis.built_at_rows == 0:
        return current > 0
    drift = abs(current - synopsis.built_at_rows) / synopsis.built_at_rows
    return drift > drift_threshold
