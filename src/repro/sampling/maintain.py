"""Exact maintenance of fixed-design samples under appends.

A sample drawn by a known design stays a draw of that design over the
grown table if the appended rows are folded in by the right rule, which
costs a pass over the batch and the sample — never over the table:

* **Bernoulli(p)**: draw the batch at the same rate; weights stay 1/p.
* **SRS of k rows from N**, after m appended rows: the grown table's SRS
  holds ``X ~ Hypergeometric(good=m, bad=N, k)`` batch rows. Keep a
  random ``k − X`` of the current sample (an SRS of an SRS is an SRS) and
  add an SRS of ``X`` batch rows; weights become ``(N + m)/k``.
* **Stratified**: the SRS rule per stratum, each stratum keeping its
  build-time size ``n_h`` (all of its rows while ``N_h ≤ n_h``). A key
  value first seen in a batch enters as a new stratum with the smallest
  ``n_h`` of the sample.

Batches are drawn by the designs' own selection functions:
:func:`~repro.sampling.row.bernoulli_positions` for a Bernoulli batch,
and :func:`~repro.sampling.stratified.srs_per_stratum` for both halves of
the SRS rule (one stratum for a plain SRS sample).

Designs without such a rule (measure-biased, block, distinct samples)
are not maintained here: :func:`absorb_append` returns ``None`` and the
catalog's staleness rule applies to them. Reservoir sampling
(:mod:`repro.sampling.reservoir`) is the streaming form of the SRS rule,
one row at a time; this module applies it a batch at a time.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine.aggregates import encode_groups_arrays
from ..engine.table import Table
from .base import WeightedSample
from .row import bernoulli_positions
from .stratified import StratumInfo, srs_per_stratum


def absorb_append(
    sample: WeightedSample, batch: Table, rng: np.random.Generator
) -> Optional[WeightedSample]:
    """``sample`` maintained over its table plus the appended ``batch``,
    as an exact draw of the same design; ``None`` for a design with no
    exact append rule."""
    population = sample.population_rows + batch.num_rows
    params = dict(sample.params)
    if sample.method == "bernoulli_rows":
        rate = float(params["rate"])
        table = _stacked(
            sample.table, slice(None), batch,
            bernoulli_positions(batch.num_rows, rate, rng),
        )
        return WeightedSample(
            table, np.full(table.num_rows, 1.0 / rate), sample.method,
            population, params,
        )
    if sample.method == "srs_rows":
        # One stratum whose size is the sample's.
        k = sample.num_rows
        strata = [StratumInfo(None, sample.population_rows, k, k)]
        sample_ids = np.zeros(k, dtype=np.int64)
        batch_ids = np.zeros(batch.num_rows, dtype=np.int64)
    elif sample.method.startswith("stratified:"):
        column = params["strata_column"]
        strata = list(params["strata"])
        sample_ids, batch_ids = _stratum_ids(
            strata,
            sample.table,
            batch,
            [column] if isinstance(column, str) else list(column),
        )
    else:
        return None
    keep, take, weights, strata = _absorb_per_stratum(
        rng, strata, sample_ids, batch_ids
    )
    if sample.method == "srs_rows":
        params["size"] = strata[0].drawn
    else:
        params["strata"] = strata
    table = _stacked(sample.table, keep, batch, take)
    return WeightedSample(table, weights, sample.method, population, params)


def _stacked(sample: Table, keep, batch: Table, take) -> Table:
    """Rows ``keep`` of ``sample`` over rows ``take`` of ``batch``, built a
    column at a time (no full intermediate copy of either side)."""
    return Table(
        {
            c: np.concatenate([sample[c][keep], batch[c][take]])
            for c in sample.column_names
        },
        name=sample.name,
        block_size=sample.block_size,
    )


def _stratum_ids(
    strata: List[StratumInfo],
    sample: Table,
    batch: Table,
    columns: Sequence[str],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stratum index of every sample and batch row. A key the sample
    has never seen is appended to ``strata`` (in place) as an empty
    stratum sized like the smallest existing one."""
    gids, key_columns = encode_groups_arrays(
        [np.concatenate([sample[c], batch[c]]) for c in columns]
    )
    position = {s.key: i for i, s in enumerate(strata)}
    smallest = min(s.allocated for s in strata)
    lookup = np.empty(len(key_columns[0]), dtype=np.int64)
    for g, values in enumerate(zip(*(col.tolist() for col in key_columns))):
        key = values[0] if len(columns) == 1 else values
        if key not in position:
            position[key] = len(strata)
            strata.append(StratumInfo(key, 0, smallest, 0))
        lookup[g] = position[key]
    ids = lookup[gids]
    return ids[: sample.num_rows], ids[sample.num_rows:]


def _absorb_per_stratum(
    rng: np.random.Generator,
    strata: List[StratumInfo],
    sample_ids: np.ndarray,
    batch_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[StratumInfo]]:
    """The SRS rule in every stratum at once: ``(kept sample rows, taken
    batch rows, weights of kept then taken rows, updated strata)``."""
    h = len(strata)
    before = np.array([s.population for s in strata], dtype=np.int64)
    appended = np.bincount(batch_ids, minlength=h)
    after = before + appended
    size = np.minimum([s.allocated for s in strata], after)
    from_batch = rng.hypergeometric(appended, before, size)
    keep = srs_per_stratum(sample_ids, size - from_batch, rng)
    take = srs_per_stratum(batch_ids, from_batch, rng)
    weight = after / np.maximum(size, 1)
    weights = np.concatenate([weight[sample_ids[keep]], weight[batch_ids[take]]])
    updated = [
        dataclasses.replace(s, population=int(n), drawn=int(k))
        for s, n, k in zip(strata, after, size)
    ]
    return keep, take, weights, updated
