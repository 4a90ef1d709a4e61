"""Stratified sampling with the classic allocation policies.

Uniform samples starve small groups; stratified samples fix that by
drawing a guaranteed number of rows *per stratum*. The allocation policies
implemented here are the ones the offline-AQP literature converged on:

* ``proportional`` — stratum share of the sample equals its share of the
  table (equivalent to uniform in expectation; baseline).
* ``senate`` — equal rows per stratum, maximizing worst-group accuracy
  (the "every state gets two senators" allocation).
* ``congress`` — BlinkDB/Congress hybrid: the maximum of senate and
  proportional shares, renormalized; protects small groups while keeping
  large groups accurate.
* ``neyman`` — variance-optimal for a chosen measure column: allocation
  proportional to ``N_h · σ_h``.

Each stratum is sampled by SRS without replacement; weights are
``N_h / n_h``, and estimates take the SRS variance per stratum from
``params["strata"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.exceptions import SynopsisError
from ..engine.aggregates import encode_groups_arrays
from ..engine.table import Table
from ..estimators.closed_form import Estimate
from .base import WeightedSample, cell_estimates, materialize_sample

ALLOCATIONS = ("proportional", "senate", "congress", "neyman")


@dataclass
class StratumInfo:
    """Bookkeeping for one stratum after sampling."""

    key: object
    population: int
    #: the stratum's size ``n_h``: it holds ``min(n_h, population)`` rows
    allocated: int
    drawn: int

    @property
    def weight(self) -> float:
        return self.population / self.drawn if self.drawn else float("inf")


def allocate(
    stratum_sizes: Sequence[int],
    total_sample: int,
    policy: str = "proportional",
    stratum_stds: Optional[Sequence[float]] = None,
    min_per_stratum: int = 1,
) -> List[int]:
    """Compute per-stratum sample sizes under ``policy``.

    Sizes are capped at the stratum population and floored at
    ``min_per_stratum`` (where the population allows), then the largest
    fractional remainders absorb rounding drift so the result sums to at
    most ``total_sample`` (capping may leave it below).
    """
    targets = _allocation_targets(
        stratum_sizes, total_sample, policy, stratum_stds, min_per_stratum
    )
    return np.minimum(targets, np.asarray(stratum_sizes, dtype=np.int64)).tolist()


def _allocation_targets(
    stratum_sizes: Sequence[int],
    total_sample: int,
    policy: str,
    stratum_stds: Optional[Sequence[float]],
    min_per_stratum: int,
) -> np.ndarray:
    """:func:`allocate` before the population cap: the size ``n_h`` each
    stratum is meant to hold (a stratum keeps all its rows while its
    population is at most ``n_h``)."""
    if policy not in ALLOCATIONS:
        raise SynopsisError(f"unknown allocation policy {policy!r}")
    sizes = np.asarray(stratum_sizes, dtype=np.float64)
    h = len(sizes)
    if h == 0:
        return np.zeros(0, dtype=np.int64)
    if policy == "neyman":
        if stratum_stds is None:
            raise SynopsisError("neyman allocation requires stratum_stds")
        stds = np.asarray(stratum_stds, dtype=np.float64)
        mass = sizes * np.maximum(stds, 1e-12)
    elif policy == "proportional":
        mass = sizes.copy()
    elif policy == "senate":
        mass = np.ones(h)
    else:  # congress
        prop = sizes / sizes.sum()
        senate = np.ones(h) / h
        mass = np.maximum(prop, senate)
    mass = mass / mass.sum()
    raw = mass * total_sample
    alloc = np.floor(raw).astype(np.int64)
    # Distribute remainders to the largest fractional parts.
    remainder = int(total_sample - alloc.sum())
    if remainder > 0:
        order = np.argsort(raw - alloc)[::-1]
        alloc[order[:remainder]] += 1
    return np.maximum(alloc, min_per_stratum)


def stratified_sample(
    table: Table,
    strata_column,
    total_size: int,
    policy: str = "congress",
    measure_column: Optional[str] = None,
    min_per_stratum: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> WeightedSample:
    """Draw a stratified sample keyed on ``strata_column``.

    ``strata_column`` may be a single column name or a sequence of names
    (composite strata — BlinkDB's multi-column query column sets).
    """
    if rng is None:
        rng = np.random.default_rng()
    columns = [strata_column] if isinstance(strata_column, str) else strata_column
    inverse, key_columns = encode_groups_arrays([table[c] for c in columns])
    values = [col.tolist() for col in key_columns]
    uniq = values[0] if len(values) == 1 else list(zip(*values))
    counts = np.bincount(inverse, minlength=len(uniq))
    stds = None
    if policy == "neyman":
        if measure_column is None:
            raise SynopsisError("neyman allocation requires measure_column")
        values = np.asarray(table[measure_column], dtype=np.float64)
        sums = np.bincount(inverse, weights=values, minlength=len(uniq))
        sumsq = np.bincount(inverse, weights=values * values, minlength=len(uniq))
        with np.errstate(invalid="ignore"):
            means = sums / counts
            var = np.maximum(sumsq / counts - means * means, 0.0)
        stds = np.sqrt(var)
    targets = _allocation_targets(
        counts.tolist(), total_size, policy, stds, min_per_stratum
    )
    drawn = np.minimum(targets, counts)
    strata = [
        StratumInfo(key, int(n), int(a), int(d))
        for key, n, a, d in zip(uniq, counts, targets, drawn)
    ]
    rows = srs_per_stratum(inverse, targets, rng)
    weights = (counts / np.maximum(drawn, 1))[inverse[rows]]
    params = {
        "strata_column": strata_column,
        "policy": policy,
        "strata": strata,
        "total_size": total_size,
    }
    return materialize_sample(table, rows, weights, f"stratified:{policy}", params)


def srs_per_stratum(
    strata: np.ndarray, sizes: Sequence[int], rng: np.random.Generator
) -> np.ndarray:
    """Ascending positions of an SRS of ``min(sizes[h], N_h)`` rows from
    every stratum ``h``, where ``strata`` holds each row's stratum and
    ``N_h`` is its row count: the one per-stratum draw, for builds and
    for :mod:`repro.sampling.maintain`'s appends.

    Rows are grouped by stratum once, by a stable sort of the narrow
    stratum codes; each stratum then draws from its own ascending slice,
    in stratum order.
    """
    counts = np.bincount(strata, minlength=len(sizes))
    codes = strata.astype(np.min_scalar_type(len(counts)), copy=False)
    order = np.argsort(codes, kind="stable")
    ends = np.cumsum(counts)
    pieces = [np.empty(0, dtype=np.int64)]
    for start, end, size in zip((ends - counts).tolist(), ends.tolist(), sizes):
        members = order[start:end]
        if size < len(members):
            members = rng.choice(members, size=int(size), replace=False)
        pieces.append(members)
    return np.sort(np.concatenate(pieces))


def group_estimates(
    sample: WeightedSample,
    group_column: str,
    value_column: Optional[str],
    agg: str = "sum",
) -> Dict[object, Estimate]:
    """Per-group SUM/COUNT/AVG estimates of ``sample`` under its own
    design (:meth:`~repro.sampling.base.WeightedSample.moments`): a group
    that is a stratum is an SRS of it, with FPC."""
    if agg not in ("sum", "count", "avg"):
        raise SynopsisError(f"unsupported per-group aggregate {agg!r}")
    moments = sample.moments(value_column, by=group_column)
    return dict(zip(moments[group_column].tolist(), cell_estimates(moments, agg)))
