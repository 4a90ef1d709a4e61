"""Row-level samplers: Bernoulli and fixed-size SRS.

The baseline samplers of all of AQP. Bernoulli sampling matches SQL's
``TABLESAMPLE BERNOULLI``; SRS matches ``ORDER BY random() LIMIT n``-style
fixed-size draws. Both are *statistically* ideal (independent rows) but
*systemically* expensive on block storage: they touch almost every block,
the inefficiency experiment E1/E3's cost curves expose.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..engine.table import Table
from .base import WeightedSample

#: At or above this rate one uniform per row costs less than one gap per
#: kept row, and :func:`bernoulli_positions` draws the row mask instead.
_GAP_RATE_LIMIT = 0.3


def bernoulli_positions(n: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Ascending positions in ``[0, n)``, each present independently with
    probability ``rate``.

    Below :data:`_GAP_RATE_LIMIT` the positions are drawn as the running
    sum of the gaps between successes, which are i.i.d. Geometric(rate):
    ``1 + floor(E / -log(1 - rate))`` with ``E`` standard exponential. That
    is O(rate·n) draws instead of one per row, with the same law; the
    random stream differs from a per-row mask's.
    """
    if rate >= _GAP_RATE_LIMIT:
        return np.flatnonzero(rng.random(n) < rate)
    scale = -1.0 / math.log1p(-rate)
    parts = [np.empty(0, dtype=np.int64)]
    last = -1
    while last < n - 1:
        expected = (n - 1 - last) * rate
        steps = rng.standard_exponential(int(expected + 4.0 * math.sqrt(expected)) + 16)
        steps *= scale
        np.minimum(steps, n, out=steps)  # a gap past the end: keeps sums in int64
        gaps = steps.astype(np.int64)
        gaps += 1
        positions = np.cumsum(gaps)
        positions += last
        parts.append(positions)
        last = int(positions[-1])
    rows = np.concatenate(parts)
    return rows[: np.searchsorted(rows, n)]


def bernoulli_sample(
    table: Table, rate: float, rng: Optional[np.random.Generator] = None
) -> WeightedSample:
    """Keep each row independently with probability ``rate``."""
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if rng is None:
        rng = np.random.default_rng()
    mask = rng.random(table.num_rows) < rate
    sampled = table.take(mask)
    weights = np.full(sampled.num_rows, 1.0 / rate)
    return WeightedSample(
        table=sampled,
        weights=weights,
        method="bernoulli_rows",
        population_rows=table.num_rows,
        params={"rate": rate},
    )


def srs_sample(
    table: Table, size: int, rng: Optional[np.random.Generator] = None
) -> WeightedSample:
    """Simple random sample of exactly ``size`` rows without replacement."""
    if size < 0:
        raise ValueError("size must be non-negative")
    if rng is None:
        rng = np.random.default_rng()
    n = table.num_rows
    size = min(size, n)
    idx = rng.choice(n, size=size, replace=False) if size else np.array([], dtype=np.int64)
    sampled = table.take(np.sort(idx))
    weights = np.full(size, n / size if size else 1.0)
    return WeightedSample(
        table=sampled,
        weights=weights,
        method="srs_rows",
        population_rows=n,
        params={"size": size},
    )


def systematic_sample(
    table: Table, step: int, rng: Optional[np.random.Generator] = None
) -> WeightedSample:
    """Every ``step``-th row from a random start offset.

    Cheap to execute on sequential storage but dangerous on periodic data
    — included as the classic example of a sampler whose validity depends
    on physical layout (a survey caveat about 'sampling is not one thing').
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    n = table.num_rows
    start = int(rng.integers(0, step)) if n else 0
    idx = np.arange(start, n, step, dtype=np.int64)
    sampled = table.take(idx)
    weights = np.full(len(idx), float(step))
    return WeightedSample(
        table=sampled,
        weights=weights,
        method="systematic_rows",
        population_rows=n,
        params={"step": step, "start": start},
    )
