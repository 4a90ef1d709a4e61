"""Row-level samplers: Bernoulli and fixed-size SRS.

The baseline samplers of all of AQP. Bernoulli sampling matches SQL's
``TABLESAMPLE BERNOULLI``; SRS matches ``ORDER BY random() LIMIT n``-style
fixed-size draws. Both are *statistically* ideal (independent rows) but
*systemically* expensive on block storage: they touch almost every block,
the inefficiency experiment E1/E3's cost curves expose.

Each design has one selection function, :func:`bernoulli_selection` and
:func:`srs_selection`, returning ascending row positions and their HT
weights. A ``bernoulli_rows`` or ``fixed_rows`` scan directive calls it
(``fixed_blocks`` is :func:`srs_selection` over block ids), and so do the
library samplers, which add one ``take``; seeded alike, the two select
the same rows.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..engine.table import Table
from .base import WeightedSample, materialize_sample

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


def bernoulli_selection(
    n: int, rate: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Bernoulli(``rate``) rows of ``n``: :func:`bernoulli_positions` and
    their weights ``1/rate``."""
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    rows = bernoulli_positions(n, rate, rng)
    return rows, np.full(len(rows), 1.0 / rate)


def srs_selection(
    n: int, size: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """An SRS of ``min(size, n)`` of ``n`` units without replacement:
    ascending positions and their weights ``n/size``."""
    if size < 0:
        raise ValueError("size must be non-negative")
    size = min(size, n)
    if not size:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.sort(rng.choice(n, size=size, replace=False)), np.full(size, n / size)


def bernoulli_sample(
    table: Table, rate: float, rng: Optional[np.random.Generator] = None
) -> WeightedSample:
    """Keep each row independently with probability ``rate``."""
    rows, weights = bernoulli_selection(table.num_rows, rate, np.random.default_rng(rng))
    return materialize_sample(table, rows, weights, "bernoulli_rows", {"rate": rate})


def srs_sample(
    table: Table, size: int, rng: Optional[np.random.Generator] = None
) -> WeightedSample:
    """Simple random sample of exactly ``size`` rows without replacement."""
    rows, weights = srs_selection(table.num_rows, size, np.random.default_rng(rng))
    return materialize_sample(table, rows, weights, "srs_rows", {"size": len(rows)})


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
    n = table.num_rows
    start = int(np.random.default_rng(rng).integers(0, step)) if n else 0
    idx = np.arange(start, n, step, dtype=np.int64)
    return materialize_sample(
        table, idx, np.full(len(idx), float(step)), "systematic_rows",
        {"step": step, "start": start},
    )
