"""P1 — sketch ingestion throughput: vectorized batch vs per-item loop.

The perf claim behind the vectorized kernels: ingesting a column through
one batched ``add`` call must beat the naive one-item-at-a-time loop by
an order of magnitude, because the batch path converts the column to
hashable uint64s once and hashes all sketch rows in a few numpy passes,
while the scalar loop pays Python dispatch + array wrapping + hashing
per item.

The batch path ingests the full column; the scalar loop is timed on a
subsample (it is ~100x slower, and rows/sec is what we compare). Both
paths produce bit-identical sketch state — the property tests in
tests/test_sketches.py pin that; here we only assert throughput.
"""

import time

import numpy as np
import pytest

from common import table, write_report
from repro.sketches import CountMinSketch, HyperLogLog, KMVSketch

N_BATCH = 1_000_000
N_SCALAR = 8_000  # scalar loop subsample; rows/sec is rate-normalized
REQUIRED_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def keys():
    """String keys — the representative (and hardest) hashing case."""
    rng = np.random.default_rng(41)
    ids = rng.zipf(1.3, N_BATCH) % 250_000
    return np.array([f"user-{i:06d}" for i in ids])


def _make(kind: str):
    if kind == "countmin":
        return CountMinSketch(epsilon=0.005, delta=0.01, seed=7)
    if kind == "hll":
        return HyperLogLog(precision=12, seed=7)
    return KMVSketch(k=1024, seed=7)


def _rows_per_sec_scalar(kind: str, keys: np.ndarray) -> float:
    sketch = _make(kind)
    sub = keys[:N_SCALAR]
    start = time.perf_counter()
    for value in sub:
        sketch.add(value)
    elapsed = time.perf_counter() - start
    return len(sub) / elapsed


def _rows_per_sec_batch(kind: str, keys: np.ndarray) -> float:
    sketch = _make(kind)
    start = time.perf_counter()
    sketch.add(keys)
    elapsed = time.perf_counter() - start
    return len(keys) / elapsed


def test_p01_ingest_throughput(keys):
    def compute():
        rows = []
        for kind in ("countmin", "hll", "kmv"):
            scalar = _rows_per_sec_scalar(kind, keys)
            batch = _rows_per_sec_batch(kind, keys)
            speedup = batch / scalar
            rows.append((kind, f"{scalar:,.0f}", f"{batch:,.0f}", f"{speedup:.1f}x"))
        return rows

    rows = compute()
    write_report(
        "P01_sketch_ingest",
        [
            f"sketch ingestion, {N_BATCH:,} string keys "
            f"(scalar loop sampled at {N_SCALAR:,})",
            "",
            *table(["sketch", "scalar rows/s", "batch rows/s", "speedup"], rows),
        ],
    )
    for kind, _, _, speedup in rows:
        assert float(speedup[:-1]) >= REQUIRED_SPEEDUP, (
            f"{kind}: batch ingest only {speedup} over scalar loop "
            f"(need >= {REQUIRED_SPEEDUP:g}x)"
        )
