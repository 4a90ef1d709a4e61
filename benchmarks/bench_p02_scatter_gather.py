"""P2 — scatter-gather fan-out: N-shard serving vs the single-table path.

The robustness layer must not tax the happy path: fanning an aggregate
out to shards and merging partials has to cost no more than running the
same query through the single-table engine. Each shard skips the
per-query plan machinery (the query is bound once, the shard scan is a
straight columnar pass), so the fan-out amortizes.

We time SUM+COUNT with a selective predicate over 2M rows, single-table
engine vs scatter-gather at 1/2/4/8 shards, best-of-3 per point. With no
deadline the executor runs shards one after another in the calling
thread, so the pool width does not enter. The claim pinned: >= 4 shards
is no slower than the single-table path, within a noise allowance.
"""

import time

import numpy as np
import pytest

from common import table, write_report
from repro import Database
from repro.sharding import ScatterGatherExecutor, ShardedTable

N_ROWS = 2_000_000
SHARD_COUNTS = (1, 2, 4, 8)
QUERY = "SELECT SUM(v) AS s, COUNT(*) AS c FROM events WHERE v > 5"
#: allowed slowdown of >=4-shard scatter-gather vs single-table (noise
#: allowance on shared/1-core runners; the recorded ratio is the claim)
MAX_RATIO = 1.25
REPEATS = 3


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(3)
    db = Database()
    db.create_table(
        "events",
        {
            "v": rng.exponential(10.0, N_ROWS),
            "k": rng.integers(0, 1000, N_ROWS),
        },
    )
    return db


def _best(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_p02_scatter_gather(world):
    db = world
    base = db.table("events")
    exact = db.sql(QUERY).table["s"][0]

    def compute():
        single = _best(lambda: db.sql(QUERY))
        rows = []
        ratios = {}
        for shards in SHARD_COUNTS:
            ex = ScatterGatherExecutor(ShardedTable.from_table(base, shards))
            result = ex.sql(QUERY)
            assert abs(result.table["s"][0] - exact) < 1e-4
            elapsed = _best(lambda: ex.sql(QUERY))
            ratios[shards] = elapsed / single
            rows.append(
                (shards, f"{elapsed * 1e3:.1f}", f"{ratios[shards]:.2f}x")
            )
        return single, rows, ratios

    single, rows, ratios = compute()
    write_report(
        "P02_scatter_gather",
        [
            f"scatter-gather vs single-table, {N_ROWS:,} rows, "
            f"single-table {single * 1e3:.1f} ms (best of {REPEATS})",
            "",
            *table(["shards", "ms", "vs single"], rows),
        ],
    )
    for shards in SHARD_COUNTS:
        if shards >= 4:
            assert ratios[shards] <= MAX_RATIO, (
                f"{shards}-shard scatter-gather is {ratios[shards]:.2f}x "
                f"the single-table path (allowed {MAX_RATIO:g}x)"
            )
