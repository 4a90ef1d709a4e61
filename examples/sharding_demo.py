"""Scatter-gather over shards, through a shard kill, honestly.

A table split across 8 shards answers an aggregate by fanning the query
out, merging per-shard partials, and reporting per-shard provenance.
This example runs three acts —

1. a healthy 8-shard query whose merged answer matches the single-table
   engine bit for bit,
2. a slow shard abandoned mid-scan and rescued by a hedged retry
   (still exact: the retry re-reads the whole shard),
3. a killed shard: the executor serves the surviving 7, widens the
   confidence interval by the dead shard's catalog envelope so the
   interval still covers the whole-table truth, and flags the answer
   degraded —

and a coda where too many shards die and the only honest answer is a
typed ``QueryRefused`` carrying the per-shard post-mortem.

Run:  python examples/sharding_demo.py
"""

import numpy as np

from repro import Database, QueryOptions
from repro.core.exceptions import QueryRefused
from repro.engine.table import Table
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultSpec,
    ManualClock,
    inject,
    kill_shard,
    shard_site,
)
from repro.sharding import ScatterGatherExecutor, ShardedTable

NUM_ROWS = 400_000
NUM_SHARDS = 8
#: small enough that every shard scan spans several blocks — the
#: straggler check in act 2 runs at block boundaries
BLOCK_SIZE = 8_192
SEED = 19

QUERY = "SELECT SUM(amount) AS s, COUNT(*) AS c FROM orders WHERE amount > 40"


def show(title, result=None, refusal=None, truth=None):
    print(f"=== {title} ===")
    provenance = (
        result.provenance if result is not None else refusal.provenance
    )
    for step in provenance:
        if "shard" in step:
            line = f"  shard {step['shard']}: {step['status']:>13}"
            if step.get("attempts"):
                line += f"  attempts={list(step['attempts'])}"
            if step.get("error"):
                line += f"  error: {step['error']}"
        else:
            line = (
                f"  [{step['outcome']:>6}] {step['rung']}"
                f"  ({step.get('detail', '')})"
            )
        print(line)
    if result is not None:
        if hasattr(result, "estimate"):
            cell = result.estimate("s", 0)
            covered = cell.ci_low <= truth <= cell.ci_high
            print(
                f"  SUM {cell.value:14.1f}  CI [{cell.ci_low:.1f}, "
                f"{cell.ci_high:.1f}]  covers truth: {covered}"
                f"  degraded={result.is_degraded}"
            )
        else:
            value = float(result.table["s"][0])
            print(f"  SUM {value:14.1f}  exact (== truth: "
                  f"{abs(value - truth) < 1e-6})")
    print()


def main() -> None:
    rng = np.random.default_rng(SEED)
    amounts = rng.exponential(50.0, NUM_ROWS)
    db = Database()
    db.create_table("orders", {"amount": amounts})
    truth = float(amounts[amounts > 40].sum())

    sharded = ShardedTable.from_table(
        Table({"amount": amounts}, name="orders", block_size=BLOCK_SIZE),
        NUM_SHARDS,
    )
    executor = ScatterGatherExecutor(sharded)

    # Act 1 — healthy fan-out: merged partials equal the engine's answer.
    result = executor.sql(QUERY)
    engine_answer = float(db.sql(QUERY).table["s"][0])
    assert abs(float(result.table["s"][0]) - engine_answer) < 1e-6
    show("act 1: 8 healthy shards, merged == single-table", result,
         truth=truth)

    # Act 2 — one straggler: the primary attempt is abandoned once it
    # eats past its carve-out of the deadline; the hedged retry finishes.
    clock = ManualClock()
    straggle = FaultSpec(
        site=shard_site(2, "scan"), kind="slow", delay=6.0,
        probability=1.0, max_fires=1,
    )
    hedger = ScatterGatherExecutor(sharded)
    with inject(FaultInjector([straggle], clock=clock)):
        result = hedger.sql(
            QUERY,
            options=QueryOptions(deadline=Deadline(10.0, clock=clock)),
        )
    show("act 2: straggler abandoned, hedge serves exact", result,
         truth=truth)

    # Act 3 — a dead shard: 7 of 8 served, interval widened by the dead
    # shard's catalog envelope, answer flagged degraded.
    with inject(FaultInjector([kill_shard(5)])):
        result = executor.sql(QUERY)
    show("act 3: shard 5 killed, widened bars still cover", result,
         truth=truth)

    # Coda — below quorum there is no honest interval left to widen.
    doomed = ScatterGatherExecutor(sharded)
    specs = [kill_shard(i) for i in range(5)]
    try:
        with inject(FaultInjector(specs)):
            doomed.sql(QUERY)
    except QueryRefused as exc:
        show("coda: 5 of 8 dead, typed refusal with provenance",
             refusal=exc)

    print("scatter-gather kept every answer honest: exact when whole, "
          "widened when partial, refused when broken")


if __name__ == "__main__":
    main()
