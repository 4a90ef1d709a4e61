"""The concurrent serving front-end, end to end: admit, budget, shed.

One `Database` can answer one query honestly; a *serving system* must
answer many at once, from tenants with different entitlements, under
bursts it did not provision for. This example drives
:class:`~repro.serving.ServingFrontend` through four acts —

1. calm traffic: the frontend is a transparent wrapper (same answer the
   raw engine gives, shed level 0, nothing skipped),
2. a tenant on a small cost budget: admission charges the pessimistic
   full-scan estimate, completion refunds what approximation saved, and
   an empty bucket is a typed ``QueryRejected(reason="budget")``,
3. a 6x overload burst into a tiny queue: synchronous typed overload
   rejections plus adaptive shedding that enters the degradation ladder
   at a lower rung fleet-wide (``shed_to`` provenance on every skip),
4. recovery: calm traffic steps the shed level back down (slowly — fast
   attack, slow release).

Run:  python examples/serving_demo.py
"""

import numpy as np

from repro import Database, QueryOptions
from repro.core.exceptions import QueryRejected
from repro.serving import ServingFrontend, TenantBudgets

NUM_ROWS = 120_000
SEED = 7

QUERY = "SELECT SUM(v) AS s FROM events ERROR WITHIN 10% CONFIDENCE 95%"


def main() -> None:
    rng = np.random.default_rng(SEED)
    values = rng.lognormal(2.0, 1.0, NUM_ROWS)
    truth = float(values.sum())

    db = Database()
    db.create_table("events", {"v": values}, block_size=2048)
    print(f"true SUM(v) = {truth:.1f} over {NUM_ROWS:,} rows\n")

    # ------------------------------------------------------------------
    print("=== act 1: calm traffic — the frontend is transparent ===")
    fe = ServingFrontend(db, workers=2, max_queue=32, seed=SEED)
    direct = db.sql(QUERY, options=QueryOptions(seed=1))
    served = fe.sql(QUERY, options=QueryOptions(seed=1))
    cell = served.estimate("s", 0)
    print(f"  direct engine : {direct.estimate('s', 0).value:.1f}")
    print(f"  via frontend  : {cell.value:.1f}  "
          f"CI [{cell.ci_low:.1f}, {cell.ci_high:.1f}]")
    assert served.estimate("s", 0).value == direct.estimate("s", 0).value
    print("  identical — at shed level 0 the wrapper adds nothing.\n")
    fe.close()

    # ------------------------------------------------------------------
    print("=== act 2: per-tenant budgets in simulated cost units ===")
    budgets = TenantBudgets()
    fe = ServingFrontend(db, workers=2, max_queue=32, budgets=budgets,
                         seed=SEED)
    estimate = fe.estimate_cost(QUERY)
    # Enough for the *estimate* (a full scan) exactly twice.
    budgets.configure("acme", capacity=2.2 * estimate, refill_rate=0.0)
    print(f"  full-scan admission estimate: {estimate:.1f} cost units; "
          f"tenant 'acme' holds {2.2 * estimate:.1f}")
    for i in range(4):
        before = budgets.available("acme")
        try:
            fe.sql(QUERY, options=QueryOptions(tenant="acme", seed=10 + i))
            after = budgets.available("acme")
            print(f"  query {i}: served   (available {before:8.1f} -> "
                  f"{after:8.1f}; sampling refunded most of the charge)")
        except QueryRejected as exc:
            print(f"  query {i}: rejected (reason={exc.reason!r}, "
                  f"available {before:.1f} < estimate {estimate:.1f})")
    fe.close()
    print("  approximate queries reconcile cheap — the bucket outlasts "
          "2 full-scan charges.\n")

    # ------------------------------------------------------------------
    print("=== act 3: a 6x burst into a queue of 4 — shed, don't fall ===")
    fe = ServingFrontend(db, workers=1, max_queue=4, seed=SEED)
    tickets, rejected = [], 0
    for i in range(24):
        try:
            tickets.append(fe.submit(
                QUERY,
                options=QueryOptions(
                    tenant=f"t{i % 3}",
                    priority="interactive" if i % 2 else "batch",
                    seed=100 + i,
                ),
            ))
        except QueryRejected:
            rejected += 1
    fe.drain(timeout=60.0)
    shed_counts = {}
    for t in tickets:
        result = t.result()
        for step in result.provenance:
            if step.get("shed_to"):
                shed_counts[step["shed_to"]] = (
                    shed_counts.get(step["shed_to"], 0) + 1
                )
    snap = fe.metrics_snapshot()
    print(f"  {len(tickets)} admitted, {rejected} rejected synchronously "
          f"(typed, reason='overload')")
    print(f"  final shed level: {snap['shed_level']}")
    if shed_counts:
        for rung, n in sorted(shed_counts.items()):
            print(f"  {n:3d} skipped-rung provenance steps with "
                  f"shed_to={rung!r}")
        print("  every shed is recorded per query — auditable, not a "
              "silent config flip.")
    sample = None
    if shed_counts:
        sample = next(
            (t for t in tickets
             if any(s.get("shed_to") for s in t.result().provenance)),
            None,
        )
    if sample is not None:
        print("  one shed query's ladder trail:")
        for step in sample.result().provenance:
            extra = f" shed_to={step['shed_to']}" if step.get("shed_to") else ""
            print(f"    [{step['outcome']:>7}] {step['rung']}{extra}")
    print()

    # ------------------------------------------------------------------
    print("=== act 4: recovery — calm traffic steps the level down ===")
    level = fe.metrics_snapshot()["shed_level"]
    waves = 0
    while fe.metrics_snapshot()["shed_level"] > 0 and waves < 40:
        fe.sql(QUERY, options=QueryOptions(seed=200 + waves))
        waves += 1
    print(f"  started at level {level}; back to level "
          f"{fe.metrics_snapshot()['shed_level']} after {waves} calm "
          f"queries (recovery needs consecutive calm evaluations).")
    fe.close()


if __name__ == "__main__":
    main()
