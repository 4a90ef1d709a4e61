"""The degradation ladder, end to end: answer, degrade, refuse.

A serving system built on AQP has failure modes the techniques
themselves don't model: the synopsis is stale, the builder is flaky, the
deadline was mostly gone before the query arrived. This example drives
:class:`~repro.resilience.ladder.ResilientEngine` through four acts —

1. a healthy query served at the requested rung,
2. a broken requested rung rescued by a *stale* sample with honestly
   widened error bars,
3. a nearly-exhausted deadline served from a partial online-aggregation
   snapshot,
4. every rung faulted at once, ending in a typed ``QueryRefused`` —

printing the ``provenance`` trail each outcome carries.

Run:  python examples/resilience_demo.py
"""

import warnings

import numpy as np

from repro import Database, QueryOptions
from repro.core.exceptions import DegradedAnswer, QueryRefused
from repro.engine.table import Table
from repro.offline.catalog import SampleEntry, SynopsisCatalog
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultSpec,
    ManualClock,
    ResilientEngine,
    inject,
)
from repro.sampling.row import srs_sample

NUM_ROWS = 200_000
SEED = 11

QUERY = "SELECT SUM(price) AS s FROM sales ERROR WITHIN 5% CONFIDENCE 95%"


def show(title, result=None, refusal=None, truth=None):
    print(f"=== {title} ===")
    provenance = result.provenance if result is not None else refusal.provenance
    for step in provenance:
        line = f"  [{step['outcome']:>7}] {step['rung']}"
        if step.get("detail"):
            line += f"  ({step['detail']})"
        if step.get("error"):
            line += f"  error: {step['error']}"
        print(line)
    if result is not None:
        cell = result.estimate("s", 0)
        err = abs(cell.value - truth) / truth
        print(
            f"  answer {cell.value:14.1f}  CI [{cell.ci_low:.1f}, {cell.ci_high:.1f}]"
            f"  true err {err:.2%}  degraded={result.is_degraded}"
        )
        if getattr(result, "spec", None) is not None:
            print(
                f"  claimed spec: rel error <= {result.spec.relative_error:.1%} "
                f"at {result.spec.confidence:.0%} confidence"
            )
    print()


def main() -> None:
    rng = np.random.default_rng(SEED)
    prices = rng.lognormal(3.0, 1.0, NUM_ROWS)
    truth = float(prices.sum())

    db = Database()
    db.create_table("sales", {"price": prices})

    # A sample built when the table was 20% smaller: usable, but stale.
    prefix = int(NUM_ROWS * 0.8)
    catalog = SynopsisCatalog(db)
    catalog.add_sample(
        SampleEntry(
            table="sales",
            sample=srs_sample(Table({"price": prices[:prefix]}, name="sales"),
                              2_000, rng),
            kind="uniform",
            built_at_rows=prefix,
        )
    )

    engine = ResilientEngine(db, warn_on_degrade=True)
    print(f"true SUM(price) = {truth:.1f}  over {NUM_ROWS:,} rows\n")

    # Act 1 — nothing is broken: the requested technique answers.
    result = engine.sql(QUERY, options=QueryOptions(seed=1))
    show("act 1: healthy — requested rung answers", result, truth=truth)

    # Act 2 — the requested rung dies; the stale sample steps in with
    # error bars widened by the staleness rule half' = half*(1+s) + s*|v|.
    kill_requested = FaultInjector(
        [FaultSpec(site="ladder.requested", kind="error", probability=1.0)],
        seed=0,
    )
    with inject(kill_requested), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = engine.sql(QUERY, options=QueryOptions(seed=2))
    show("act 2: requested rung broken — stale sample, widened bars",
         result, truth=truth)
    degraded_warnings = [w for w in caught
                         if issubclass(w.category, DegradedAnswer)]
    print(f"  (a DegradedAnswer warning was emitted: "
          f"{bool(degraded_warnings)})\n")

    # Act 3 — the deadline is gone before the query starts: the ladder
    # skips everything that needs time and serves the partial-OLA rung's
    # snapshot, an honest CI over whatever fraction one batch covers.
    clock = ManualClock()
    deadline = Deadline(2.0, clock=clock)
    clock.advance(2.5)  # simulated queueing: the query arrives late
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedAnswer)
        result = engine.sql(
            QUERY,
            options=QueryOptions(seed=3, deadline=deadline),
        )
    show("act 3: deadline pre-expired — partial-OLA snapshot",
         result, truth=truth)

    # Act 4 — every rung faulted: the only honest outcome is a typed
    # refusal that still explains exactly what was tried.
    kill_all = FaultInjector(
        [
            FaultSpec(site=f"ladder.{rung}", kind="error", probability=1.0)
            for rung in ("requested", "stale_synopsis", "cheaper_technique",
                         "partial_ola", "exact_no_guarantee")
        ],
        seed=0,
    )
    fresh = ResilientEngine(db, warn_on_degrade=False)
    with inject(kill_all):
        try:
            fresh.sql(QUERY, options=QueryOptions(seed=4))
        except QueryRefused as exc:
            show("act 4: everything broken — typed refusal with provenance",
                 refusal=exc)
            print(f"  refusal message: {exc}")


if __name__ == "__main__":
    main()
