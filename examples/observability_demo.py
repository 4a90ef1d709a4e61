"""Query-lifecycle observability, end to end: traces, metrics, EXPLAIN.

AQP's whole pitch is a trade — accuracy for time — and a trade you
cannot see is a trade you cannot audit. This example drives the
observability layer (:mod:`repro.obs`, DESIGN.md §2.13) through five
acts:

1. ``EXPLAIN ANALYZE`` on an approximate query: plan, span tree, cost;
2. the same query traced programmatically, dumped as schema-validated
   JSON;
3. a degradation-ladder query whose trace shows the descent (a faulted
   rung, the rung that rescued it, the injected ``fault`` span);
4. a scatter-gather query with one ``shard.<i>`` subtree per worker;
5. the process-wide metrics registry accumulated across all of it.

Run:  python examples/observability_demo.py
"""

import numpy as np

from repro import Database, QueryOptions
from repro.engine.table import Table
from repro.obs import (
    Tracer,
    get_metrics,
    render_span_tree,
    trace_scope,
    validate_span,
)
from repro.offline.catalog import SampleEntry, SynopsisCatalog
from repro.resilience import FaultInjector, FaultSpec, ResilientEngine, inject
from repro.sampling.row import srs_sample
from repro.sharding import ScatterGatherExecutor, ShardedTable

NUM_ROWS = 120_000
QUERY = "SELECT SUM(price) AS s FROM sales ERROR WITHIN 5% CONFIDENCE 95%"


def build_world() -> Database:
    rng = np.random.default_rng(7)
    prices = rng.lognormal(3.0, 1.0, NUM_ROWS)
    db = Database()
    db.create_table("sales", {"price": prices})
    # A sample built at 80% of the table: stale, so the ladder's second
    # rung has something to widen when the requested rung is broken.
    prefix = int(NUM_ROWS * 0.8)
    sample = srs_sample(
        Table({"price": prices[:prefix]}, name="sales"),
        2_000,
        np.random.default_rng(13),
    )
    SynopsisCatalog(db).add_sample(
        SampleEntry(
            table="sales", sample=sample, kind="uniform",
            built_at_rows=prefix,
        )
    )
    return db


def act1_explain_analyze(db: Database) -> None:
    print("=== 1. EXPLAIN ANALYZE ===")
    print(db.sql("EXPLAIN ANALYZE " + QUERY, options=QueryOptions(seed=3)))
    print()


def act2_programmatic(db: Database) -> None:
    print("=== 2. trace_scope + JSON span tree ===")
    with trace_scope(Tracer()) as tracer:
        db.sql(QUERY, options=QueryOptions(seed=3))
    doc = tracer.to_dict()
    errors = [e for root in doc["spans"] for e in validate_span(root)]
    root = doc["spans"][0]
    print(
        f"  {len(tracer.spans)} spans, root {root['name']!r} "
        f"technique={root['attributes'].get('technique')}, "
        f"schema errors: {errors or 'none'}"
    )
    print()


def act3_ladder_descent(db: Database) -> None:
    print("=== 3. a traced descent down the ladder ===")
    engine = ResilientEngine(db, warn_on_degrade=False)
    injector = FaultInjector(
        [FaultSpec(site="ladder.requested", kind="error")], seed=5
    )
    tracer = Tracer()
    with trace_scope(tracer):
        with inject(injector):
            result = engine.sql(QUERY, options=QueryOptions(seed=3))
    print(render_span_tree(tracer, show_timing=False))
    print(f"  served from rung: {result.provenance[-1]['rung']}")
    print()


def act4_sharded(db: Database) -> None:
    print("=== 4. scatter-gather: one subtree per shard ===")
    sharded = ShardedTable.from_table(db.table("sales"), 4)
    executor = ScatterGatherExecutor(sharded, max_workers=4)
    tracer = Tracer()
    with trace_scope(tracer):
        executor.sql(
            "SELECT SUM(price) AS s FROM sales",
            options=QueryOptions(seed=3),
        )
    print(render_span_tree(tracer, show_timing=False))
    print()


def act5_metrics() -> None:
    print("=== 5. the metrics registry saw all of it ===")
    snapshot = get_metrics().snapshot(include_caches=False)
    for name, value in sorted(snapshot["counters"].items()):
        print(f"  {name} = {value:g}")


def main() -> None:
    db = build_world()
    act1_explain_analyze(db)
    act2_programmatic(db)
    act3_ladder_descent(db)
    act4_sharded(db)
    act5_metrics()


if __name__ == "__main__":
    main()
