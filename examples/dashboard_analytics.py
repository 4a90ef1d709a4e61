"""Dashboard analytics with precomputed samples (the BlinkDB workflow).

The scenario the offline-AQP literature targets: a BI dashboard fires the
same family of group-by queries all day. We:

1. declare the expected workload (which columns dashboards group by),
2. let the BlinkDB-style selector choose stratified samples under a
   storage budget,
3. serve dashboard queries from the samples with a-priori error checks,
4. then *drift* the workload and watch coverage collapse — the
   maintenance/workload-sensitivity trade-off in action.

Run:  python examples/dashboard_analytics.py
"""

import numpy as np

from repro import Database, ErrorSpec, QueryOptions
from repro.offline import (
    BlinkDBSelector,
    QueryTemplate,
    SynopsisCatalog,
    workload_coverage,
)
from repro.workloads import WorkloadGenerator, WorkloadSpec, drift

SEED = 42
NUM_ROWS = 500_000


def build_clickstream() -> Database:
    rng = np.random.default_rng(SEED)
    db = Database()
    db.create_table(
        "events",
        {
            "latency_ms": rng.lognormal(4.0, 1.0, NUM_ROWS),
            "bytes": rng.exponential(2048.0, NUM_ROWS),
            "country": rng.integers(0, 40, NUM_ROWS),
            "browser": rng.integers(0, 8, NUM_ROWS),
            "page": rng.integers(0, 200, NUM_ROWS),
            "selector": rng.random(NUM_ROWS),
        },
        block_size=1024,
    )
    return db


def main() -> None:
    db = build_clickstream()
    catalog = SynopsisCatalog(db)

    # 1. The dashboards we expect to serve.
    expected = [
        QueryTemplate("events", ("country",), frequency=10.0),
        QueryTemplate("events", ("browser",), frequency=6.0),
        QueryTemplate("events", ("country", "browser"), frequency=2.0),
    ]

    # 2. Pick samples under a 60k-row budget.
    selector = BlinkDBSelector(db, budget_rows=60_000, rows_per_stratum=300, seed=SEED)
    entries, coverage = selector.build_for_workload(expected)
    print(f"selected {len(entries)} sample(s); expected-workload coverage "
          f"{coverage:.0%}; storage used {catalog.storage_rows():,} rows "
          f"of {db.table('events').num_rows:,}")

    # 3. Serve a dashboard query.
    query = (
        "SELECT browser, AVG(latency_ms) AS avg_latency, COUNT(*) AS hits "
        "FROM events GROUP BY browser ERROR WITHIN 10% CONFIDENCE 95%"
    )
    result = db.sql(query, options=QueryOptions(seed=SEED))
    print(f"\ndashboard query served by: {result.technique}")
    exact = db.sql(
        "SELECT browser, AVG(latency_ms) AS avg_latency FROM events GROUP BY browser"
    )
    truth = {r["browser"]: r["avg_latency"] for r in exact.to_pylist()}
    for row in sorted(result.to_pylist(), key=lambda r: r["browser"]):
        err = abs(row["avg_latency"] - truth[row["browser"]]) / truth[row["browser"]]
        print(
            f"  browser {row['browser']}: avg latency {row['avg_latency']:8.1f} ms "
            f"(true error {err:.2%}, hits≈{row['hits']:9.0f})"
        )

    # 4. The workload drifts: analysts pivot to per-page breakdowns.
    spec = WorkloadSpec(
        table="events",
        column_weights={"country": 10.0, "browser": 6.0, "page": 0.5},
        measure="latency_ms",
        selector=None,
    )
    print("\nworkload drift sweep (coverage of the live workload by the "
          "precomputed samples):")
    for amount in (0.0, 0.25, 0.5, 0.75, 1.0):
        live = WorkloadGenerator(drift(spec, amount), seed=1).sample_templates(200)
        cov = workload_coverage(catalog, live)
        bar = "#" * int(cov * 40)
        print(f"  drift={amount:4.2f}  coverage={cov:6.1%}  {bar}")

    print(
        "\nAs the workload drifts toward columns nobody pre-sampled, the\n"
        "offline catalog answers less and less — queries fall back to the\n"
        "online planners (or exact execution), which is exactly the\n"
        "generality limitation the survey attributes to offline AQP."
    )


if __name__ == "__main__":
    main()
