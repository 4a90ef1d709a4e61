"""Quickstart: exact vs. approximate SQL in five minutes.

Creates a skewed sales table, runs the same aggregate query exactly and
with an ``ERROR WITHIN ... CONFIDENCE ...`` specification, and prints the
trade-off matrix the library's advisor reasons with.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Database, QueryOptions, comparison_matrix, format_matrix

SEED = 7
NUM_ROWS = 400_000


def build_database() -> Database:
    rng = np.random.default_rng(SEED)
    db = Database()
    db.create_table(
        "sales",
        {
            "price": np.round(rng.exponential(120.0, NUM_ROWS), 2),
            "quantity": rng.integers(1, 12, NUM_ROWS),
            "region": rng.choice(
                np.asarray(["east", "west", "north", "south"], dtype=object),
                NUM_ROWS,
            ),
            "channel": rng.choice(
                np.asarray(["web", "store", "phone"], dtype=object), NUM_ROWS
            ),
        },
        block_size=1024,
    )
    return db


def main() -> None:
    db = build_database()

    query = (
        "SELECT region, SUM(price) AS revenue, AVG(price) AS avg_price, "
        "COUNT(*) AS orders FROM sales WHERE quantity > 2 GROUP BY region "
        "ORDER BY revenue DESC"
    )

    print("=== exact execution ===")
    exact = db.sql(query)
    for row in exact.to_pylist():
        print(
            f"  {row['region']:>6}: revenue={row['revenue']:14.2f} "
            f"avg={row['avg_price']:8.2f} orders={row['orders']:9.0f}"
        )
    print(f"  blocks read: {exact.stats.blocks_scanned} (all of them)")

    print("\n=== approximate execution (±5% at 95% confidence) ===")
    approx = db.sql(
        query + " ERROR WITHIN 5% CONFIDENCE 95%",
        options=QueryOptions(seed=SEED),
    )
    for row in approx.to_pylist():
        print(
            f"  {row['region']:>6}: revenue={row['revenue']:14.2f} "
            f"avg={row['avg_price']:8.2f} orders={row['orders']:9.0f}"
        )
    print(f"  technique: {approx.technique}")
    print(f"  fraction of blocks read: {approx.fraction_scanned:.2%}")
    print(f"  estimated speedup (cost model): {approx.speedup:.1f}x")
    print(f"  widest reported CI (relative): {approx.max_relative_half_width():.2%}")

    # Compare side by side.
    print("\n=== exact vs approximate revenue ===")
    truth = {r["region"]: r["revenue"] for r in exact.to_pylist()}
    for row in approx.to_pylist():
        err = abs(row["revenue"] - truth[row["region"]]) / truth[row["region"]]
        cell = next(
            c for a, i, c in approx.iter_estimates() if a == "revenue"
            and approx.table["region"][i] == row["region"]
        )
        print(
            f"  {row['region']:>6}: achieved error {err:.2%}  "
            f"CI [{cell.ci_low:14.2f}, {cell.ci_high:14.2f}]"
        )

    print("\n=== the no-silver-bullet matrix ===")
    print(format_matrix(comparison_matrix()))
    print(
        "\nNo non-exact row maximizes generality, guarantee, and speedup\n"
        "simultaneously — the paper's thesis, as computed capabilities."
    )


if __name__ == "__main__":
    main()
