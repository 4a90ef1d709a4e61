"""Ad-hoc data exploration over TPC-H-lite with online AQP.

The scenario the online-AQP line (Quickr, pilot-based planning) targets:
an analyst fires queries nobody anticipated, so nothing is precomputed.
Every query below goes through the advisor, which plans a fresh sampling
strategy per query and falls back to exact execution when sampling cannot
help (selective predicates, non-linear aggregates).

Run:  python examples/adhoc_exploration.py
"""

from repro import ApproximateResult, QueryOptions
from repro.workloads import generate_tpch

SEED = 3

SESSION = [
    (
        "How big is the lineitem table's revenue overall?",
        "SELECT SUM(l_extendedprice) AS revenue FROM lineitem",
    ),
    (
        "Average discount on large orders?",
        "SELECT AVG(l_discount) AS avg_disc FROM lineitem WHERE l_quantity > 40",
    ),
    (
        "Revenue by ship mode, recent shipments only",
        "SELECT l_shipmode, SUM(l_extendedprice) AS revenue, COUNT(*) AS n "
        "FROM lineitem WHERE l_shipdate > 1500 GROUP BY l_shipmode",
    ),
    (
        "Revenue by order priority (join with orders)",
        "SELECT o.o_orderpriority AS priority, SUM(l.l_extendedprice) AS rev "
        "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
        "GROUP BY o.o_orderpriority",
    ),
    (
        "A needle-in-haystack filter (sampling should refuse)",
        "SELECT SUM(l_extendedprice) AS s FROM lineitem "
        "WHERE l_extendedprice > 49990",
    ),
    (
        "A non-linear aggregate (sampling cannot bound it)",
        "SELECT MAX(l_extendedprice) AS most_expensive FROM lineitem",
    ),
]


def main() -> None:
    print("generating TPC-H-lite at scale 5 (~600k lineitem rows)...")
    db = generate_tpch(scale=5.0, seed=SEED, block_size=512)

    for question, sql in SESSION:
        print(f"\n--- {question}")
        approx = db.sql(
            sql + " ERROR WITHIN 5% CONFIDENCE 95%",
            options=QueryOptions(seed=SEED),
        )
        exact = db.sql(sql)
        if isinstance(approx, ApproximateResult):
            print(
                f"    technique={approx.technique}  "
                f"blocks read={approx.fraction_scanned:.1%}  "
                f"speedup~{approx.speedup:.1f}x  "
                f"(diag: {approx.diagnostics.get('sampling_rate') or approx.diagnostics.get('rate')})"
            )
            for alias, row, cell in approx.iter_estimates()[:6]:
                truth_col = exact.table[alias]
                truth = float(truth_col[min(row, len(truth_col) - 1)])
                achieved = abs(cell.value - truth) / abs(truth) if truth else 0.0
                print(
                    f"    {alias}[{row}] ≈ {cell.value:14.2f}  "
                    f"true {truth:14.2f}  err {achieved:.2%}  "
                    f"CI ±{cell.relative_half_width:.2%}"
                )
        else:
            print(
                "    advisor fell back to EXACT execution "
                f"(rows={approx.table.num_rows}) — sampling was infeasible "
                "or unprofitable for this query."
            )
            first = approx.table.column_names[0]
            print(f"    {first} = {approx.table[first][:3]} ...")


if __name__ == "__main__":
    main()
