"""E9 — query-time sampling (Quickr): ad-hoc coverage, one pass, bounded
gains, a-posteriori errors.

Claims: (a) Quickr answers ad-hoc queries with no precomputation and at
most one pass over the data, so its speedup is real but bounded by the
scan; (b) its errors are only known *after* execution — a share of
queries misses the requested error, unlike the pilot planner which either
guarantees or refuses; (c) the distinct sampler keeps group coverage.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import ApproximateResult, ErrorSpec
from repro.online import QuickrPlanner, PilotPlanner
from repro.core.exceptions import InfeasiblePlanError, UnsupportedQueryError
from repro.sql import bind_sql
from repro.workloads import TPCH_LITE_QUERIES


QUERIES = ["q6_forecast", "q12_shipmode", "avg_price", "priority_revenue"]


def truth_map(db, sql, aggs):
    exact = db.sql(sql)
    out = []
    for row in exact.to_pylist():
        out.append({a: row[a] for a in aggs})
    return exact, out


def test_e09_quickr_vs_pilot_behaviour(tpch):
    spec = ErrorSpec(0.05, 0.95)

    def compute():
        rows = []
        for name in QUERIES:
            sql = TPCH_LITE_QUERIES[name]
            bound = bind_sql(sql, tpch)
            q = QuickrPlanner(tpch, seed=5).run(bound, spec)
            try:
                p = PilotPlanner(tpch, seed=5).run(bound, spec)
                pilot_out = ("approximate", p.speedup, p.fraction_scanned)
            except (InfeasiblePlanError, UnsupportedQueryError):
                pilot_out = ("refused", None, None)
            rows.append(
                (
                    name,
                    q.speedup,
                    q.diagnostics["met_spec"],
                    pilot_out[0],
                    pilot_out[1],
                )
            )
        return rows

    rows = compute()
    write_report(
        "e09_quickr_vs_pilot",
        table(
            ["query", "quickr speedup", "quickr met spec?", "pilot decision",
             "pilot speedup"],
            [
                (n, f"{s:.2f}", m, d, f"{ps:.2f}" if ps else "-")
                for n, s, m, d, ps in rows
            ],
        ),
    )
    # Shape: quickr speedups are bounded (one pass ⇒ < ~3x in this cost
    # model); it always *answers* but may miss the spec.
    for _, speedup, _, _, _ in rows:
        assert 0.8 < speedup < 3.0


def test_e09_a_posteriori_misses(tpch):
    """Run many grouped queries under a tight spec: quickr answers all of
    them, and a nonzero share fails the spec a posteriori."""

    def compute():
        spec = ErrorSpec(0.01, 0.95)  # deliberately tight for a 10% sample
        missed = answered = 0
        for seed in range(10):
            bound = bind_sql(TPCH_LITE_QUERIES["q12_shipmode"], tpch)
            res = QuickrPlanner(tpch, seed=seed).run(bound, spec)
            answered += 1
            if not res.diagnostics["met_spec"]:
                missed += 1
        return answered, missed

    answered, missed = compute()
    write_report(
        "e09_misses",
        table(
            ["answered", "missed ±1% spec (a posteriori)"],
            [(answered, missed)],
        ),
    )
    assert answered == 10
    assert missed >= 1  # best-effort errors: some misses expected


def test_e09_distinct_sampler_group_coverage(tpch):
    def compute():
        sql = (
            "SELECT l_partkey, SUM(l_extendedprice) AS s FROM lineitem "
            "GROUP BY l_partkey"
        )
        exact_groups = tpch.sql(sql).table.num_rows
        bound = bind_sql(sql, tpch)
        res = QuickrPlanner(tpch, seed=6).run(bound, ErrorSpec(0.1, 0.9))
        return exact_groups, res.table.num_rows, res.diagnostics["sampler"]

    exact_groups, approx_groups, sampler = compute()
    write_report(
        "e09_group_coverage",
        table(
            ["sampler chosen", "true groups", "groups in answer"],
            [(sampler, exact_groups, approx_groups)],
        ),
    )
    assert sampler == "distinct"
    assert approx_groups == exact_groups
