"""End-to-end integration tests over the TPC-H / SSB workloads.

These tie the whole stack together: SQL in, approximate answers with
honest guarantees out, across planners — the "does the system actually
deliver what the paper's taxonomy promises" checks.
"""

import numpy as np
import pytest

from repro import ApproximateResult, Database, ErrorSpec, QueryResult
from repro.core.options import QueryOptions
from repro.workloads import (
    SSB_LITE_QUERIES,
    TPCH_LITE_QUERIES,
    generate_tpch,
)


@pytest.fixture(scope="module")
def big_tpch():
    """Large enough that block sampling is profitable."""
    return generate_tpch(scale=5.0, seed=7, block_size=512)


def exact_lookup(db, sql, key_cols, agg_cols):
    exact = db.sql(sql)
    out = {}
    for row in exact.to_pylist():
        key = tuple(row[k] for k in key_cols)
        out[key] = {a: row[a] for a in agg_cols}
    return out


@pytest.mark.slow
class TestTPCHApproximation:
    def test_every_query_runs_approximately(self, big_tpch):
        for name, sql in TPCH_LITE_QUERIES.items():
            res = big_tpch.sql(
                sql + " ERROR WITHIN 10% CONFIDENCE 95%",
                options=QueryOptions(seed=11),
            )
            assert isinstance(res, (ApproximateResult, QueryResult)), name

    def test_q6_error_within_spec(self, big_tpch):
        sql = TPCH_LITE_QUERIES["q6_forecast"]
        truth = big_tpch.sql(sql).scalar()
        for seed in range(6):
            res = big_tpch.sql(
                sql + " ERROR WITHIN 10% CONFIDENCE 95%",
                options=QueryOptions(seed=seed),
            )
            if res.is_approximate:
                assert abs(res.scalar() - truth) / truth <= 0.10

    def test_grouped_query_all_groups_within_spec(self, big_tpch):
        sql = TPCH_LITE_QUERIES["q12_shipmode"]
        truth = exact_lookup(big_tpch, sql, ["l_shipmode"], ["line_count", "total"])
        res = big_tpch.sql(
            sql + " ERROR WITHIN 10% CONFIDENCE 95%",
            options=QueryOptions(seed=3),
        )
        assert res.is_approximate
        for row in res.to_pylist():
            t = truth[(row["l_shipmode"],)]
            assert row["total"] == pytest.approx(t["total"], rel=0.10)
            assert row["line_count"] == pytest.approx(t["line_count"], rel=0.10)

    def test_no_groups_missed(self, big_tpch):
        sql = TPCH_LITE_QUERIES["q1_pricing"]
        exact_rows = big_tpch.sql(sql).table.num_rows
        res = big_tpch.sql(
            sql + " ERROR WITHIN 10% CONFIDENCE 95%",
            options=QueryOptions(seed=4),
        )
        assert res.table.num_rows == exact_rows

    def test_join_query_approximation(self, big_tpch):
        sql = TPCH_LITE_QUERIES["priority_revenue"]
        truth = exact_lookup(big_tpch, sql, ["priority"], ["rev"])
        res = big_tpch.sql(
            sql + " ERROR WITHIN 10% CONFIDENCE 95%",
            options=QueryOptions(seed=5),
        )
        for row in res.to_pylist():
            assert row["rev"] == pytest.approx(
                truth[(row["priority"],)]["rev"], rel=0.12
            )

    def test_speedups_material(self, big_tpch):
        """At this scale the pilot should accelerate the scan-bound
        queries by a clear margin in cost-model terms."""
        res = big_tpch.sql(
            "SELECT AVG(l_extendedprice) AS a FROM lineitem "
            "ERROR WITHIN 5% CONFIDENCE 95%",
            options=QueryOptions(seed=6),
        )
        assert res.is_approximate and res.speedup > 3

    def test_repeatability_with_seed(self, big_tpch):
        sql = TPCH_LITE_QUERIES["q6_forecast"] + " ERROR WITHIN 10% CONFIDENCE 95%"
        a = big_tpch.sql(sql, options=QueryOptions(seed=99))
        b = big_tpch.sql(sql, options=QueryOptions(seed=99))
        assert a.scalar() == pytest.approx(b.scalar())


class TestGuaranteeSemantics:
    """The joint-probability semantics of §2.4-style specs, empirically."""

    @pytest.fixture(scope="class")
    def db(self):
        rng = np.random.default_rng(13)
        n = 250_000
        db = Database()
        db.create_table(
            "t",
            {
                "v": rng.gamma(2.0, 30.0, n),
                "g": rng.integers(0, 5, n),
            },
            block_size=512,
        )
        return db

    def test_joint_guarantee_across_cells(self, db):
        spec_err = 0.08
        t = db.table("t")
        truth = {
            g: (t["v"][t["g"] == g].sum(), (t["g"] == g).sum())
            for g in range(5)
        }
        violations = 0
        trials = 10
        for seed in range(trials):
            res = db.sql(
                "SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g "
                f"ERROR WITHIN {spec_err * 100:.0f}% CONFIDENCE 95%",
                options=QueryOptions(seed=seed),
            )
            if not res.is_approximate:
                continue
            ok = True
            for row in res.to_pylist():
                ts, tc = truth[int(row["g"])]
                if abs(row["s"] - ts) / ts > spec_err:
                    ok = False
                if abs(row["c"] - tc) / tc > spec_err:
                    ok = False
            violations += not ok
        # 95% joint confidence over 10 trials: >1 violation is (very)
        # unlikely given the planner's conservatism.
        assert violations <= 1

    def test_reported_cis_cover_truth(self, db):
        t = db.table("t")
        truth = t["v"].sum()
        res = db.sql(
            "SELECT SUM(v) AS s FROM t ERROR WITHIN 5% CONFIDENCE 95%",
            options=QueryOptions(seed=21),
        )
        cell = res.estimate("s")
        assert cell.ci_low <= truth <= cell.ci_high
