"""E14 — the No-Silver-Bullet matrix, measured.

The capstone: run a suite of query classes through every applicable
technique and score each technique on the paper's three axes with
*measured* values —

* generality: share of the query suite it answered within spec,
* guarantee:  whether its errors were bounded before execution
              (pilot/offline refuse rather than miss; quickr answers but
              may miss; exact is trivially bounded),
* speedup:    median cost-model speedup on the queries it answered.

Assertion: no technique maximizes all three — the thesis, measured.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import ApproximateResult, Database, ErrorSpec
from repro.core.exceptions import InfeasiblePlanError, UnsupportedQueryError
from repro.offline import BlinkDBSelector, QueryTemplate, SynopsisCatalog
from repro.online import PilotPlanner, QuickrPlanner
from repro.offline.rewriter import OfflineRewriter
from repro.sql import bind_sql

SPEC = ErrorSpec(0.10, 0.95)


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(31)
    n = 300_000
    db = Database()
    db.create_table(
        "facts",
        {
            "amount": rng.exponential(40.0, n),
            "heavy": rng.lognormal(3.0, 2.2, n),
            "cat": rng.integers(0, 8, n),
            "many": rng.integers(0, 2000, n),
            "sel": rng.random(n),
        },
        block_size=1024,
    )
    db.create_table("dim", {"k": np.arange(8), "zone": np.arange(8) % 3})
    catalog = SynopsisCatalog(db)
    BlinkDBSelector(db, budget_rows=80_000, rows_per_stratum=4000, seed=31).build_for_workload(
        [QueryTemplate("facts", ("cat",), 1.0)]
    )
    queries = {
        "scalar_sum": "SELECT SUM(amount) AS a FROM facts",
        "scalar_avg": "SELECT AVG(amount) AS a FROM facts",
        "grouped": "SELECT cat, SUM(amount) AS a FROM facts GROUP BY cat",
        "filtered": "SELECT SUM(amount) AS a FROM facts WHERE sel < 0.2",
        "selective": "SELECT SUM(amount) AS a FROM facts WHERE sel < 0.0001",
        "heavy_tail": "SELECT SUM(heavy) AS a FROM facts",
        "join": (
            "SELECT d.zone AS z, SUM(f.amount) AS a FROM facts f "
            "JOIN dim d ON f.cat = d.k GROUP BY d.zone"
        ),
        "many_groups": "SELECT many, COUNT(*) AS c FROM facts GROUP BY many",
        "max": "SELECT MAX(amount) AS a FROM facts",
        "distinct": "SELECT COUNT(DISTINCT many) AS d FROM facts",
    }
    return db, queries


def truth_table(db, sql):
    exact = db.sql(sql)
    return exact


def within_spec(db, sql, res):
    exact = db.sql(sql)
    approx_rows = res.to_pylist()
    exact_rows = exact.to_pylist()
    if len(approx_rows) != len(exact_rows):
        return False
    key_cols = [
        c for c in res.table.column_names if c not in res.ci_low
    ]
    exact_by_key = {
        tuple(r[k] for k in key_cols): r for r in exact_rows
    }
    for row in approx_rows:
        key = tuple(row[k] for k in key_cols)
        truth = exact_by_key.get(key)
        if truth is None:
            return False
        for col in res.ci_low:
            t = truth[col]
            if t == 0:
                continue
            if abs(row[col] - t) / abs(t) > SPEC.relative_error:
                return False
    return True


def run_technique(db, sql, technique, seed=7):
    bound = bind_sql(sql, db)
    if technique == "pilot":
        return PilotPlanner(db, seed=seed).run(bound, SPEC)
    if technique == "quickr":
        return QuickrPlanner(db, seed=seed).run(bound, SPEC)
    if technique == "offline":
        return OfflineRewriter(db).run(bound, SPEC)
    raise ValueError(technique)


def test_e14_measured_matrix(suite):
    db, queries = suite

    def compute():
        rows = []
        for technique in ("pilot", "quickr", "offline"):
            answered = 0
            correct = 0
            speedups = []
            refused = 0
            for name, sql in queries.items():
                try:
                    res = run_technique(db, sql, technique)
                except (InfeasiblePlanError, UnsupportedQueryError):
                    refused += 1
                    continue
                answered += 1
                if within_spec(db, sql, res):
                    correct += 1
                speedups.append(res.speedup)
            total = len(queries)
            rows.append(
                (
                    technique,
                    answered / total,
                    (correct / answered) if answered else 0.0,
                    float(np.median(speedups)) if speedups else 0.0,
                    refused,
                )
            )
        rows.append(("exact", 1.0, 1.0, 1.0, 0))
        return rows

    rows = compute()
    write_report(
        "e14_matrix",
        table(
            ["technique", "generality (answered)", "within-spec share",
             "median speedup", "refusals"],
            [
                (t, f"{g:.0%}", f"{c:.0%}", f"{s:.2f}x", r)
                for t, g, c, s, r in rows
            ],
        ),
    )
    by = {r[0]: r for r in rows}
    # The thesis, measured: for every technique at least one axis is weak.
    for name, gen, correct, speedup, _ in rows:
        wins_generality = gen >= 0.99
        wins_guarantee = correct >= 0.99
        wins_speedup = speedup >= 2.0
        assert not (wins_generality and wins_guarantee and wins_speedup), name
    # And each axis has a winner somewhere (the frontier is non-trivial):
    assert by["exact"][1] == 1.0  # exact wins generality
    assert max(by["pilot"][3], by["offline"][3]) > 2.0  # someone wins speedup
    assert by["pilot"][2] >= by["quickr"][2]  # guarantees beat best-effort


def test_e14_refusals_are_the_guarantee(suite):
    """Pilot/offline achieve their within-spec share *because* they refuse
    the queries they cannot bound; quickr answers everything linear and
    eats the misses."""
    db, queries = suite

    def compute():
        out = {}
        for technique in ("pilot", "quickr"):
            decisions = []
            for name, sql in queries.items():
                try:
                    res = run_technique(db, sql, technique, seed=8)
                    decisions.append((name, "answered"))
                except (InfeasiblePlanError, UnsupportedQueryError):
                    decisions.append((name, "refused"))
            out[technique] = decisions
        return out

    decisions = compute()
    rows = [
        (name, dict(decisions["pilot"])[name], dict(decisions["quickr"])[name])
        for name, _ in decisions["pilot"]
    ]
    write_report(
        "e14_decisions",
        table(["query", "pilot", "quickr"], rows),
    )
    pilot_refusals = sum(1 for _, d in decisions["pilot"] if d == "refused")
    quickr_refusals = sum(1 for _, d in decisions["quickr"] if d == "refused")
    assert pilot_refusals >= quickr_refusals
    # Both must refuse the non-linear aggregates.
    assert dict(decisions["pilot"])["max"] == "refused"
    assert dict(decisions["quickr"])["distinct"] == "refused"
