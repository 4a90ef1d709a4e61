"""E2 — selective predicates and rare groups break uniform sampling.

Claims: (a) relative error of a sampled aggregate explodes as predicate
selectivity drops (effective sample size shrinks with the match count);
(b) uniform samples lose small groups of a Zipf-distributed group-by
entirely; (c) the pilot planner detects the selective regime and refuses
(falls back to exact) instead of returning a silently bad answer.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import Database, InfeasiblePlanError, ErrorSpec, Table
from repro.estimators.closed_form import bernoulli_sum
from repro.online import PilotPlanner
from repro.sampling.row import srs_sample
from repro.sql import bind_sql
from repro.workloads import selectivity_table, zipf_group_table

SELECTIVITIES = [0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 0.0003]
RATE = 0.01
TRIALS = 25


@pytest.fixture(scope="module")
def data():
    return Table(selectivity_table(400_000, seed=3), block_size=1024)


def test_e02_error_vs_selectivity(data):
    def compute():
        rows = []
        values = data["value"]
        selector = data["selector"]
        for sel in SELECTIVITIES:
            match = selector < sel
            truth = float(values[match].sum())
            errs = []
            for trial in range(TRIALS):
                rng = np.random.default_rng(7000 + trial)
                keep = rng.random(data.num_rows) < RATE
                est = bernoulli_sum(values[keep & match], RATE)
                errs.append(abs(est.value - truth) / truth if truth else np.inf)
            rows.append((sel, float(np.median(errs))))
        return rows

    rows = compute()
    write_report(
        "e02_selectivity",
        table(
            ["selectivity", f"median relerr @ {RATE:.0%} sample"],
            [(s, f"{e:.4%}") for s, e in rows],
        ),
    )
    # Shape: error grows monotonically-ish as selectivity drops, and the
    # most selective setting is at least 10x worse than the least.
    assert rows[-1][1] > 10 * rows[0][1]


def test_e02_group_loss():
    def compute():
        data = Table(zipf_group_table(300_000, num_groups=1000, zipf_s=1.4, seed=4))
        total_groups = len(np.unique(data["group_id"]))
        rows = []
        for size in (1000, 3000, 10_000, 30_000):
            seen = []
            for trial in range(10):
                s = srs_sample(data, size, np.random.default_rng(trial))
                seen.append(len(np.unique(s.table["group_id"])))
            rows.append((size, total_groups, float(np.mean(seen))))
        return rows

    rows = compute()
    write_report(
        "e02_group_loss",
        table(
            ["sample size", "true groups", "groups seen (mean)"],
            rows,
        ),
    )
    # Shape: a 1k-row uniform sample of a 1000-group Zipf table misses a
    # large share of the groups.
    assert rows[0][2] < 0.7 * rows[0][1]
    assert rows[-1][2] > rows[0][2]


def test_e02_planner_refuses_selective_queries():
    db = Database()
    db.create_table("t", selectivity_table(400_000, seed=5), block_size=1024)

    def compute():
        out = []
        for sel in (0.3, 0.001, 0.00001):
            bound = bind_sql(
                f"SELECT SUM(value) AS s FROM t WHERE selector < {sel}", db
            )
            try:
                res = PilotPlanner(db, seed=1).run(bound, ErrorSpec(0.05, 0.95))
                out.append((sel, "approximate", res.diagnostics["sampling_rate"]))
            except InfeasiblePlanError:
                out.append((sel, "fallback-to-exact", None))
        return out

    rows = compute()
    write_report(
        "e02_planner_refusal",
        table(["selectivity", "decision", "rate"], rows),
    )
    assert rows[0][1] == "approximate"
    assert rows[-1][1] == "fallback-to-exact"
