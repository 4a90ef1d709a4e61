"""E7 — precomputed samples vs. workload drift.

Claim: offline sample selection is excellent on the workload it was built
for, and its coverage/answerability decays as the live workload drifts —
the fundamental generality limit of offline AQP. We build a BlinkDB-style
catalog for workload A, then evaluate coverage and served-query share as
the live workload drifts toward B.
"""

import numpy as np
import pytest

from common import once, table, write_report
from repro import ApproximateResult, Database
from repro.core.options import QueryOptions
from repro.offline import BlinkDBSelector, SynopsisCatalog, workload_coverage
from repro.workloads import WorkloadGenerator, WorkloadSpec, drift

DRIFTS = [0.0, 0.25, 0.5, 0.75, 1.0]


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(18)
    n = 300_000
    db = Database()
    db.create_table(
        "logs",
        {
            "value": rng.exponential(25.0, n),
            "country": rng.integers(0, 25, n),
            "device": rng.integers(0, 6, n),
            "app_version": rng.integers(0, 12, n),
            "hour": rng.integers(0, 24, n),
        },
        block_size=1024,
    )
    spec = WorkloadSpec(
        table="logs",
        column_weights={
            "country": 10.0,
            "device": 5.0,
            "app_version": 0.4,
            "hour": 0.1,
        },
        measure="value",
        selector=None,
    )
    catalog = SynopsisCatalog(db)
    selector = BlinkDBSelector(db, budget_rows=80_000, rows_per_stratum=1500, seed=18)
    selector.build_for_workload(
        WorkloadGenerator(spec, seed=1).sample_templates(100)
    )
    return db, catalog, spec


def test_e07_coverage_decay(benchmark, setup):
    db, catalog, spec = setup

    def compute():
        rows = []
        for amount in DRIFTS:
            live = WorkloadGenerator(drift(spec, amount), seed=2).sample_templates(200)
            rows.append((amount, workload_coverage(catalog, live)))
        return rows

    rows = once(benchmark, compute)
    write_report(
        "e07_coverage_decay",
        table(["drift", "catalog coverage"], [(d, f"{c:.1%}") for d, c in rows]),
    )
    # Shape: near-full coverage at zero drift, collapsing under full drift.
    assert rows[0][1] > 0.9
    assert rows[-1][1] < 0.5
    assert all(rows[i][1] >= rows[i + 1][1] - 0.05 for i in range(len(rows) - 1))


def test_e07_served_share_end_to_end(benchmark, setup):
    db, catalog, spec = setup

    def compute():
        rows = []
        for amount in DRIFTS:
            gen = WorkloadGenerator(drift(spec, amount), seed=3)
            served = 0
            queries = gen.sample_sql(20)
            for sql in queries:
                res = db.sql(
                    sql + " ERROR WITHIN 20% CONFIDENCE 90%",
                    options=QueryOptions(seed=4),
                )
                if (
                    isinstance(res, ApproximateResult)
                    and res.technique == "offline_sample"
                ):
                    served += 1
            rows.append((amount, served / len(queries)))
        return rows

    rows = once(benchmark, compute)
    write_report(
        "e07_served_share",
        table(
            ["drift", "queries served from precomputed samples"],
            [(d, f"{s:.0%}") for d, s in rows],
        ),
    )
    assert rows[0][1] > rows[-1][1]
