"""E1 — uniform sampling's error/cost trade-off for simple aggregates.

Claim: for SUM/AVG/COUNT over mildly skewed data, uniform sampling error
decays like 1/√n while the data touched grows linearly — the basic deal
all of sampling-based AQP rests on. Also: on block storage, row-level
sampling touches nearly every block, so only block sampling's *cost*
actually tracks the sampling rate.
"""

import numpy as np
import pytest

from common import once, table, write_report
from repro import Database, Table
from repro.core.options import QueryOptions
from repro.estimators.closed_form import bernoulli_sum
from repro.sampling.row import bernoulli_sample
from repro.storage.cost import block_sample_cost, row_sample_cost, scan_cost
from repro.workloads import uniform_table

RATES = [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1]
TRIALS = 25


@pytest.fixture(scope="module")
def data():
    return Table(uniform_table(400_000, seed=1), name="t", block_size=1024)


def measure_errors(data):
    truth = float(data["value"].sum())
    rows = []
    for rate in RATES:
        errs = []
        for trial in range(TRIALS):
            rng = np.random.default_rng(1000 + trial)
            mask = rng.random(data.num_rows) < rate
            est = bernoulli_sum(data["value"][mask], rate)
            errs.append(abs(est.value - truth) / truth)
        rows.append((rate, float(np.median(errs)), float(np.max(errs))))
    return rows


def test_e01_error_decay(benchmark, data):
    rows = once(benchmark, lambda: measure_errors(data))
    report = [(r, f"{med:.4%}", f"{worst:.4%}") for r, med, worst in rows]
    write_report(
        "e01_error_decay",
        table(["rate", "median relerr", "max relerr"], report),
    )
    # Shape: error at rate r should scale roughly like 1/sqrt(r):
    # moving from 0.1% to 10% (100x rows) cuts error by ~10x.
    lo = rows[1][1]
    hi = rows[-1][1]
    assert hi < lo / 3
    # And errors at 1% sampling are already ~1% for this benign data.
    at_1pct = next(med for r, med, _ in rows if r == 0.01)
    assert at_1pct < 0.05


def test_e01_cost_rows_vs_blocks(benchmark, data):
    def compute():
        nb, bs = data.num_blocks, data.block_size
        full = scan_cost(nb, data.num_rows).total
        rows = []
        for rate in RATES:
            rows.append(
                (
                    rate,
                    row_sample_cost(nb, bs, rate).total / full,
                    block_sample_cost(nb, bs, rate).total / full,
                )
            )
        return rows

    rows = once(benchmark, compute)
    report = [(r, f"{rowc:.3f}", f"{blockc:.3f}") for r, rowc, blockc in rows]
    write_report(
        "e01_cost_model",
        table(["rate", "row-sample cost / scan", "block-sample cost / scan"], report),
    )
    # Shape: at 1% rate, row sampling costs ~a full scan; block sampling ~1%.
    r1 = next(r for r in rows if r[0] == 0.01)
    assert r1[1] > 0.9
    assert r1[2] < 0.1


def test_e01_engine_accounting_matches_model(benchmark, data):
    """The executor's measured blocks-touched reproduces the model's gap."""
    db = Database()
    db.create_table("t", data)

    def run():
        out = {}
        for method, clause in (
            ("rows", "TABLESAMPLE BERNOULLI (1)"),
            ("blocks", "TABLESAMPLE SYSTEM (1)"),
        ):
            res = db.sql(
                f"SELECT SUM(value) AS s FROM t {clause}",
                options=QueryOptions(seed=5),
            )
            out[method] = res.stats.fraction_blocks_read
        return out

    fractions = once(benchmark, run)
    write_report(
        "e01_engine_accounting",
        table(
            ["sampler", "fraction of blocks touched at 1%"],
            [(k, f"{v:.3f}") for k, v in fractions.items()],
        ),
    )
    assert fractions["rows"] > 0.9
    assert fractions["blocks"] < 0.05
