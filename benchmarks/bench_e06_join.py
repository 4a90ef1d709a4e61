"""E6 — sampling and joins: independent samples fail; structure-aware
sampling works.

Claims: (a) joining two *independent* Bernoulli samples at rate p keeps
only ~p² of output pairs and produces far noisier SUM estimates than a
single-side sample of the same cost; (b) universe (correlated hash)
sampling of both sides keeps matching keys together and recovers accuracy;
(c) a precomputed join synopsis answers FK-join aggregates at sample cost.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import Database, Table
from repro.engine.executor import join_indices
from repro.estimators.horvitz_thompson import scale_up_weights
from repro.sampling.join_synopsis import ForeignKeyEdge, build_join_synopsis
from repro.sampling.universe import estimate_join_sum, joint_universe_samples
from repro.workloads import generate_ssb

RATE = 0.01
TRIALS = 12


@pytest.fixture(scope="module")
def join_data():
    rng = np.random.default_rng(14)
    # Near-key-unique join: each dim key matches only ~3 fact rows, the
    # regime where independent two-sided sampling keeps almost no pairs.
    n, d = 300_000, 100_000
    keys = rng.integers(0, d, n)
    fact = Table({"k": keys, "v": rng.exponential(10.0, n)})
    dim = Table({"k": np.arange(d), "w": rng.random(d) + 0.5})
    truth = float(np.sum(fact["v"] * dim["w"][keys]))
    return fact, dim, truth


def join_sum(lk, lv, rk, rw):
    li, ri, _ = join_indices([lk], [rk])
    return float(np.sum(lv[li] * rw[ri])), lk[li]


def test_e06_independent_vs_universe(join_data):
    fact, dim, truth = join_data

    def compute():
        indep_errs, single_errs, universe_errs = [], [], []
        for trial in range(TRIALS):
            rng = np.random.default_rng(500 + trial)
            # (a) independent Bernoulli on both sides, scale by 1/p².
            lm = rng.random(fact.num_rows) < RATE
            rm = rng.random(dim.num_rows) < RATE
            s, _ = join_sum(
                fact["k"][lm], fact["v"][lm], dim["k"][rm], dim["w"][rm]
            )
            indep_errs.append(abs(s / (RATE * RATE) - truth) / truth)
            # (b) sample only the fact side, join full dim, scale by 1/p.
            s, _ = join_sum(fact["k"][lm], fact["v"][lm], dim["k"], dim["w"])
            single_errs.append(abs(s / RATE - truth) / truth)
            # (c) universe-sample both sides with one hash, scale by 1/p.
            ls, rs = joint_universe_samples(
                fact, "k", dim, "k", RATE, seed=600 + trial
            )
            s, jkeys = join_sum(
                ls.table["k"], ls.table["v"], rs.table["k"], rs.table["w"]
            )
            est = estimate_join_sum(
                ls.table["v"][join_indices([ls.table["k"]], [rs.table["k"]])[0]]
                * rs.table["w"][join_indices([ls.table["k"]], [rs.table["k"]])[1]],
                jkeys,
                RATE,
            )
            universe_errs.append(abs(est.value - truth) / truth)
        return (
            float(np.median(indep_errs)),
            float(np.median(single_errs)),
            float(np.median(universe_errs)),
        )

    indep, single, universe = compute()
    write_report(
        "e06_join_strategies",
        table(
            ["strategy", f"median relerr (rate={RATE})"],
            [
                ("independent samples both sides (1/p² scale-up)", f"{indep:.3%}"),
                ("sample fact side only", f"{single:.3%}"),
                ("universe sampling both sides", f"{universe:.3%}"),
            ],
        ),
    )
    # Shape: independent two-sided sampling is far worse than either
    # structure-aware strategy.
    assert indep > 3 * single
    assert indep > 3 * universe


def test_e06_join_synopsis_on_star_schema():
    db = generate_ssb(scale=2.0, seed=15, block_size=512)

    def compute():
        syn = build_join_synopsis(
            db,
            "lineorder",
            [
                ForeignKeyEdge("lo_custkey", "customer_dim", "c_custkey"),
                ForeignKeyEdge("lo_orderdate", "date_dim", "d_datekey"),
            ],
            sample_size=8000,
            rng=np.random.default_rng(16),
        )
        # Revenue by customer region, answered entirely from the synopsis.
        lo = db.table("lineorder")
        cust = db.table("customer_dim")
        region_of = cust["c_region"][lo["lo_custkey"]]
        out = []
        for region in np.unique(cust["c_region"]):
            truth = float(lo["lo_revenue"][region_of == region].sum())
            mask = syn.sample.table["customer_dim.c_region"] == region
            est = scale_up_weights(
                syn.sample.table["lo_revenue"][mask], syn.sample.weights[mask]
            )
            out.append((str(region), truth, est.value, abs(est.value - truth) / truth))
        return out

    rows = compute()
    write_report(
        "e06_join_synopsis",
        table(
            ["region", "true revenue", "synopsis estimate", "relerr"],
            [(r, f"{t:.0f}", f"{e:.0f}", f"{err:.3%}") for r, t, e, err in rows],
        ),
    )
    for _, _, _, err in rows:
        assert err < 0.15
