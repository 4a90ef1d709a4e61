"""Every library sample reduces through its own design's moment table.

:meth:`repro.sampling.base.WeightedSample.moments` reads the design from
the sample's ``method`` and ``params`` and sums per unit — rows, blocks,
strata or join-key clusters — through the reductions of
:mod:`repro.online.estimation`. Each case below holds its totals and
variances to the closed forms in :mod:`tests.estimator_reference` at
1e-9: equal where the design's formula did not change, and off by the
stated factor where it was corrected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Table
from repro.engine.executor import join_indices
from repro.online.ola import OnlineAggregator
from repro.sampling.bilevel import bilevel_sample
from repro.sampling.block import block_bernoulli_sample, block_fixed_sample
from repro.sampling.distinct import distinct_sample
from repro.sampling.measure_biased import measure_biased_sample
from repro.sampling.outlier import build_outlier_index, estimate_sum_with_outliers
from repro.sampling.row import bernoulli_sample, srs_sample, systematic_sample
from repro.sampling.stratified import group_estimates, stratified_sample
from repro.sampling.universe import joint_universe_samples, universe_join_sample

from . import estimator_reference as ref

N = 20_000


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(2024)
    return Table(
        {
            "v": rng.exponential(10.0, N),
            "g": rng.integers(0, 6, N),
            "k": rng.integers(0, 800, N),
        },
        name="t",
        block_size=200,
    )


def _bernoulli(t):
    s = bernoulli_sample(t, 0.05, np.random.default_rng(1))
    y, n = s.table["v"], s.num_rows
    pi = np.full(n, 0.05)
    match = s.table["g"] == 2
    return [
        ("sum", s.estimate_sum("v"), ref.ht_total(y, pi), 1.0),
        ("count", s.estimate_count(), ref.ht_total(np.ones(n), pi), 1.0),
        ("masked sum", s.estimate_sum("v", match), ref.ht_total(y[match], pi[match]), 1.0),
        # (1−p)s²/n → (1−p)s²(n−1)/n²
        ("avg", s.estimate_avg("v"), ref.bernoulli_avg(y, 0.05), (n - 1) / n),
    ]


def _distinct(t):
    s = distinct_sample(t, ["k"], 0.05, 5, np.random.default_rng(2))
    y, pi = s.table["v"], 1.0 / s.weights
    return [
        ("sum", s.estimate_sum("v"), ref.ht_total(y, pi), 1.0),
        ("count", s.estimate_count(), ref.ht_total(np.ones(len(y)), pi), 1.0),
        ("avg", s.estimate_avg("v"), ref.hajek_mean(y, pi), 1.0),
    ]


def _measure_biased(t):
    s = measure_biased_sample(t, "v", 1500, np.random.default_rng(3))
    y, pi = s.table["v"], 1.0 / s.weights
    match = s.table["g"] < 3
    return [
        ("sum", s.estimate_sum("v"), ref.ht_total(y, pi), 1.0),
        ("masked sum", s.estimate_sum("v", match), ref.ht_total(y[match], pi[match]), 1.0),
    ]


def _universe(t):
    right = Table({"k": np.arange(800), "w": np.linspace(0.5, 1.5, 800)})
    ls, rs = joint_universe_samples(t, "k", right, "k", 0.2, seed=4)
    li, ri, _ = join_indices([ls.table["k"]], [rs.table["k"]])
    keys = ls.table["k"][li]
    values = ls.table["v"][li] * rs.table["w"][ri]
    s = universe_join_sample(Table({"k": keys, "y": values}), "k", 0.2)
    return [("sum", s.estimate_sum("y"), ref.join_sum(values, keys, 0.2), 1.0)]


def _srs(t):
    s = srs_sample(t, 1500, np.random.default_rng(5))
    return [
        ("sum", s.estimate_sum("v"), ref.srs_sum(s.table["v"], N), 1.0),
        ("avg", s.estimate_avg("v"), ref.srs_mean(s.table["v"], N), 1.0),
        ("count", s.estimate_count(), ref.srs_sum(np.ones(1500), N), 1.0),
    ]


def _systematic(t):
    s = systematic_sample(t, 13, np.random.default_rng(6))
    return [("sum", s.estimate_sum("v"), ref.srs_sum(s.table["v"], N), 1.0)]


def _stratified(t):
    s = stratified_sample(t, "g", 1200, "senate", rng=np.random.default_rng(7))
    strata = s.params["strata"]
    position = {info.key: h for h, info in enumerate(strata)}
    ids = np.array([position[g] for g in s.table["g"].tolist()])
    y = s.table["v"]
    sizes = [info.drawn for info in strata]
    pops = [info.population for info in strata]
    cases = [("sum", s.estimate_sum("v"), ref.stratified_sum(y, ids, sizes, pops), 1.0)]
    sums = group_estimates(s, "g", "v", "sum")
    avgs = group_estimates(s, "g", "v", "avg")
    counts = group_estimates(s, "g", None, "count")
    for info in strata:
        rows = y[s.table["g"] == info.key]
        cases += [
            (f"sum[{info.key}]", sums[info.key], ref.srs_sum(rows, info.population), 1.0),
            (f"avg[{info.key}]", avgs[info.key], ref.srs_mean(rows, info.population), 1.0),
            (f"count[{info.key}]", counts[info.key], (info.population, 0.0, info.drawn), 1.0),
        ]
    return cases


def _blocks(sampler):
    def case(t):
        s = sampler(t)
        sums, counts = ref.per_block_totals(s.table["v"], s.table["__block_id"])
        b = t.num_blocks
        return [
            ("sum", s.estimate_sum("v"), ref.block_sample_sum(sums, b), 1.0),
            ("count", s.estimate_count(), ref.block_sample_sum(counts, b), 1.0),
            ("avg", s.estimate_avg("v"), ref.block_sample_avg(sums, counts, b), 1.0),
        ]

    return case


def _bilevel(t):
    s = bilevel_sample(t, 0.2, 0.3, np.random.default_rng(10))
    m, b = int(s.params["sampled_blocks"]), t.num_blocks
    ids = s.table["__block_id"]
    return [
        ("sum", s.estimate_sum("v"), ref.bilevel_sum(s.table["v"], ids, 0.3, m, b), 1.0),
        ("count", s.estimate_count(), ref.bilevel_sum(np.ones(s.num_rows), ids, 0.3, m, b), 1.0),
    ]


def _outlier(t):
    index = build_outlier_index(t, "v", 0.01)
    est, inliers = estimate_sum_with_outliers(index, 0.05, np.random.default_rng(11))
    value, variance, _ = ref.ht_total(inliers.table["v"], np.full(inliers.num_rows, 0.05))
    exact = float(np.sum(index.outliers["v"]))
    return [("sum", est, (exact + value, variance, est.sample_size), 1.0)]


def _ola(t):
    mask = t["g"] < 4
    cases = []
    order = np.random.default_rng(12).permutation(N)  # the aggregators' read order
    v, m = np.where(mask, t["v"], 0.0)[order], mask[order]
    for k in (40, 3_000, N):
        sum_v, sum_v2, sum_m = v[:k].sum(), (v[:k] ** 2).sum(), float(m[:k].sum())
        for agg in ("sum", "count", "avg"):
            ola = OnlineAggregator(t, "v", agg, predicate_mask=mask, seed=12)
            if agg == "avg":
                # gains the FPC: × (1 − n/N)
                cases.append((f"avg@{k}", ola.estimate(k),
                              ref.ola_avg_no_fpc(k, sum_v, sum_v2, sum_m), 1.0 - k / N))
                continue
            y = v[:k] if agg == "sum" else m[:k]
            cases.append((f"{agg}@{k}", ola.estimate(k), ref.srs_sum(y, N), 1.0))
    return cases


DESIGNS = {
    "bernoulli_rows": _bernoulli,
    "distinct": _distinct,
    "measure_biased": _measure_biased,
    "universe": _universe,
    "srs_rows": _srs,
    "systematic_rows": _systematic,
    "stratified": _stratified,
    "block_fixed": _blocks(lambda t: block_fixed_sample(t, 20, np.random.default_rng(8))),
    "block_bernoulli": _blocks(lambda t: block_bernoulli_sample(t, 0.2, np.random.default_rng(9))),
    "bilevel": _bilevel,
    "outlier": _outlier,
    "online_aggregator": _ola,
}


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_moments_match_the_reference(design, table):
    for name, got, (value, variance, units), factor in DESIGNS[design](table):
        np.testing.assert_allclose(
            [got.value, got.variance],
            [value, variance * factor],
            rtol=1e-9,
            atol=1e-9,
            err_msg=f"{design} {name}",
        )
        assert got.sample_size == units, f"{design} {name}"
