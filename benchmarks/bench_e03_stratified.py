"""E3 — stratified sampling restores small-group accuracy.

Claim: for the same storage, a stratified sample (senate/congress) bounds
the worst group's error where uniform sampling's tail groups are garbage
(or missing), at modest extra error on the biggest groups. Neyman
allocation additionally wins when per-stratum variances differ.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import Table
from repro.sampling.row import srs_sample
from repro.sampling.stratified import group_estimates, stratified_sample
from repro.workloads import zipf_group_table

SAMPLE_SIZE = 8000
TRIALS = 8


@pytest.fixture(scope="module")
def data():
    return Table(zipf_group_table(300_000, num_groups=150, zipf_s=1.4, seed=6))


def truth_by_group(data):
    out = {}
    for g in np.unique(data["group_id"]):
        out[int(g)] = float(data["value"][data["group_id"] == g].sum())
    return out


def per_group_errors_uniform(data, truth, seed):
    s = srs_sample(data, SAMPLE_SIZE, np.random.default_rng(seed))
    weight = data.num_rows / SAMPLE_SIZE
    est = {}
    for g in np.unique(s.table["group_id"]):
        est[int(g)] = float(s.table["value"][s.table["group_id"] == g].sum()) * weight
    errors = {}
    for g, t in truth.items():
        e = est.get(g)
        errors[g] = abs(e - t) / t if e is not None else 1.0  # missing group
    return errors


def per_group_errors_stratified(data, truth, policy, seed):
    s = stratified_sample(
        data, "group_id", SAMPLE_SIZE, policy=policy,
        measure_column="value" if policy == "neyman" else None,
        min_per_stratum=10, rng=np.random.default_rng(seed),
    )
    ests = group_estimates(s, "group_id", "value", "sum")
    return {g: abs(ests[g].value - t) / t for g, t in truth.items() if g in ests}


def test_e03_worst_group_error(data):
    def compute():
        truth = truth_by_group(data)
        rows = []
        for name, fn in (
            ("uniform", lambda seed: per_group_errors_uniform(data, truth, seed)),
            ("senate", lambda seed: per_group_errors_stratified(data, truth, "senate", seed)),
            ("congress", lambda seed: per_group_errors_stratified(data, truth, "congress", seed)),
            ("neyman", lambda seed: per_group_errors_stratified(data, truth, "neyman", seed)),
        ):
            worst, median, biggest = [], [], []
            big_group = max(truth, key=truth.get)
            for trial in range(TRIALS):
                errors = fn(trial)
                worst.append(max(errors.values()))
                median.append(float(np.median(list(errors.values()))))
                biggest.append(errors.get(big_group, 1.0))
            rows.append(
                (
                    name,
                    float(np.mean(worst)),
                    float(np.mean(median)),
                    float(np.mean(biggest)),
                )
            )
        return rows

    rows = compute()
    write_report(
        "e03_stratified",
        table(
            ["allocation", "worst-group err", "median-group err", "biggest-group err"],
            [(n, f"{w:.3f}", f"{m:.3f}", f"{b:.4f}") for n, w, m, b in rows],
        ),
    )
    by_name = {r[0]: r for r in rows}
    # Shape: stratified allocations beat uniform on the worst group by a
    # wide margin...
    assert by_name["senate"][1] < 0.5 * by_name["uniform"][1]
    assert by_name["congress"][1] < 0.5 * by_name["uniform"][1]
    # ...while the biggest group stays accurate for congress (it blends
    # proportional mass back in).
    assert by_name["congress"][3] < 0.2


def test_e03_group_coverage(data):
    def compute():
        total = len(np.unique(data["group_id"]))
        uniform_seen = []
        strat_seen = []
        for trial in range(TRIALS):
            u = srs_sample(data, SAMPLE_SIZE, np.random.default_rng(trial))
            uniform_seen.append(len(np.unique(u.table["group_id"])))
            st = stratified_sample(
                data, "group_id", SAMPLE_SIZE, "senate",
                rng=np.random.default_rng(trial),
            )
            strat_seen.append(len(np.unique(st.table["group_id"])))
        return total, float(np.mean(uniform_seen)), float(np.mean(strat_seen))

    total, uniform_seen, strat_seen = compute()
    write_report(
        "e03_coverage",
        table(
            ["sampler", "groups present (of %d)" % total],
            [("uniform", uniform_seen), ("stratified-senate", strat_seen)],
        ),
    )
    assert strat_seen == total
    assert uniform_seen <= total
