"""E10 — Sample+Seek: distribution guarantees by splitting large/small
groups.

Claims: (a) a measure-biased sample answers every *large* group (by
measure share) accurately; (b) small groups, hopeless for the sample, are
served exactly by index seeks at a cost proportional to their (small)
size; (c) the combined answer achieves low distribution precision (L2 on
group shares) that a same-size uniform sample cannot match on skew.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import Table
from repro.offline import (
    answer_group_by_sum,
    build_sample_seek,
    distribution_precision,
)
from repro.offline.sample_seek import GroupAnswer
from repro.sampling.row import srs_sample
from repro.workloads import zipf_group_table

NUM_ROWS = 250_000
NUM_GROUPS = 400
SAMPLE_SIZE = 8000


@pytest.fixture(scope="module")
def data():
    return Table(
        zipf_group_table(NUM_ROWS, num_groups=NUM_GROUPS, zipf_s=1.5, seed=20)
    )


def group_truth(data):
    out = {}
    for g in np.unique(data["group_id"]):
        out[int(g)] = float(data["value"][data["group_id"] == g].sum())
    return out


def test_e10_sample_seek_split(data):
    def compute():
        # seed= (not a live rng) keeps the build deterministic, so the
        # synopsis cache can memoize it across runs in one process.
        syn = build_sample_seek(data, "value", "group_id", SAMPLE_SIZE, seed=21)
        answers, cost = answer_group_by_sum(syn, data)
        truth = group_truth(data)
        sampled = [a for a in answers if a.method == "sample"]
        seeked = [a for a in answers if a.method == "seek"]
        sample_errs = [abs(a.value - truth[a.key]) / truth[a.key] for a in sampled]
        dp = distribution_precision(answers, truth)
        # Uniform baseline at the same size.
        u = srs_sample(data, SAMPLE_SIZE, np.random.default_rng(22))
        weight = data.num_rows / SAMPLE_SIZE
        uniform_answers = []
        for g in np.unique(u.table["group_id"]):
            uniform_answers.append(
                GroupAnswer(
                    key=int(g),
                    value=float(
                        u.table["value"][u.table["group_id"] == g].sum()
                    )
                    * weight,
                    method="sample",
                )
            )
        dp_uniform = distribution_precision(uniform_answers, truth)
        return {
            "num_sampled": len(sampled),
            "num_seeked": len(seeked),
            "max_large_group_err": max(sample_errs),
            "median_large_group_err": float(np.median(sample_errs)),
            "distribution_precision": dp,
            "distribution_precision_uniform": dp_uniform,
            "cost": cost,
        }

    out = compute()
    write_report(
        "e10_sample_seek",
        table(
            ["metric", "value"],
            [
                ("large groups from sample", out["num_sampled"]),
                ("small groups via seek (exact)", out["num_seeked"]),
                ("max large-group relerr", f"{out['max_large_group_err']:.3%}"),
                ("median large-group relerr", f"{out['median_large_group_err']:.3%}"),
                ("distribution precision (S+S)", f"{out['distribution_precision']:.4f}"),
                ("distribution precision (uniform)", f"{out['distribution_precision_uniform']:.4f}"),
            ],
        ),
    )
    # Shape: the split actually happens, large groups are accurate, and
    # the distribution guarantee beats the uniform baseline.
    assert out["num_seeked"] > 0 and out["num_sampled"] > 0
    assert out["max_large_group_err"] < 0.35
    assert out["median_large_group_err"] < 0.10
    assert out["distribution_precision"] < out["distribution_precision_uniform"]
    assert out["distribution_precision"] < 0.02


def test_e10_seek_cost_proportional_to_small_groups(data):
    def compute():
        rows = []
        for sample_size in (2000, 8000, 32_000):
            syn = build_sample_seek(
                data, "value", "group_id", sample_size, seed=23
            )
            answers, cost = answer_group_by_sum(syn, data)
            seeks = sum(1 for a in answers if a.method == "seek")
            rows.append((sample_size, seeks, round(cost, 1)))
        return rows

    rows = compute()
    write_report(
        "e10_seek_cost",
        table(["sample size", "groups seeked", "total cost"], rows),
    )
    # Shape: a bigger sample covers more groups, so fewer seeks are needed.
    assert rows[0][1] > rows[-1][1]
