"""E4 — outlier indexing fixes heavy-tailed SUM.

Claim: on heavy-tailed measures the uniform-sample SUM estimator's error
is dominated by whether the sample caught the outliers; splitting the top
1% into an exactly-aggregated outlier index shrinks the sampled part's
variance by the trimmed-variance ratio, and measure-biased sampling
achieves a similar effect without an index. Sweep the tail weight σ.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import Table
from repro.sampling.measure_biased import measure_biased_sample
from repro.sampling.outlier import (
    build_outlier_index,
    estimate_sum_with_outliers,
    variance_reduction,
)
from repro.sampling.row import bernoulli_sample
from repro.workloads import heavy_tailed_table

SIGMAS = [0.5, 1.0, 1.5, 2.0, 2.5]
RATE = 0.01
TRIALS = 15
NUM_ROWS = 150_000


def median_err(errs):
    return float(np.median(errs))


def test_e04_error_by_tail_weight():
    def compute():
        rows = []
        for sigma in SIGMAS:
            data = Table(heavy_tailed_table(NUM_ROWS, sigma=sigma, seed=8))
            truth = float(data["value"].sum())
            index = build_outlier_index(data, "value", 0.01)
            uniform_errs, outlier_errs, biased_errs = [], [], []
            for trial in range(TRIALS):
                rng = np.random.default_rng(9000 + trial)
                u = bernoulli_sample(data, RATE, rng)
                uniform_errs.append(
                    abs(u.estimate_sum("value").value - truth) / truth
                )
                est, _ = estimate_sum_with_outliers(index, RATE, rng)
                outlier_errs.append(abs(est.value - truth) / truth)
                mb = measure_biased_sample(
                    data, "value", int(NUM_ROWS * RATE), rng
                )
                biased_errs.append(abs(mb.estimate_sum("value").value - truth) / truth)
            rows.append(
                (
                    sigma,
                    median_err(uniform_errs),
                    median_err(outlier_errs),
                    median_err(biased_errs),
                    variance_reduction(data, "value", 0.01),
                )
            )
        return rows

    rows = compute()
    write_report(
        "e04_outlier",
        table(
            ["sigma", "uniform err", "outlier-index err", "measure-biased err",
             "trimmed-variance ratio"],
            [
                (s, f"{u:.4%}", f"{o:.4%}", f"{b:.4%}", f"{v:.1f}")
                for s, u, o, b, v in rows
            ],
        ),
    )
    # Shape: at heavy tails both remedies beat uniform sampling clearly;
    # at light tails everyone is fine.
    light = rows[0]
    heavy = rows[-1]
    assert heavy[1] > 3 * heavy[2]  # outlier index >=3x better than uniform
    assert heavy[1] > 3 * heavy[3]  # measure-biased too
    assert light[1] < 0.05  # nothing pathological on benign data
    # The variance-reduction knob grows with tail weight.
    assert rows[-1][4] > rows[0][4]
