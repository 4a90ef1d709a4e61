"""E5 — COUNT DISTINCT: sampling fails, specialized sketches succeed.

Claim: no row sample supports a reliable distinct-count estimate (the
unseen rows can hide anywhere from 0 to N new values), while HLL/KMV get
within a few percent using kilobytes. Swept over true cardinality and
frequency skew.
"""

import numpy as np
import pytest

from common import table, write_report
from repro.sketches import HyperLogLog, KMVSketch
from repro.sketches.hyperloglog import sample_based_distinct_estimate
from repro.workloads import distinct_count_table

CARDINALITIES = [1000, 10_000, 100_000]
SKEWS = [0.0, 1.2]
NUM_ROWS = 500_000
SAMPLE_FRACTION = 0.01


def test_e05_distinct_estimators():
    def compute():
        rows = []
        for skew in SKEWS:
            for true_d in CARDINALITIES:
                cols = distinct_count_table(
                    NUM_ROWS, num_distinct=true_d, skew=skew, seed=10
                )
                values = cols["user_id"]
                rng = np.random.default_rng(11)
                sample = values[rng.random(NUM_ROWS) < SAMPLE_FRACTION]
                sample_est = sample_based_distinct_estimate(
                    sample, SAMPLE_FRACTION, NUM_ROWS
                )
                hll = HyperLogLog(12, seed=1)
                hll.add(values)
                kmv = KMVSketch(2048, seed=2)
                kmv.add(values)
                rows.append(
                    (
                        skew,
                        true_d,
                        abs(sample_est - true_d) / true_d,
                        abs(hll.estimate() - true_d) / true_d,
                        abs(kmv.estimate() - true_d) / true_d,
                    )
                )
        return rows

    rows = compute()
    write_report(
        "e05_distinct",
        table(
            ["skew", "true NDV", "1% sample relerr", "HLL relerr", "KMV relerr"],
            [
                (s, d, f"{a:.2%}", f"{b:.2%}", f"{c:.2%}")
                for s, d, a, b, c in rows
            ],
        ),
    )
    # Shape: sketches stay within ~5%; the sampling estimator is off by
    # large factors in at least the high-cardinality settings.
    for _, _, sample_err, hll_err, kmv_err in rows:
        assert hll_err < 0.06
        assert kmv_err < 0.10
    worst_sample = max(r[2] for r in rows)
    assert worst_sample > 0.5  # sampling fails catastrophically somewhere


def test_e05_memory_accuracy_curve():
    cols = distinct_count_table(NUM_ROWS, num_distinct=100_000, seed=12)
    values = cols["user_id"]
    true_d = 100_000

    def compute():
        rows = []
        for precision in (8, 10, 12, 14):
            h = HyperLogLog(precision, seed=3)
            h.add(values)
            rows.append(
                (
                    h.memory_bytes(),
                    abs(h.estimate() - true_d) / true_d,
                    h.relative_standard_error,
                )
            )
        return rows

    rows = compute()
    write_report(
        "e05_memory_curve",
        table(
            ["HLL bytes", "achieved relerr", "theoretical RSE"],
            [(m, f"{e:.3%}", f"{t:.3%}") for m, e, t in rows],
        ),
    )
    # Shape: more registers, tighter estimates (within 4 RSE everywhere).
    for mem, err, rse in rows:
        assert err < 4 * rse
    assert rows[-1][1] < rows[0][1] * 1.5  # generally improving
