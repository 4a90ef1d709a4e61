"""A1 — ablation: naive i.i.d. vs cluster-correct variance for block
samples.

Design choice under test: every block-sample estimate in this library
computes variance over *per-block totals* (clusters), never over rows.
This ablation shows what the naive row-level formula would do on a
clustered physical layout: report intervals that are far too narrow and
under-cover catastrophically — the statistical failure mode that makes
block sampling "dangerous by default" and motivates the cluster
machinery.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import Table
from repro.core.errorspec import z_value
from repro.online.estimation import srs_totals
from repro.sampling.block import block_fixed_sample
from repro.estimators.subsampling import design_effect_from_rows
from repro.workloads import clustered_values

TRIALS = 60
RATE = 0.2
BLOCK = 256


def build(layout: str) -> Table:
    cols = clustered_values(40_000, block_size=BLOCK, seed=33)
    t = Table(cols, block_size=BLOCK)
    if layout == "shuffled":
        rng = np.random.default_rng(34)
        t = t.take(rng.permutation(t.num_rows))
    return t


def coverage(t: Table):
    truth = float(t["value"].sum())
    hits_naive = hits_cluster = 0
    width_naive = width_cluster = 0.0
    z = z_value(0.95)
    m = max(int(t.num_blocks * RATE), 2)
    for trial in range(TRIALS):
        s = block_fixed_sample(t, m, np.random.default_rng(trial))
        # naive: pretend the sampled rows are an SRS of rows
        y = np.asarray(s.table["value"], dtype=np.float64)
        naive, naive_var = srs_totals(y.sum(), y @ y, len(y), t.num_rows)
        lo = naive - z * np.sqrt(naive_var)
        hi = naive + z * np.sqrt(naive_var)
        hits_naive += lo <= truth <= hi
        width_naive += (hi - lo) / truth
        # cluster-correct
        est = s.estimate_sum("value")
        lo, hi = est.ci(0.95)
        hits_cluster += lo <= truth <= hi
        width_cluster += (hi - lo) / truth
    return (
        hits_naive / TRIALS,
        hits_cluster / TRIALS,
        width_naive / TRIALS,
        width_cluster / TRIALS,
    )


def test_a01_coverage_on_clustered_layout():
    def compute():
        rows = []
        for layout in ("clustered", "shuffled"):
            t = build(layout)
            deff = design_effect_from_rows(
                np.asarray(t["value"], dtype=np.float64),
                np.arange(t.num_rows) // BLOCK,
            )
            naive_cov, cluster_cov, naive_w, cluster_w = coverage(t)
            rows.append((layout, deff, naive_cov, cluster_cov, naive_w, cluster_w))
        return rows

    rows = compute()
    write_report(
        "a01_block_variance",
        table(
            ["layout", "design effect", "naive 95% CI coverage",
             "cluster CI coverage", "naive width", "cluster width"],
            [
                (l, f"{d:.0f}", f"{nc:.1%}", f"{cc:.1%}", f"{nw:.3%}", f"{cw:.3%}")
                for l, d, nc, cc, nw, cw in rows
            ],
        ),
    )
    clustered = rows[0]
    shuffled = rows[1]
    # On the clustered layout the naive CI under-covers badly while the
    # cluster-correct CI stays near nominal.
    assert clustered[2] < 0.6
    assert clustered[3] >= 0.85
    # On a shuffled layout blocks behave like random subsets: both agree.
    assert shuffled[2] >= 0.85 and shuffled[3] >= 0.85
    # The design effect quantifies the gap.
    assert clustered[1] > 10 * shuffled[1]
