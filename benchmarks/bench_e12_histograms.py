"""E12 — histograms and wavelets: tiny space, narrow query class.

Claims: (a) for 1-D range aggregates, bucket synopses answer from a few
hundred numbers with single-digit-percent error where any sampling scheme
needs thousands of rows; (b) the bucketing rule matters on skew
(V-optimal ≤ MaxDiff ≤ equi-depth ≤ equi-width in range-count error);
(c) wavelets match histograms at equal space on smooth data; (d) the
moment the query leaves the synopsis's class (a predicate on another
column), the histogram is useless — the generality cliff.
"""

import numpy as np
import pytest

from common import table, write_report
from repro.histograms import equi_depth, equi_width, maxdiff, v_optimal
from repro.sampling.row import srs_sample
from repro import Table
from repro.wavelets import build_wavelet_synopsis

NUM_ROWS = 200_000
BUCKETS = 64
RANGES = 60


@pytest.fixture(scope="module")
def skewed():
    rng = np.random.default_rng(25)
    return np.concatenate(
        [
            rng.normal(20, 2, int(NUM_ROWS * 0.6)),
            rng.lognormal(4.0, 0.7, int(NUM_ROWS * 0.4)),
        ]
    )


def range_queries(data, rng):
    lo_domain, hi_domain = float(data.min()), float(np.quantile(data, 0.99))
    for _ in range(RANGES):
        lo = rng.uniform(lo_domain, hi_domain)
        hi = lo + rng.uniform(0.02, 0.3) * (hi_domain - lo_domain)
        yield lo, hi


def test_e12_builder_comparison(skewed):
    def compute():
        rng = np.random.default_rng(26)
        queries = list(range_queries(skewed, rng))
        truths = [float(np.sum((skewed >= lo) & (skewed <= hi))) for lo, hi in queries]
        synopses = {
            "equi_width": equi_width(skewed, BUCKETS),
            "equi_depth": equi_depth(skewed, BUCKETS),
            "maxdiff": maxdiff(skewed, BUCKETS),
            "v_optimal": v_optimal(skewed, BUCKETS),
        }
        wavelet = build_wavelet_synopsis(
            skewed, num_cells=1024, keep_coefficients=BUCKETS
        )
        rows = []
        for name, h in synopses.items():
            errs = [
                abs(h.range_count(lo, hi) - t) / max(t, 1.0)
                for (lo, hi), t in zip(queries, truths)
            ]
            rows.append((name, h.memory_entries(), float(np.mean(errs))))
        werrs = [
            abs(wavelet.range_sum(lo, hi) - t) / max(t, 1.0)
            for (lo, hi), t in zip(queries, truths)
        ]
        rows.append(("haar_wavelet", wavelet.memory_entries(), float(np.mean(werrs))))
        # Sampling baseline at 'equal memory' (~BUCKETS rows!) and at 2k rows.
        for size in (BUCKETS, 2000):
            errs = []
            for trial in range(10):
                s = srs_sample(
                    Table({"v": skewed}), size, np.random.default_rng(trial)
                )
                w = len(skewed) / size
                for (lo, hi), t in zip(queries[:20], truths[:20]):
                    est = float(
                        np.sum((s.table["v"] >= lo) & (s.table["v"] <= hi))
                    ) * w
                    errs.append(abs(est - t) / max(t, 1.0))
            rows.append((f"sample_{size}_rows", size, float(np.mean(errs))))
        return rows

    rows = compute()
    write_report(
        "e12_range_count",
        table(
            ["synopsis", "entries", "mean relerr on range counts"],
            [(n, m, f"{e:.3%}") for n, m, e in rows],
        ),
    )
    by = {r[0]: r[2] for r in rows}
    # Shape: smarter bucketing strictly helps on skew...
    assert by["v_optimal"] < by["equi_width"]
    assert by["equi_depth"] < by["equi_width"]
    # ...and any decent histogram crushes a same-memory sample.
    assert by["v_optimal"] < by[f"sample_{BUCKETS}_rows"] / 5
    # A 2000-row sample (30x the memory) is needed to get competitive.
    assert by[f"sample_2000_rows"] < 5 * by["equi_depth"]


def test_e12_generality_cliff(skewed):
    """A histogram on column v cannot answer a query filtered on another
    column — it does not even have the information; a sample can."""
    rng = np.random.default_rng(27)
    other = rng.integers(0, 4, len(skewed))
    data = Table({"v": skewed, "grp": other})

    def compute():
        truth = float(np.sum(skewed[(other == 2) & (skewed < 50)]))
        # Sample handles the conjunctive predicate fine:
        s = srs_sample(data, 5000, np.random.default_rng(28))
        mask = (s.table["grp"] == 2) & (s.table["v"] < 50)
        sample_est = float(np.sum(s.table["v"][mask])) * (len(skewed) / 5000)
        # Best the histogram can do: assume independence and scale by 1/4.
        h = equi_depth(skewed, BUCKETS)
        hist_est = h.range_sum(None, 50) * 0.25
        return truth, sample_est, hist_est

    truth, sample_est, hist_est = compute()
    write_report(
        "e12_generality",
        table(
            ["estimator", "SUM(v) WHERE grp=2 AND v<50", "relerr"],
            [
                ("truth", f"{truth:.0f}", "-"),
                ("5000-row sample", f"{sample_est:.0f}",
                 f"{abs(sample_est - truth) / truth:.2%}"),
                ("histogram + independence guess", f"{hist_est:.0f}",
                 f"{abs(hist_est - truth) / truth:.2%}"),
            ],
        ),
    )
    assert abs(sample_est - truth) / truth < 0.1
    # The histogram answer is a guess; we don't assert it is wrong (the
    # independence assumption may luck out), only that the sample is
    # reliable — the asymmetry in *guarantees* is the point.
