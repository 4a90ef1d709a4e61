"""The row samplers' laws, checked per row over many seeds.

``bernoulli_rows`` and ``distinct_rows`` scans draw row positions as
geometric gaps between successes, not as one uniform per row. The law
must be the per-row one all the same: every row in with its own
probability (``rate``, or the distinct sampler's ``π``), Bernoulli rows
independent of each other, and the returned weights ``1/π``. Inclusion
counts over seeded trials are held to exact-binomial acceptance bands,
Bonferroni-corrected over rows so that a false alarm anywhere has
probability at most 1e-3.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.audit.acceptance import binomial_acceptance_band
from repro.engine.plan import SampleClause, Scan
from repro.sampling import row as row_module
from repro.sampling.distinct import distinct_selection
from repro.sampling.row import bernoulli_positions

TRIALS = 600


def _scan_ids(db, sample):
    out, _ = db.execute(Scan("t", sample=sample))
    return out["id"], out["__weight"]


def _world(keys):
    db = Database()
    db.create_table("t", {"id": np.arange(len(keys)), "k": keys}, block_size=64)
    return db


# ----------------------------------------------------------------------
# bernoulli_rows
# ----------------------------------------------------------------------

#: one rate on the gap path, one on the per-row mask path
BERNOULLI_RATES = [0.07, row_module._GAP_RATE_LIMIT / 2, 0.6]


@pytest.mark.statistical
@pytest.mark.parametrize("rate", BERNOULLI_RATES)
def test_bernoulli_rows_inclusion_and_pairwise_independence(rate, repro_seed):
    n = 150
    db = _world(np.zeros(n, dtype=np.int64))
    hits = np.zeros(n, dtype=np.int64)
    # joint inclusions at lags 1, 2 and n/2: gaps couple neighbours if anything
    lags = (1, 2, n // 2)
    joint = {lag: np.zeros(n - lag, dtype=np.int64) for lag in lags}
    for trial in range(TRIALS):
        sample = SampleClause("bernoulli_rows", rate=rate, seed=repro_seed * 100_003 + trial)
        ids, weights = _scan_ids(db, sample)
        assert np.all(np.diff(ids) > 0)
        assert np.all(weights == 1.0 / rate)
        included = np.zeros(n, dtype=bool)
        included[ids] = True
        hits += included
        for lag in lags:
            joint[lag] += included[:-lag] & included[lag:]
    lo, hi = binomial_acceptance_band(TRIALS, rate, alpha=1e-3 / n)
    assert lo <= hits.min() and hits.max() <= hi, (hits.min(), hits.max(), (lo, hi))
    pairs = sum(len(j) for j in joint.values())
    lo, hi = binomial_acceptance_band(TRIALS, rate * rate, alpha=1e-3 / pairs)
    for lag, counts in joint.items():
        assert lo <= counts.min() and counts.max() <= hi, (lag, counts.min(), counts.max())


@pytest.mark.parametrize("n", [0, 1, 2, 1_000])
@pytest.mark.parametrize("rate", [1e-300, 1e-9, 0.01, 0.29, 0.3, 0.9, 1.0])
def test_positions_are_strictly_increasing_and_in_range(n, rate):
    for seed in range(20):
        rows = bernoulli_positions(n, rate, np.random.default_rng(seed))
        assert rows.dtype == np.int64
        assert np.all(np.diff(rows) > 0)
        assert len(rows) == 0 or (rows[0] >= 0 and rows[-1] < n)


def test_rate_one_keeps_every_row():
    for n in (0, 1, 7, 5_000):
        assert bernoulli_positions(n, 1.0, np.random.default_rng(0)).tolist() == list(range(n))


def test_tiny_rates_keep_nothing_and_draw_little():
    """A gap far past the end is clipped before the running sum, so even
    a rate of 1e-300 neither overflows int64 nor draws a row per row."""

    class CountingRng:
        def __init__(self):
            self.inner = np.random.default_rng(1)
            self.drawn = 0

        def standard_exponential(self, size):
            self.drawn += size
            return self.inner.standard_exponential(size)

    for rate in (1e-300, 1e-12):
        rng = CountingRng()
        assert len(bernoulli_positions(10 ** 7, rate, rng)) == 0
        assert rng.drawn < 100


def test_gaps_of_one_run_through_every_chunk():
    """Each chunk of gaps is sized for the expected count; a stream of
    minimal gaps needs many chunks and must still cover the range once."""

    class UnitGaps:
        def standard_exponential(self, size):
            return np.zeros(size)

    for n in (1, 17, 10_000):
        assert bernoulli_positions(n, 0.01, UnitGaps()).tolist() == list(range(n))


def test_drawn_count_is_binomial():
    """Over one long range the count of positions is Binomial(n, rate)."""
    n, rate = 200_000, 0.013
    lo, hi = binomial_acceptance_band(n, rate, alpha=1e-3 / 20)
    for seed in range(20):
        assert lo <= len(bernoulli_positions(n, rate, np.random.default_rng(seed))) <= hi


# ----------------------------------------------------------------------
# distinct_rows
# ----------------------------------------------------------------------

#: (cap, rate) and a key column mixing every branch of the sampler:
#: groups no larger than the cap (kept whole), groups of at most
#: cap x multiplier rows (every row ranked, threshold 1), and large groups
#: ranked on their thinned candidates only
DISTINCT_CAP, DISTINCT_RATE = 3, 0.1
MIXED_SIZES = [1, 2, 3, 5, 9, 12, 13, 30, 61, 140]


@pytest.mark.statistical
@pytest.mark.parametrize("multiplier", [None, 0.5], ids=["gaps", "fallback"])
def test_distinct_rows_inclusion_matches_pi(multiplier, repro_seed, monkeypatch):
    from repro.sampling import distinct as distinct_module

    if multiplier is not None:  # large groups mostly fall short of the cap
        monkeypatch.setattr(distinct_module, "_CANDIDATE_MULTIPLIER", multiplier)
    keys = np.random.default_rng(4).permutation(
        np.repeat(np.arange(len(MIXED_SIZES)) * 11, MIXED_SIZES)
    )
    db = _world(keys)
    n = len(keys)
    group = np.searchsorted(np.arange(len(MIXED_SIZES)) * 11, keys)
    sizes = np.asarray(MIXED_SIZES)[group]
    q = np.minimum(DISTINCT_CAP, sizes) / sizes
    pi = q + (1.0 - q) * DISTINCT_RATE
    hits = np.zeros(n, dtype=np.int64)
    for trial in range(TRIALS):
        sample = SampleClause(
            "distinct_rows", rate=DISTINCT_RATE, columns=("k",), cap=DISTINCT_CAP,
            seed=repro_seed * 100_003 + trial,
        )
        ids, weights = _scan_ids(db, sample)
        assert np.all(np.diff(ids) > 0)
        np.testing.assert_allclose(weights, 1.0 / pi[ids], rtol=1e-12)
        kept = np.bincount(group[ids], minlength=len(MIXED_SIZES))
        assert np.all(kept >= np.minimum(DISTINCT_CAP, MIXED_SIZES))
        hits[ids] += 1
    for row in range(n):
        lo, hi = binomial_acceptance_band(TRIALS, float(pi[row]), alpha=1e-3 / n)
        assert lo <= hits[row] <= hi, (row, sizes[row], hits[row], (lo, hi))


@pytest.mark.parametrize("n", [0, 1])
def test_distinct_selection_on_tiny_inputs(n):
    rows, weights, groups = distinct_selection(
        [np.zeros(n, dtype=np.int64)], 0.2, 3, np.random.default_rng(0)
    )
    assert rows.tolist() == list(range(n))  # a group under the cap is kept whole
    assert weights.tolist() == [1.0] * n
    assert groups == n
