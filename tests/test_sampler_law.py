"""The samplers' laws, checked per row over many seeds, and one draw
per design.

``bernoulli_rows`` and ``distinct_rows`` scans draw row positions as
geometric gaps between successes, not as one uniform per row. The law
must be the per-row one all the same: every row in with its own
probability (``rate``, or the distinct sampler's ``π``), Bernoulli rows
independent of each other, and the returned weights ``1/π``. Inclusion
counts over seeded trials are held to exact-binomial acceptance bands,
Bonferroni-corrected over rows so that a false alarm anywhere has
probability at most 1e-3. Every library entry point of
:mod:`repro.sampling` (and the append rule of
:mod:`repro.sampling.maintain`) is held to the same bands, and each
library sampler with a scan twin must select, seed for seed, exactly the
rows that scan selects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, Table
from repro.audit.acceptance import binomial_acceptance_band
from repro.engine.plan import SampleClause, Scan
from repro.sampling import row as row_module
from repro.sampling.block import block_bernoulli_sample, block_fixed_sample
from repro.sampling.distinct import distinct_sample, distinct_selection
from repro.sampling.maintain import absorb_append
from repro.sampling.row import bernoulli_positions, bernoulli_sample, srs_sample
from repro.sampling.stratified import stratified_sample

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


# ----------------------------------------------------------------------
# One draw per design: a library sampler selects what its scan selects
# ----------------------------------------------------------------------

#: scan directive, and its library twin called with ``default_rng(seed)``
SAME_DRAW = {
    "bernoulli_rows_gaps": (
        dict(method="bernoulli_rows", rate=0.07),
        lambda t, rng: bernoulli_sample(t, 0.07, rng),
    ),
    "bernoulli_rows_mask": (
        dict(method="bernoulli_rows", rate=0.6),
        lambda t, rng: bernoulli_sample(t, 0.6, rng),
    ),
    "fixed_rows": (dict(method="fixed_rows", size=37), lambda t, rng: srs_sample(t, 37, rng)),
    "system_blocks": (
        dict(method="system_blocks", rate=0.3),
        lambda t, rng: block_bernoulli_sample(t, 0.3, rng),
    ),
    "fixed_blocks": (
        dict(method="fixed_blocks", size=4),
        lambda t, rng: block_fixed_sample(t, 4, rng),
    ),
    "distinct_rows": (
        dict(method="distinct_rows", rate=DISTINCT_RATE, columns=("k",), cap=DISTINCT_CAP),
        lambda t, rng: distinct_sample(t, ["k"], DISTINCT_RATE, DISTINCT_CAP, rng),
    ),
}


@pytest.mark.parametrize("design", sorted(SAME_DRAW))
def test_library_sampler_selects_what_the_scan_selects(design):
    clause, sampler = SAME_DRAW[design]
    keys = np.repeat(np.arange(len(MIXED_SIZES)), MIXED_SIZES)  # 276 rows, 5 blocks
    db = _world(np.random.default_rng(4).permutation(keys))
    for seed in range(30):
        scanned, _ = db.execute(Scan("t", sample=SampleClause(seed=seed, **clause)))
        drawn = sampler(db.table("t"), np.random.default_rng(seed))
        assert scanned["id"].tolist() == drawn.table["id"].tolist()
        # only the two Bernoulli-style scans expose weights, never a fixed-size one
        weighted = clause["method"] in ("bernoulli_rows", "distinct_rows")
        assert ("__weight" in scanned) == weighted
        if weighted:
            assert scanned["__weight"].tolist() == drawn.weights.tolist()
        if SampleClause(**clause).is_block_level:
            assert scanned["__block_id"].tolist() == drawn.table["__block_id"].tolist()


# ----------------------------------------------------------------------
# Library entry points: inclusion laws
# ----------------------------------------------------------------------

#: stratum of each of 150 rows: 100 present when a sample is built, 50
#: appended after; stratum 4 first arrives with the appended rows
BUILT_SEGS = np.random.default_rng(5).permutation(np.repeat([0, 1, 2, 3], [3, 14, 33, 50]))
APPENDED_SEGS = np.random.default_rng(6).permutation(np.repeat([0, 1, 2, 3, 4], [2, 6, 17, 19, 6]))
SEGS = np.concatenate([BUILT_SEGS, APPENDED_SEGS])
#: senate sizes of 12 per stratum (the new stratum takes the smallest)
HELD = np.minimum(12, np.bincount(SEGS))
LAW_BLOCK = 16  # 150 rows: 10 blocks, the last one short
BLOCK_RATE, FIXED_BLOCKS, SRS_ROWS, BERNOULLI_RATE = 0.3, 4, 37, 0.07
#: a cap of 5 puts the strata of 5, 6 and 20+ rows on each branch of the
#: distinct sampler: kept whole, every row ranked, candidates thinned
LAW_CAP = 5
OUTRIGHT = np.minimum(LAW_CAP, np.bincount(SEGS)) / np.bincount(SEGS)
DISTINCT_PI = (OUTRIGHT + (1.0 - OUTRIGHT) * BERNOULLI_RATE)[SEGS]
STRATIFIED_PI = (HELD / np.bincount(SEGS))[SEGS]


def _rows(start, stop):
    return Table(
        {"id": np.arange(start, stop), "seg": SEGS[start:stop]}, block_size=LAW_BLOCK
    )


#: entry point (called with an rng) -> per-row inclusion probability
LIBRARY_LAWS = {
    "bernoulli_sample": (
        lambda rng: bernoulli_sample(_rows(0, 150), BERNOULLI_RATE, rng),
        np.full(150, BERNOULLI_RATE),
    ),
    "srs_sample": (
        lambda rng: srs_sample(_rows(0, 150), SRS_ROWS, rng), np.full(150, SRS_ROWS / 150)
    ),
    "block_bernoulli_sample": (
        lambda rng: block_bernoulli_sample(_rows(0, 150), BLOCK_RATE, rng),
        np.full(150, BLOCK_RATE),
    ),
    "block_fixed_sample": (
        lambda rng: block_fixed_sample(_rows(0, 150), FIXED_BLOCKS, rng),
        np.full(150, FIXED_BLOCKS / 10),
    ),
    "absorb_append_bernoulli": (
        lambda rng: absorb_append(
            bernoulli_sample(_rows(0, 100), BERNOULLI_RATE, rng), _rows(100, 150), rng
        ),
        np.full(150, BERNOULLI_RATE),
    ),
    "distinct_sample": (
        lambda rng: distinct_sample(_rows(0, 150), ["seg"], BERNOULLI_RATE, LAW_CAP, rng),
        DISTINCT_PI,
    ),
    "stratified_sample": (
        lambda rng: stratified_sample(_rows(0, 150), "seg", 60, policy="senate", rng=rng),
        STRATIFIED_PI,
    ),
    "absorb_append_stratified": (
        lambda rng: absorb_append(
            stratified_sample(_rows(0, 100), "seg", 48, policy="senate", rng=rng),
            _rows(100, 150),
            rng,
        ),
        STRATIFIED_PI,
    ),
}


@pytest.mark.statistical
@pytest.mark.parametrize("entry", sorted(LIBRARY_LAWS))
def test_library_inclusion_law(entry, repro_seed):
    """Every row in as often as its design's ``π`` says, weights ``1/π``;
    fixed-size designs hold exactly their size (per stratum, or in whole
    blocks)."""
    draw, pi = LIBRARY_LAWS[entry]
    hits = np.zeros(len(SEGS), dtype=np.int64)
    for trial in range(TRIALS):
        sample = draw(np.random.default_rng([repro_seed, trial]))
        ids = sample.table["id"]
        assert np.all(np.diff(ids) > 0)
        assert sample.population_rows == len(SEGS)
        np.testing.assert_allclose(sample.weights, 1.0 / pi[ids], rtol=1e-12)
        if entry.startswith("block"):
            blocks = ids // LAW_BLOCK
            assert sample.table["__block_id"].tolist() == blocks.tolist()
            drawn = np.unique(blocks)  # each in whole: 16 rows, 6 in the last
            whole = np.minimum(LAW_BLOCK, len(SEGS) - drawn * LAW_BLOCK)
            assert np.bincount(blocks)[drawn].tolist() == whole.tolist()
        if entry == "block_fixed_sample":
            assert len(drawn) == FIXED_BLOCKS
        if entry == "srs_sample":
            assert len(ids) == SRS_ROWS
        if "stratified" in entry:
            assert np.bincount(SEGS[ids], minlength=len(HELD)).tolist() == HELD.tolist()
        hits[ids] += 1
    for p in np.unique(pi):
        rows = np.flatnonzero(pi == p)
        lo, hi = binomial_acceptance_band(TRIALS, float(p), alpha=1e-3 / len(SEGS))
        assert lo <= hits[rows].min() and hits[rows].max() <= hi, (entry, p, (lo, hi))
