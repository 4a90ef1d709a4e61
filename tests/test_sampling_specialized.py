"""Tests for outlier, measure-biased, distinct, universe, reservoir, and
join-synopsis samplers."""

import numpy as np
import pytest

from repro import Database, SynopsisError, Table
from repro.audit.acceptance import (
    binomial_acceptance_band,
    chi2_upper_bound,
    mc_mean_within,
)
from repro.engine.aggregates import encode_groups
from repro.engine.executor import join_indices
from repro.sampling import distinct as distinct_module
from repro.sampling.distinct import (
    distinct_sample,
    distinct_selection,
    group_coverage,
)
from repro.sampling.join_synopsis import (
    ForeignKeyEdge,
    build_join_synopsis,
    refresh_needed,
)
from repro.sampling.measure_biased import (
    estimate_sum as mb_estimate_sum,
    measure_biased_sample,
    optimal_variance_ratio,
)
from repro.sampling.outlier import (
    build_outlier_index,
    estimate_sum_with_outliers,
    variance_reduction,
)
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.row import bernoulli_sample
from repro.sampling.universe import (
    estimate_join_sum,
    joint_universe_samples,
    universe_sample,
)
from repro.workloads import heavy_tailed_table, zipf_group_table


@pytest.fixture
def heavy(rng):
    return Table(heavy_tailed_table(40_000, sigma=2.5, seed=3), block_size=512)


class TestOutlierIndex:
    def test_split_sizes(self, heavy):
        idx = build_outlier_index(heavy, "value", 0.02)
        assert idx.outliers.num_rows == pytest.approx(800, abs=2)
        assert idx.outliers.num_rows + idx.inliers.num_rows == heavy.num_rows

    def test_outliers_are_extreme(self, heavy):
        idx = build_outlier_index(heavy, "value", 0.01)
        assert idx.outliers["value"].min() > np.median(heavy["value"])

    def test_variance_reduction_large_on_heavy_tails(self, heavy):
        assert variance_reduction(heavy, "value", 0.01) > 10

    def test_estimate_much_tighter_than_uniform(self, heavy, rng):
        truth = heavy["value"].sum()
        idx = build_outlier_index(heavy, "value", 0.01)
        outlier_errs, uniform_errs = [], []
        for t in range(30):
            r = np.random.default_rng(t)
            est, _ = estimate_sum_with_outliers(idx, 0.01, r)
            outlier_errs.append(abs(est.value - truth) / truth)
            u = bernoulli_sample(heavy, 0.01, r)
            uniform_errs.append(
                abs(u.estimate_sum("value").value - truth) / truth
            )
        assert np.median(outlier_errs) < np.median(uniform_errs)

    def test_zero_fraction(self, heavy):
        idx = build_outlier_index(heavy, "value", 0.0)
        assert idx.outliers.num_rows == 0

    def test_fraction_validation(self, heavy):
        with pytest.raises(ValueError):
            build_outlier_index(heavy, "value", 1.0)


class TestMeasureBiased:
    def test_expected_size(self, heavy, rng):
        s = measure_biased_sample(heavy, "value", 2000, rng)
        assert 500 < s.num_rows < 8000  # clipping makes this loose

    def test_sum_estimate_accurate(self, heavy, rng):
        s = measure_biased_sample(heavy, "value", 2000, rng)
        est = mb_estimate_sum(s)
        truth = heavy["value"].sum()
        assert est.value == pytest.approx(truth, rel=0.1)

    def test_beats_uniform_variance_on_skew(self, heavy):
        assert optimal_variance_ratio(heavy["value"]) > 5

    def test_uniform_measure_ratio_is_one(self):
        assert optimal_variance_ratio(np.full(1000, 3.0)) == pytest.approx(1.0)

    def test_predicate_mask(self, heavy, rng):
        s = measure_biased_sample(heavy, "value", 3000, rng)
        mask = s.table["group_id"] == 1
        est = mb_estimate_sum(s, mask)
        truth = heavy["value"][heavy["group_id"] == 1].sum()
        assert est.value == pytest.approx(truth, rel=0.25)

    def test_size_validation(self, heavy):
        with pytest.raises(ValueError):
            measure_biased_sample(heavy, "value", 0)


class TestDistinctSampler:
    @pytest.fixture
    def zipf(self):
        return Table(zipf_group_table(60_000, num_groups=500, zipf_s=1.6, seed=9))

    def test_full_group_coverage(self, zipf, rng):
        s = distinct_sample(zipf, ["group_id"], rate=0.01, frequency_cap=4, rng=rng)
        assert group_coverage(s, zipf) == 1.0

    def test_uniform_coverage_is_worse(self, zipf, rng):
        u = bernoulli_sample(zipf, 0.01, rng)
        base_groups = len(np.unique(zipf["group_id"]))
        seen = len(np.unique(u.table["group_id"]))
        assert seen < base_groups

    @pytest.mark.statistical
    def test_count_estimate_unbiasedish(self, zipf):
        ests = []
        for t in range(25):
            s = distinct_sample(
                zipf, ["group_id"], 0.02, frequency_cap=5,
                rng=np.random.default_rng(t),
            )
            ests.append(s.estimate_count().value)
        assert mc_mean_within(ests, zipf.num_rows)

    def test_weights_bounded_by_inverse_rate(self, zipf, rng):
        s = distinct_sample(zipf, ["group_id"], 0.1, frequency_cap=2, rng=rng)
        assert s.weights.max() <= 1.0 / 0.1 + 1e-9
        assert s.weights.min() >= 1.0

    def test_validation(self, zipf):
        with pytest.raises(ValueError):
            distinct_sample(zipf, ["group_id"], 0.0)
        with pytest.raises(ValueError):
            distinct_sample(zipf, ["group_id"], 0.5, frequency_cap=0)


def _argsort_distinct_selection(key_arrays, rate, frequency_cap, rng):
    """The pre-rewrite distinct sampler, kept as the test-only reference:
    shuffle, stable-argsort by group, keep ranks under the cap outright
    and the rest with probability ``rate``."""
    group_ids, key_tuples = encode_groups(key_arrays)
    n = len(group_ids)
    shuffle = rng.permutation(n)
    order = shuffle[np.argsort(group_ids[shuffle], kind="stable")]
    sorted_groups = group_ids[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_groups)) + 1])
    group_start = np.zeros(n, dtype=np.int64)
    group_start[starts] = starts
    group_start = np.maximum.accumulate(group_start)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - group_start
    keep = (rank < frequency_cap) | (rng.random(n) < rate)
    g = np.bincount(group_ids)[group_ids].astype(np.float64)
    q = np.minimum(frequency_cap, g) / g
    pi = q + (1.0 - q) * rate
    rows = np.flatnonzero(keep)
    return rows, 1.0 / pi[rows], len(key_tuples)


#: (rate, cap) the design tests run at; small enough that the capped
#: share of a group is visible in every statistic
DESIGN_RATE, DESIGN_CAP, DESIGN_TRIALS = 0.15, 5, 240


def _design_keys(kind):
    """Key columns whose groups exercise one branch of the sampler each."""
    cols = zipf_group_table(3_000, num_groups=60, zipf_s=1.3, seed=21)
    if kind == "zipf":  # a few big groups over the threshold, a long tail
        return [cols["group_id"]]
    if kind == "singletons":  # every group smaller than the cap
        return [np.arange(400, dtype=np.int64) // 2 * 7]
    if kind == "mixed":  # kept whole, every row ranked, and thinned groups
        sizes = [2, 5, 9, 20, 21, 45, 300]
        keys = np.repeat(np.arange(len(sizes)), sizes)
        return [np.random.default_rng(8).permutation(keys)]
    # composite (int, int) key, sparse in its packed range
    return [cols["group_id"] % 9 - 4, (cols["id"] % 3) * 1_000]


@pytest.mark.statistical
@pytest.mark.parametrize(
    "select,multiplier",
    [
        (distinct_selection, None),  # candidates drawn by gaps, thinned per group
        (distinct_selection, 0.4),  # most big groups fall back to a full rank
        (_argsort_distinct_selection, None),
    ],
    ids=["threshold", "fallback", "argsort-reference"],
)
@pytest.mark.parametrize("kind", ["zipf", "singletons", "composite", "mixed"])
def test_distinct_sampler_design(select, multiplier, kind, repro_seed, monkeypatch):
    """The gap-drawn sampler, its short-group fallback and the argsort
    reference realise one design: ``min(cap, size)`` rows of every group
    kept outright, the others each with probability ``rate``, weights
    ``1/π`` with ``π = q + (1-q)·rate``."""
    if multiplier is not None:
        monkeypatch.setattr(distinct_module, "_CANDIDATE_MULTIPLIER", multiplier)
    keys = _design_keys(kind)
    group_ids, key_tuples = encode_groups(keys)
    n, num_groups = len(group_ids), len(key_tuples)
    sizes = np.bincount(group_ids, minlength=num_groups)
    quota = np.minimum(DESIGN_CAP, sizes)
    q = quota / sizes
    pi = q + (1.0 - q) * DESIGN_RATE
    values = np.random.default_rng(5).exponential(50.0, n)
    included = np.zeros(n, dtype=np.int64)
    kept_in_group = np.zeros(num_groups, dtype=np.int64)
    ht_sums = []
    for t in range(DESIGN_TRIALS):
        rows, weights, found = select(
            keys, DESIGN_RATE, DESIGN_CAP, np.random.default_rng([repro_seed, t])
        )
        assert found == num_groups
        assert np.all(np.diff(rows) > 0)
        kept = np.bincount(group_ids[rows], minlength=num_groups)
        assert np.all(kept >= quota), "a group fell under its cap"
        assert np.allclose(weights, 1.0 / pi[group_ids[rows]], rtol=1e-12)
        included[rows] += 1
        kept_in_group += kept
        ht_sums.append(float(np.sum(weights * values[rows])))
    # Beyond its quota a group's kept rows are Binomial(size - quota, rate)
    # per trial, exactly; pooled over trials that is one binomial per group.
    for g in range(num_groups):
        extra_trials = DESIGN_TRIALS * int(sizes[g] - quota[g])
        extra = int(kept_in_group[g]) - DESIGN_TRIALS * int(quota[g])
        if extra_trials == 0:
            assert extra == 0
            continue
        lo, hi = binomial_acceptance_band(
            extra_trials, DESIGN_RATE, alpha=1e-3 / num_groups
        )
        assert lo <= extra <= hi, f"group {g}: {extra} not in [{lo}, {hi}]"
    # Rows of a group are exchangeable: each is included with probability π.
    for g in range(num_groups):
        lo, hi = binomial_acceptance_band(DESIGN_TRIALS, float(pi[g]), alpha=1e-3 / n)
        counts = included[group_ids == g]
        assert lo <= counts.min() and counts.max() <= hi
    truth = float(values.sum())
    if np.all(q == 1.0):  # every row kept at weight 1: no variance to band
        assert np.allclose(ht_sums, truth, rtol=1e-12)
    else:
        assert mc_mean_within(ht_sums, truth)


def test_distinct_sampler_cap_exceeds_every_group(rng):
    keys = [np.repeat(np.arange(30), 3)]
    rows, weights, num_groups = distinct_selection(keys, 0.05, 10, rng)
    assert num_groups == 30
    assert np.array_equal(rows, np.arange(90))  # nothing is thinned
    assert np.all(weights == 1.0)


def test_distinct_scan_directive_matches_sampler(rng):
    """A ``distinct_rows`` scan is the sampler, not a re-implementation:
    same seed, same rows, weights in the hidden column."""
    from repro.engine.plan import SampleClause, Scan

    cols = zipf_group_table(5_000, num_groups=40, zipf_s=1.2, seed=2)
    db = Database()
    db.create_table("z", cols, block_size=256)
    sample = SampleClause(
        "distinct_rows", rate=0.1, seed=77, columns=("group_id",), cap=3
    )
    out, stats = db.execute(Scan("z", sample=sample))
    rows, weights, _ = distinct_selection(
        [cols["group_id"]], 0.1, 3, np.random.default_rng(77)
    )
    assert np.array_equal(out["id"], rows)
    assert np.array_equal(out["__weight"], weights)
    # the sampler read every row to rank it: a full pass, few rows returned
    assert stats.rows_scanned == 5_000
    assert stats.blocks_scanned == db.table("z").num_blocks
    assert stats.rows_sampled == len(rows)


class TestUniverseSampling:
    def test_keys_survive_together(self, rng):
        left = Table({"k": rng.integers(0, 1000, 20_000), "v": rng.random(20_000)})
        right = Table({"k": np.arange(1000), "w": rng.random(1000)})
        ls, rs = joint_universe_samples(left, "k", right, "k", 0.2, seed=3)
        assert set(np.unique(ls.table["k"])) <= set(np.unique(rs.table["k"]))

    def test_key_fraction_near_rate(self, rng):
        t = Table({"k": np.arange(10_000)})
        s = universe_sample(t, "k", 0.1, seed=1)
        assert s.num_rows == pytest.approx(1000, abs=120)

    def test_join_sum_estimate(self, rng):
        n, d = 50_000, 2000
        keys = rng.integers(0, d, n)
        left = Table({"k": keys, "v": rng.exponential(5, n)})
        right = Table({"k": np.arange(d), "w": rng.random(d)})
        truth = float(np.sum(left["v"] * right["w"][keys]))
        ls, rs = joint_universe_samples(left, "k", right, "k", 0.15, seed=8)
        li, ri, _ = join_indices([ls.table["k"]], [rs.table["k"]])
        vals = ls.table["v"][li] * rs.table["w"][ri]
        est = estimate_join_sum(vals, ls.table["k"][li], 0.15)
        assert est.value == pytest.approx(truth, rel=0.25)
        lo, hi = est.ci(0.95)
        assert lo < truth < hi

    def test_rate_validation(self, rng):
        with pytest.raises(ValueError):
            universe_sample(Table({"k": np.arange(5)}), "k", 0.0)


class TestReservoir:
    def test_fills_to_capacity(self):
        r = ReservoirSampler(10, seed=0)
        r.offer_many(range(5))
        assert len(r) == 5
        r.offer_many(range(5, 100))
        assert len(r) == 10

    @pytest.mark.statistical
    def test_uniformity_chi_squared(self):
        # Each of 20 items should land in a 10-slot reservoir w.p. 1/2.
        counts = np.zeros(20)
        for seed in range(400):
            r = ReservoirSampler(10, seed=seed)
            r.offer_many(range(20))
            for item in r.sample():
                counts[item] += 1
        expected = 400 * 10 / 20
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < chi2_upper_bound(df=19)

    def test_offer_one_matches_seen(self):
        r = ReservoirSampler(5, seed=1)
        for i in range(1000):
            r.offer(i)
        assert r.seen == 1000

    def test_weight(self):
        r = ReservoirSampler(10, seed=2)
        r.offer_many(range(1000))
        assert r.weight == pytest.approx(100.0)

    def test_mean_estimate(self):
        r = ReservoirSampler(500, seed=3)
        r.offer_many(range(100_000))
        assert np.mean(r.sample_array()) == pytest.approx(50_000, rel=0.1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0)


class TestJoinSynopsis:
    @pytest.fixture
    def star(self, rng):
        db = Database()
        n, d = 30_000, 200
        db.create_table(
            "fact",
            {"fk": rng.integers(0, d, n), "v": rng.exponential(3, n)},
        )
        db.create_table(
            "dim",
            {"k": np.arange(d), "cat": rng.integers(0, 5, d)},
        )
        return db

    def test_build_and_estimate(self, star, rng):
        syn = build_join_synopsis(
            star, "fact", [ForeignKeyEdge("fk", "dim", "k")], 3000, rng
        )
        assert "dim.cat" in syn.sample.table.column_names
        # SUM(v) over the join (which equals SUM over fact for FK joins)
        est = syn.sample.estimate_sum("v")
        assert est.value == pytest.approx(star.table("fact")["v"].sum(), rel=0.1)

    def test_filtered_dimension_predicate(self, star, rng):
        syn = build_join_synopsis(
            star, "fact", [ForeignKeyEdge("fk", "dim", "k")], 5000, rng
        )
        mask = syn.sample.table["dim.cat"] == 2
        filt = syn.sample.filtered(mask)
        cats = star.table("dim")["cat"][star.table("fact")["fk"]]
        truth = star.table("fact")["v"][cats == 2].sum()
        assert filt.estimate_sum("v").value == pytest.approx(truth, rel=0.2)

    def test_broken_fk_rejected(self, rng):
        db = Database()
        db.create_table("fact", {"fk": np.array([0, 99]), "v": np.array([1.0, 2.0])})
        db.create_table("dim", {"k": np.array([0]), "c": np.array([1])})
        with pytest.raises(SynopsisError, match="no match"):
            build_join_synopsis(db, "fact", [ForeignKeyEdge("fk", "dim", "k")], 2, rng)

    def test_non_n1_join_rejected(self, rng):
        db = Database()
        db.create_table("fact", {"fk": np.array([0]), "v": np.array([1.0])})
        db.create_table("dim", {"k": np.array([0, 0]), "c": np.array([1, 2])})
        with pytest.raises(SynopsisError, match="N:1"):
            build_join_synopsis(db, "fact", [ForeignKeyEdge("fk", "dim", "k")], 1, rng)

    def test_refresh_needed_after_growth(self, star, rng):
        syn = build_join_synopsis(
            star, "fact", [ForeignKeyEdge("fk", "dim", "k")], 1000, rng
        )
        assert not refresh_needed(syn, star)
        star.append_rows(
            "fact",
            {"fk": rng.integers(0, 200, 10_000), "v": rng.random(10_000)},
        )
        assert refresh_needed(syn, star)
