"""Tests for stratified sampling and its allocation policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro import SynopsisError, Table
from repro.audit.acceptance import within_sigma
from repro.sampling.stratified import allocate, group_estimates, stratified_sample
from repro.workloads import zipf_group_table


@pytest.fixture
def skewed(rng):
    cols = zipf_group_table(50_000, num_groups=100, zipf_s=1.5, seed=2)
    return Table(cols, name="z", block_size=512)


class TestAllocation:
    def test_proportional_tracks_sizes(self):
        alloc = allocate([1000, 3000, 6000], 100, "proportional", min_per_stratum=0)
        assert alloc == [10, 30, 60]

    def test_senate_equal(self):
        alloc = allocate([1000, 3000, 6000], 90, "senate", min_per_stratum=0)
        assert alloc == [30, 30, 30]

    def test_congress_protects_small_without_starving_large(self):
        sizes = [10_000, 100, 100]
        prop = allocate(sizes, 300, "proportional", min_per_stratum=0)
        cong = allocate(sizes, 300, "congress", min_per_stratum=0)
        assert cong[1] > prop[1]  # small stratum boosted
        assert cong[0] > cong[1]  # large stratum still biggest

    def test_neyman_follows_variance(self):
        alloc = allocate(
            [1000, 1000], 100, "neyman", stratum_stds=[1.0, 9.0], min_per_stratum=0
        )
        assert alloc[1] == pytest.approx(90, abs=2)

    def test_neyman_requires_stds(self):
        with pytest.raises(SynopsisError):
            allocate([10, 10], 5, "neyman")

    def test_unknown_policy(self):
        with pytest.raises(SynopsisError):
            allocate([10], 5, "dictatorship")

    def test_caps_at_population(self):
        alloc = allocate([5, 1000], 500, "senate")
        assert alloc[0] <= 5

    @given(
        hst.lists(hst.integers(1, 10_000), min_size=1, max_size=20),
        hst.integers(1, 5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_never_exceeds_population(self, sizes, total):
        for policy in ("proportional", "senate", "congress"):
            alloc = allocate(sizes, total, policy)
            assert all(0 <= a <= s for a, s in zip(alloc, sizes))


class TestStratifiedSample:
    def test_every_stratum_present(self, skewed, rng):
        s = stratified_sample(skewed, "group_id", 3000, policy="senate", rng=rng)
        assert len(np.unique(s.table["group_id"])) == len(
            np.unique(skewed["group_id"])
        )

    def test_uniform_misses_what_stratified_keeps(self, skewed, rng):
        from repro.sampling.row import srs_sample

        uniform = srs_sample(skewed, 3000, rng)
        stratified = stratified_sample(skewed, "group_id", 3000, "senate", rng=rng)
        n_total = len(np.unique(skewed["group_id"]))
        n_uniform = len(np.unique(uniform.table["group_id"]))
        n_strat = len(np.unique(stratified.table["group_id"]))
        assert n_strat == n_total
        assert n_uniform < n_total  # zipf tail groups get lost

    def test_weights_reflect_strata(self, skewed, rng):
        s = stratified_sample(skewed, "group_id", 2000, "senate", rng=rng)
        # Rare groups sampled fully have weight 1.
        strata = s.params["strata"]
        smallest = min(strata, key=lambda x: x.population)
        assert smallest.weight == pytest.approx(1.0)

    @pytest.mark.statistical
    def test_ht_total_close(self, skewed, rng):
        s = stratified_sample(skewed, "group_id", 5000, "congress", rng=rng)
        assert within_sigma(s.estimate_sum("value"), skewed["value"].sum())

    def test_composite_strata(self, rng):
        t = Table(
            {
                "a": rng.integers(0, 3, 1000),
                "b": rng.integers(0, 2, 1000),
                "v": rng.random(1000),
            }
        )
        s = stratified_sample(t, ["a", "b"], 120, "senate", rng=rng)
        combos = {tuple(x) for x in zip(s.table["a"], s.table["b"])}
        assert len(combos) == 6

    def test_group_estimates_per_group_accuracy(self, skewed, rng):
        s = stratified_sample(skewed, "group_id", 8000, "congress",
                              min_per_stratum=20, rng=rng)
        ests = group_estimates(s, "group_id", "value", "sum")
        errors = []
        for key, est in ests.items():
            truth = skewed["value"][skewed["group_id"] == key].sum()
            if truth > 0:
                errors.append(abs(est.value - truth) / truth)
        # Even tail groups stay reasonable; median well under 20%.
        assert np.median(errors) < 0.2

    def test_group_estimates_count_exact_for_full_strata(self, skewed, rng):
        s = stratified_sample(skewed, "group_id", 2000, "senate", rng=rng)
        ests = group_estimates(s, "group_id", None, "count")
        strata = {x.key: x for x in s.params["strata"]}
        for key, est in ests.items():
            assert est.value == strata[key].population

    def test_group_estimates_bad_agg(self, skewed, rng):
        s = stratified_sample(skewed, "group_id", 1000, rng=rng)
        with pytest.raises(SynopsisError):
            group_estimates(s, "group_id", "value", "median")


def _old_encoding(table, strata_column):
    """Stratum ids and keys as ``stratified_sample`` once encoded them:
    ``np.unique`` for one column, ``encode_groups`` tuples for several."""
    from repro.engine.aggregates import encode_groups

    if isinstance(strata_column, str):
        uniq, inverse = np.unique(table[strata_column], return_inverse=True)
        return inverse, [k.item() if hasattr(k, "item") else k for k in uniq]
    inverse, keys = encode_groups([table[c] for c in strata_column])
    return inverse, keys


@pytest.mark.parametrize(
    "strata_column", ["i", "s", ("i", "s")], ids=["int", "string", "composite"]
)
@pytest.mark.parametrize("policy", ["congress", "neyman"])
def test_sample_is_bitwise_the_old_encodings(strata_column, policy):
    """One ``encode_groups_arrays`` call gives the ids and keys the two
    earlier encodings gave, in value order, so the same rows are drawn."""
    from repro.sampling.stratified import _allocation_targets, srs_per_stratum

    rng = np.random.default_rng(5)
    n = 20_000
    ints = rng.integers(-3, 200, n) * 7
    table = Table(
        {
            "i": ints,
            "s": np.array([f"c{k % 13}" for k in ints], dtype=object),
            "v": rng.exponential(4.0, n),
        },
        name="t",
    )
    got = stratified_sample(
        table, strata_column, 1_500, policy, measure_column="v",
        rng=np.random.default_rng(9),
    )
    inverse, keys = _old_encoding(table, strata_column)
    counts = np.bincount(inverse, minlength=len(keys))
    stds = None
    if policy == "neyman":
        v = table["v"]
        means = np.bincount(inverse, weights=v) / counts
        stds = np.sqrt(np.maximum(
            np.bincount(inverse, weights=v * v) / counts - means * means, 0.0
        ))
    targets = _allocation_targets(counts.tolist(), 1_500, policy, stds, 1)
    rows = srs_per_stratum(inverse, targets, np.random.default_rng(9))
    weights = (counts / np.maximum(np.minimum(targets, counts), 1))[inverse[rows]]
    assert [s.key for s in got.params["strata"]] == list(keys)
    np.testing.assert_array_equal(got.weights, weights)
    for column in table.column_names:
        np.testing.assert_array_equal(got.table[column], table[column][rows])
