"""Appends maintain what they change: samples and column statistics.

Covers the exact append rule of every maintainable sample design (the
maintenance law, checked per row over many seeds), the catalog folding
appended batches into its samples through ``Database.append_rows``, and
column statistics that are computed per column on read and merged, not
recomputed, on append.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, ErrorSpec, QueryOptions, Table
from repro.audit.acceptance import binomial_acceptance_band
from repro.offline import BlinkDBSelector, QueryTemplate, SampleEntry, SynopsisCatalog
from repro.sampling.maintain import absorb_append
from repro.sampling.measure_biased import measure_biased_sample
from repro.sampling.row import bernoulli_sample, srs_sample
from repro.sampling.stratified import stratified_sample
from repro.storage import statistics
from repro.storage.statistics import compute_column_stats
from repro.storage.synopsis_cache import SynopsisCache

TRIALS = 240


def _keyed(seg, start):
    seg = np.asarray(seg)
    return Table({"id": np.arange(start, start + len(seg)), "seg": seg})


def _segments(*counts):
    return np.repeat(np.arange(len(counts)), counts)


#: (base, two appended batches) per case; every row carries a unique id
BASE = _keyed(_segments(30, 14, 4), 0)
CASES = {
    # 12 of 48 rows, then 72 rows: every row included with p = 12/72
    "uniform": (BASE, _keyed(_segments(5, 3, 2), 48), _keyed(_segments(5, 0, 9), 58)),
    # senate sizes 8/8/8; segment 2 holds 4 < 8 rows, then 6, then 15
    "stratified_below_cap": (
        BASE, _keyed(_segments(5, 3, 2), 48), _keyed(_segments(5, 0, 9), 58),
    ),
    # segment 3 first arrives in a batch: 3 rows, then 12 (size 8)
    "new_key": (
        BASE, _keyed(_segments(5, 3, 2, 3), 48), _keyed(_segments(5, 0, 0, 9), 61),
    ),
}


def _build(case, base, rng):
    if case == "uniform":
        return srs_sample(base, 12, rng)
    return stratified_sample(base, "seg", 24, policy="senate", rng=rng)


@pytest.mark.statistical
@pytest.mark.parametrize("case", sorted(CASES))
def test_maintenance_law(case, repro_seed):
    """After two appends every stratum holds min(n_h, N_h) rows weighted
    N_h / min(n_h, N_h), and every row, old or appended, is in the sample
    as often as an SRS of that size from the grown stratum would put it."""
    base, first, second = CASES[case]
    grown = Table.concat([base, first, second])
    strata = (
        np.zeros(grown.num_rows, dtype=np.int64) if case == "uniform"
        else grown["seg"]
    )
    sizes = {0: 12} if case == "uniform" else {0: 8, 1: 8, 2: 8, 3: 8}
    population = np.bincount(strata)
    expected = np.array([min(sizes[h], n) for h, n in enumerate(population)])
    hits = np.zeros(grown.num_rows, dtype=np.int64)
    for trial in range(TRIALS):
        rng = np.random.default_rng([repro_seed, trial])
        sample = _build(case, base, rng)
        for batch in (first, second):
            sample = absorb_append(sample, batch, rng)
        ids = sample.table["id"]
        assert len(np.unique(ids)) == len(ids)
        assert sample.population_rows == grown.num_rows
        held = strata[ids]
        assert np.array_equal(np.bincount(held, minlength=len(population)), expected)
        np.testing.assert_allclose(sample.weights, (population / expected)[held])
        hits[ids] += 1
    # Bonferroni over rows: a false alarm anywhere has probability <= 1e-3.
    for row, h in enumerate(strata):
        lo, hi = binomial_acceptance_band(
            TRIALS, expected[h] / population[h], alpha=1e-3 / grown.num_rows
        )
        assert lo <= hits[row] <= hi, (row, h, hits[row], (lo, hi))


def test_bernoulli_sample_draws_the_batch_at_its_rate():
    rng = np.random.default_rng(5)
    base = _keyed(np.zeros(20_000, dtype=np.int64), 0)
    batch = _keyed(np.zeros(20_000, dtype=np.int64), 20_000)
    sample = absorb_append(bernoulli_sample(base, 0.1, rng), batch, rng)
    appended = np.count_nonzero(sample.table["id"] >= 20_000)
    lo, hi = binomial_acceptance_band(20_000, 0.1)
    assert lo <= appended <= hi
    assert sample.population_rows == 40_000
    assert np.all(sample.weights == 10.0)


def test_designs_without_an_exact_rule_are_not_maintained():
    rng = np.random.default_rng(0)
    base = Table({"v": rng.exponential(1.0, 500)})
    biased = measure_biased_sample(base, "v", 50, rng=rng)
    assert absorb_append(biased, Table({"v": np.ones(5)}), rng) is None


# ----------------------------------------------------------------------
# The catalog absorbs appends through Database.append_rows
# ----------------------------------------------------------------------

def _clicks(rng, n):
    return {
        "country": rng.integers(0, 6, n),
        "page": rng.integers(0, 40, n),
        "dwell": rng.exponential(30.0, n),
    }


def _catalog_with_every_kind(seed):
    rng = np.random.default_rng(seed)
    db = Database()
    db.create_table("clicks", _clicks(rng, 20_000))
    table = db.table("clicks")
    catalog = SynopsisCatalog.for_database(db)
    BlinkDBSelector(
        db, budget_rows=10_000, rows_per_stratum=500, seed=seed,
        cache=SynopsisCache(),
    ).build_for_workload([QueryTemplate("clicks", ("country",), 1.0)])
    for kind, sample in (
        ("uniform", srs_sample(table, 1_000, rng)),
        ("uniform", bernoulli_sample(table, 0.05, rng)),
        ("measure_biased", measure_biased_sample(table, "dwell", 1_000, rng=rng)),
    ):
        catalog.add_sample(
            SampleEntry(
                table="clicks", sample=sample, kind=kind,
                measure_column="dwell" if kind == "measure_biased" else None,
                built_at_rows=table.num_rows,
            )
        )
    return db, catalog, rng


def test_appends_keep_maintainable_samples_fresh():
    db, catalog, rng = _catalog_with_every_kind(seed=3)
    for _ in range(12):
        db.append_rows("clicks", _clicks(rng, 200))
    rows = db.table("clicks").num_rows
    biased = [e for e in catalog.samples if e.kind == "measure_biased"]
    for entry in catalog.samples:
        if entry in biased:
            assert entry.version == 0  # ages under the staleness rule
            continue
        assert entry.version == 12 and entry.staleness(db) == 0
        assert entry.sample.population_rows == rows
        assert entry.sample.estimate_count().value == pytest.approx(rows, rel=0.05)
    assert catalog.stale_entries() == biased


def test_maintenance_replays_under_a_seed():
    runs = []
    for _ in range(2):
        db, catalog, rng = _catalog_with_every_kind(seed=9)
        for _ in range(3):
            db.append_rows("clicks", _clicks(rng, 200))
        runs.append([(e.sample.table["dwell"], e.sample.weights) for e in catalog.samples])
    for (a_rows, a_weights), (b_rows, b_weights) in zip(*runs):
        assert np.array_equal(a_rows, b_rows) and np.array_equal(a_weights, b_weights)


def test_stale_samples_are_left_stale():
    """A sample of an older version of the table does not describe the
    rows before the batch; folding the batch in would hide that."""
    rng = np.random.default_rng(1)
    db = Database()
    data = _clicks(rng, 10_000)
    db.create_table("clicks", data)
    prefix = Table({k: v[:8_000] for k, v in data.items()}, name="clicks")
    entry = SampleEntry(
        table="clicks", sample=srs_sample(prefix, 500, rng), kind="uniform",
        built_at_rows=8_000,
    )
    SynopsisCatalog.for_database(db).add_sample(entry)
    db.append_rows("clicks", _clicks(rng, 100))
    assert entry.version == 0 and entry.built_at_rows == 8_000


def test_synopsis_cache_never_serves_a_pre_append_sample():
    rng = np.random.default_rng(2)
    db = Database()
    db.create_table("clicks", _clicks(rng, 20_000))
    cache = SynopsisCache()
    selector = BlinkDBSelector(db, budget_rows=10_000, rows_per_stratum=500, seed=4, cache=cache)
    templates = [QueryTemplate("clicks", ("country",), 1.0)]
    (entry,), _ = selector.build_for_workload(templates)
    built = entry.sample
    weights = built.weights.copy()
    db.append_rows("clicks", _clicks(rng, 2_000))
    # The catalog moved to a new object; the cached build is untouched.
    assert entry.sample is not built
    assert built.population_rows == 20_000 and np.array_equal(built.weights, weights)
    # Under the grown table's fingerprint the cache builds afresh.
    (rebuilt,), _ = selector.build_for_workload(templates)
    assert rebuilt.sample is not built
    assert rebuilt.sample.population_rows == 22_000


def test_new_key_is_answered_after_appends():
    rng = np.random.default_rng(6)
    db = Database()
    db.create_table("clicks", _clicks(rng, 20_000))
    BlinkDBSelector(
        db, budget_rows=10_000, rows_per_stratum=500, seed=1, cache=SynopsisCache()
    ).build_for_workload([QueryTemplate("clicks", ("country",), 1.0)])
    batch = _clicks(rng, 300)
    batch["country"][:50] = 6  # a country the build never saw
    db.append_rows("clicks", batch)
    result = db.sql(
        "SELECT country, SUM(dwell) AS s FROM clicks GROUP BY country",
        options=QueryOptions(
            spec=ErrorSpec(0.5, 0.95), technique="offline_sample", seed=0
        ),
    )
    assert result.technique == "offline_sample"
    countries = result.table["country"].tolist()
    new = countries.index(6)
    truth = float(batch["dwell"][:50].sum())
    assert result.table["s"][new] == pytest.approx(truth)  # kept whole: exact


# ----------------------------------------------------------------------
# Column statistics: per column on read, merged on append
# ----------------------------------------------------------------------

def _mixed(rng, n, top):
    return {
        "k": rng.integers(0, top, n),
        "x": rng.normal(0.0, top, n),
        "s": np.array([f"v{i}" for i in rng.integers(0, top, n)], dtype=object),
    }


def test_merged_statistics_equal_a_fresh_computation():
    rng = np.random.default_rng(0)
    db = Database()
    db.create_table("t", _mixed(rng, 2_000, 50))
    db.stats("t").column("k")  # read before the appends: merged
    for step in range(5):
        db.append_rows("t", _mixed(rng, 300, 50 + 20 * step))
        if step == 1:
            db.stats("t").column("s")
    stats = db.stats("t")
    table = db.table("t")
    assert stats.num_rows == table.num_rows
    for name in ("k", "x", "s"):
        merged, fresh = stats.column(name), compute_column_stats(name, table[name])
        assert (merged.num_rows, merged.num_distinct) == (fresh.num_rows, fresh.num_distinct)
        assert (merged.min_value, merged.max_value) == (fresh.min_value, fresh.max_value)


def _column(kind, rng, n, step):
    if kind == "int":
        return rng.integers(-(10 ** 12), 10 ** 12, n) // (10 ** (12 - step))
    if kind == "uint8":
        return rng.integers(0, 40 + 50 * step, n).astype(np.uint8)
    if kind == "bool":
        return rng.random(n) < 0.1 * step
    if kind == "float":
        out = np.round(rng.normal(0.0, 3.0, n), 1)
        out[rng.random(n) < 0.05] = np.nan
        out[rng.random(n) < 0.05] = -0.0
        return out
    return np.array([f"s{i}" for i in rng.integers(0, 20 * (step + 1), n)], dtype=object)


@pytest.mark.parametrize("kind", ["int", "uint8", "bool", "float", "object"])
def test_merged_distinct_values_equal_a_fresh_computation(kind):
    """Several appends merge into the same sorted distinct values, and so
    the same NDV, as one computation over the grown column."""
    rng = np.random.default_rng(3)
    column = _column(kind, rng, 500, 0)
    merged = compute_column_stats("c", column)
    for step in range(1, 5):
        column = np.concatenate([column, _column(kind, rng, 200, step)])
        merged = merged.appended(column)
    fresh = compute_column_stats("c", column)
    assert merged.num_distinct == fresh.num_distinct
    assert merged._distinct.dtype == fresh._distinct.dtype
    if kind == "float":
        np.testing.assert_array_equal(merged._distinct, fresh._distinct)
    else:
        assert merged._distinct.tolist() == fresh._distinct.tolist()


def test_reading_a_column_after_an_append_computes_no_other(monkeypatch):
    computed = []
    real = statistics.compute_column_stats

    def spy(name, values, **kwargs):
        computed.append(name)
        return real(name, values, **kwargs)

    monkeypatch.setattr(statistics, "compute_column_stats", spy)
    rng = np.random.default_rng(0)
    db = Database()
    db.create_table("clicks", _clicks(rng, 5_000))
    assert db.stats("clicks").column("page").num_distinct == 40
    assert computed == ["page"]
    db.append_rows("clicks", _clicks(rng, 50))
    assert db.stats("clicks").column("page").num_rows == 5_050
    assert computed == ["page"]  # merged, not recomputed
    db.append_rows("clicks", _clicks(rng, 50))
    db.stats("clicks").column("country")
    assert computed == ["page", "country"]


def test_statistics_of_replaced_content_are_not_cached():
    rng = np.random.default_rng(0)
    db = Database()
    db.create_table("clicks", _clicks(rng, 1_000))
    before = db.stats("clicks")
    db.append_rows("clicks", _clicks(rng, 10))
    # Read after the append: describes the old content, cached nowhere new.
    assert before.column("dwell").num_rows == 1_000
    assert db.stats("clicks").column("dwell").num_rows == 1_010
