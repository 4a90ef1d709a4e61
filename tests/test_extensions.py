"""Tests for the extension modules: bi-level sampling, the IDEA-style
reuse cache, the FM sketch, the accuracy audit harness, and the CLI."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro import Database, ErrorSpec, Table, UnsupportedQueryError
from repro.audit import AuditContext, DoorRow, audit_one, score
from repro.core.exceptions import MergeError
from repro.core.options import QueryOptions
from repro.online import ReuseCache
from repro.sampling.bilevel import (
    bilevel_sample,
    effective_row_fraction,
    io_cost_fraction,
    variance_tradeoff_curve,
)
from repro.sketches.fm import FlajoletMartin
from repro.workloads import clustered_values


# ----------------------------------------------------------------------
# Bi-level sampling
# ----------------------------------------------------------------------

class TestBilevelSampling:
    @pytest.fixture
    def clustered(self):
        return Table(
            clustered_values(30_000, block_size=256, seed=41), block_size=256
        )

    def test_sample_size_near_product_of_rates(self, clustered, rng):
        s = bilevel_sample(clustered, 0.2, 0.5, rng)
        expected = clustered.num_rows * 0.1
        assert abs(s.num_rows - expected) < expected * 0.5

    def test_weights_inverse_joint_rate(self, clustered, rng):
        s = bilevel_sample(clustered, 0.25, 0.4, rng)
        assert np.allclose(s.weights, 10.0)

    def test_sum_estimate_unbiasedish(self, clustered):
        truth = clustered["value"].sum()
        ests = [
            bilevel_sample(clustered, 0.3, 0.5, np.random.default_rng(t))
            .estimate_sum("value")
            .value
            for t in range(20)
        ]
        assert np.mean(ests) == pytest.approx(truth, rel=0.05)

    def test_count_estimate(self, clustered, rng):
        s = bilevel_sample(clustered, 0.3, 0.5, rng)
        est = s.estimate_count()
        assert est.value == pytest.approx(clustered.num_rows, rel=0.2)

    def test_ci_covers(self, clustered):
        truth = clustered["value"].sum()
        hits = 0
        for t in range(30):
            s = bilevel_sample(clustered, 0.3, 0.5, np.random.default_rng(t))
            lo, hi = s.estimate_sum("value").ci(0.95)
            hits += lo <= truth <= hi
        assert hits >= 24

    def test_tradeoff_curve_shape(self, clustered):
        """At a fixed effective row fraction on clustered data, error
        falls as block_rate rises (more, thinner clusters) while I/O
        climbs — the bi-level design space."""
        curve = variance_tradeoff_curve(
            clustered, "value", effective_fraction=0.05, trials=10, seed=7
        )
        assert curve[0][1] < curve[-1][1]  # io grows with block rate
        assert curve[-1][2] < curve[0][2]  # error shrinks with block rate

    def test_helpers(self):
        assert io_cost_fraction(0.2) == 0.2
        assert effective_row_fraction(0.2, 0.5) == pytest.approx(0.1)

    def test_rate_validation(self, clustered):
        with pytest.raises(ValueError):
            bilevel_sample(clustered, 0.0, 0.5)
        with pytest.raises(ValueError):
            bilevel_sample(clustered, 0.5, 1.5)


# ----------------------------------------------------------------------
# IDEA-style reuse cache
# ----------------------------------------------------------------------

class TestReuseCache:
    @pytest.fixture
    def db(self, rng):
        n = 150_000
        db = Database()
        db.create_table(
            "t",
            {
                "v": rng.exponential(5.0, n),
                "g": rng.integers(0, 5, n),
                "sel": rng.random(n),
            },
            block_size=512,
        )
        return db

    def test_second_query_reuses(self, db):
        cache = ReuseCache(db, seed=1)
        spec = ErrorSpec(0.1, 0.9)
        first = cache.sql("SELECT SUM(v) AS s FROM t WHERE sel < 0.5", spec)
        second = cache.sql(
            "SELECT g, AVG(v) AS m FROM t WHERE sel < 0.5 GROUP BY g", spec
        )
        assert first.technique == "quickr"
        assert second.technique == "idea_reuse"
        assert second.diagnostics["reused"] is True
        assert cache.stats.hit_rate == 0.5

    def test_reused_answers_are_accurate(self, db):
        cache = ReuseCache(db, seed=2)
        spec = ErrorSpec(0.1, 0.9)
        cache.sql("SELECT SUM(v) AS s FROM t WHERE sel < 0.5", spec)
        res = cache.sql(
            "SELECT g, SUM(v) AS s FROM t WHERE sel < 0.5 GROUP BY g", spec
        )
        t = db.table("t")
        mask = t["sel"] < 0.5
        for row in res.to_pylist():
            truth = t["v"][mask & (t["g"] == row["g"])].sum()
            assert row["s"] == pytest.approx(truth, rel=0.1)

    def test_different_predicate_misses(self, db):
        cache = ReuseCache(db, seed=3)
        spec = ErrorSpec(0.1, 0.9)
        cache.sql("SELECT SUM(v) AS s FROM t WHERE sel < 0.5", spec)
        other = cache.sql("SELECT SUM(v) AS s FROM t WHERE sel < 0.2", spec)
        assert other.technique == "quickr"
        assert cache.num_entries == 2

    def test_invalidated_on_table_growth(self, db, rng):
        cache = ReuseCache(db, seed=4)
        spec = ErrorSpec(0.1, 0.9)
        cache.sql("SELECT SUM(v) AS s FROM t", spec)
        db.append_rows(
            "t",
            {
                "v": rng.random(10_000),
                "g": rng.integers(0, 5, 10_000),
                "sel": rng.random(10_000),
            },
        )
        res = cache.sql("SELECT COUNT(*) AS c FROM t", spec)
        assert res.technique == "quickr"  # repopulated, not reused
        assert cache.stats.invalidations == 1

    def test_eviction_respects_capacity(self, db):
        cache = ReuseCache(db, max_entries=2, seed=5)
        spec = ErrorSpec(0.2, 0.9)
        for threshold in (0.1, 0.2, 0.3):
            cache.sql(f"SELECT SUM(v) AS s FROM t WHERE sel < {threshold}", spec)
        assert cache.num_entries == 2

    def test_reuse_speedup_is_huge(self, db):
        cache = ReuseCache(db, seed=6)
        spec = ErrorSpec(0.1, 0.9)
        cache.sql("SELECT SUM(v) AS s FROM t", spec)
        res = cache.sql("SELECT AVG(v) AS m FROM t", spec)
        assert res.speedup > 10

    def test_nonlinear_rejected(self, db):
        cache = ReuseCache(db, seed=7)
        with pytest.raises(UnsupportedQueryError):
            cache.sql("SELECT MAX(v) AS m FROM t", ErrorSpec(0.1, 0.9))

    def test_clear(self, db):
        cache = ReuseCache(db, seed=8)
        cache.sql("SELECT SUM(v) AS s FROM t", ErrorSpec(0.1, 0.9))
        cache.clear()
        assert cache.num_entries == 0


# ----------------------------------------------------------------------
# Flajolet–Martin
# ----------------------------------------------------------------------

class TestFlajoletMartin:
    def test_estimate_within_rse(self):
        fm = FlajoletMartin(128, seed=1)
        fm.add(np.arange(50_000))
        rel = abs(fm.estimate() - 50_000) / 50_000
        assert rel < 4 * fm.relative_standard_error

    def test_duplicates_ignored(self):
        fm = FlajoletMartin(64, seed=2)
        fm.add(np.zeros(5_000, dtype=np.int64))
        # Plain PCSA has a well-known small-cardinality floor of ~m/φ
        # (no linear-counting correction — that is HLL's improvement);
        # duplicates must not push the estimate beyond that floor.
        assert fm.estimate() < 2 * 64 / 0.77351

    def test_merge_is_union(self):
        a, b = FlajoletMartin(64, seed=3), FlajoletMartin(64, seed=3)
        a.add(np.arange(0, 30_000))
        b.add(np.arange(15_000, 45_000))
        est = a.merge(b).estimate()
        assert est == pytest.approx(45_000, rel=0.4)

    def test_merge_mismatch(self):
        with pytest.raises(MergeError):
            FlajoletMartin(64, seed=1).merge(FlajoletMartin(32, seed=1))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            FlajoletMartin(1)


# ----------------------------------------------------------------------
# Accuracy audit harness
# ----------------------------------------------------------------------

class TestAccuracyHarness:
    """Repeated approximate runs of one's own query, scored against the
    door's exact twin by the audit's door runner."""

    @pytest.fixture
    def db(self, rng):
        n = 200_000
        db = Database()
        db.create_table(
            "t",
            {"v": rng.gamma(2.0, 10.0, n), "g": rng.integers(0, 4, n)},
            block_size=512,
        )
        return db

    @staticmethod
    def _audit(db, sql, spec, trials, seed, technique=None, claim="spec"):
        row = DoorRow(
            name="own_query",
            door="Database.sql",
            entry=technique or "default",
            sql=(sql,),
            fixture=lambda ctx, trial_seed: nullcontext(db),
            options=QueryOptions(spec=spec, technique=technique),
            claim=claim,
            claimed_coverage=spec.confidence,
        )
        return audit_one(row, AuditContext(), trials, base_seed=seed)

    def test_audit_reports_no_violations_for_pilot(self, db):
        record = self._audit(
            db,
            "SELECT g, SUM(v) AS s FROM t GROUP BY g",
            ErrorSpec(0.1, 0.95),
            trials=5,
            seed=1,
            technique="pilot",
        )
        assert record["trials"] == record["effective_trials"] == 5
        assert record["guarantee_ok"] and record["hits"] == 5
        # Every cell of every trial within 10% of the exact twin.
        assert record["error_met_frac"] == 1.0

    def test_audit_counts_exact_fallbacks_as_ok(self, db):
        record = self._audit(
            db,
            "SELECT MAX(v) AS m FROM t",  # the advisor falls back to exact
            ErrorSpec(0.05, 0.95),
            trials=2,
            seed=2,
        )
        # An exact answer is a refusal to approximate, never a miss.
        assert record["refusals"] == 2
        assert record["effective_trials"] == record["hits"] == 0

    def test_compare_results_detects_missing_groups(self, db):
        exact = db.sql("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        approx = db.sql(
            "SELECT g, SUM(v) AS s FROM t WHERE g < 2 GROUP BY g "
            "ERROR WITHIN 10% CONFIDENCE 90%",
            options=QueryOptions(seed=3),
        )
        outcome = score(approx, exact, ErrorSpec(0.1, 0.9))
        assert not outcome.hit
        assert outcome.error_met is False

    def test_report_violation_rate(self, db):
        # A spec no sample can meet: every answered trial violates it.
        record = self._audit(
            db,
            "SELECT g, SUM(v) AS s FROM t GROUP BY g",
            ErrorSpec(1e-6, 0.9),
            trials=2,
            seed=4,
            technique="quickr",
            claim="ci",
        )
        assert record["effective_trials"] == 2
        assert record["error_met_frac"] == 0.0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCLI:
    def test_one_shot_demo_query(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "--demo",
                "tpch",
                "--scale",
                "0.2",
                "SELECT COUNT(*) AS n FROM lineitem",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "n" in out and "[exact]" in out

    def test_approximate_query_reports_technique(self, capsys):
        from repro.__main__ import main

        main(
            [
                "--demo",
                "tpch",
                "--scale",
                "2",
                "--seed",
                "3",
                "SELECT AVG(l_extendedprice) AS a FROM lineitem "
                "ERROR WITHIN 10% CONFIDENCE 95%",
            ]
        )
        out = capsys.readouterr().out
        assert "[approximate]" in out and "technique=" in out

    def test_csv_loading(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "sales.csv"
        path.write_text("price,region\n10,east\n20,west\n30,east\n")
        main([f"--csv", f"sales={path}", "SELECT SUM(price) AS s FROM sales"])
        out = capsys.readouterr().out
        assert "60" in out

    def test_csv_short_row_names_file_and_line(self, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "short.csv"
        path.write_text("price,region\n10,east\n20\n")
        with pytest.raises(SystemExit) as info:
            main(["--csv", f"sales={path}", "SELECT SUM(price) AS s FROM sales"])
        assert f"{path}:3:" in str(info.value.code)

    def test_csv_empty_file_names_file(self, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SystemExit) as info:
            main(["--csv", f"sales={path}", "SELECT SUM(price) AS s FROM sales"])
        assert str(path) in str(info.value.code)

    def test_error_surfaced_cleanly(self, capsys):
        from repro.__main__ import main

        main(["--demo", "tpch", "--scale", "0.2", "SELECT FROM lineitem"])
        out = capsys.readouterr().out
        assert "error:" in out

    def test_requires_some_table(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["SELECT 1"])
