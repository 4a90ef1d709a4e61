"""Tests for the statistical guarantee-audit subsystem.

Fast unit tests for the acceptance-band math, the door runner's
scoring, and the report/baseline plumbing — plus ``@pytest.mark.audit``
tests that run the real path registry end to end (also exercised by
``python -m repro audit --smoke`` in CI) and hold it to one row per
served (entry, door) pair.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import numpy as np
import pytest

from repro.audit import (
    AuditContext,
    DoorRow,
    audit_one,
    binomial_acceptance_band,
    binomial_cdf,
    build_paths,
    chi2_upper_bound,
    coverage_lower_bound,
    coverage_verdict,
    diff_against_baseline,
    mc_mean_within,
    run_audit,
    score,
    within_sigma,
    write_report,
)
from repro.audit.report import format_table, format_value
from repro.audit.runner import trial_seed
from repro.core.errorspec import ErrorSpec
from repro.core.options import QueryOptions
from repro.core.result import ApproximateResult, CellEstimate
from repro.engine.executor import ExecutionStats
from repro.engine.table import Table
from repro.estimators.closed_form import Estimate


# ----------------------------------------------------------------------
# Acceptance-band math
# ----------------------------------------------------------------------
class TestBinomialBands:
    def test_cdf_matches_closed_form(self):
        # Binomial(3, 0.5): P(X<=1) = (1+3)/8
        assert binomial_cdf(1, 3, 0.5) == pytest.approx(0.5)
        assert binomial_cdf(-1, 10, 0.3) == 0.0
        assert binomial_cdf(10, 10, 0.3) == 1.0

    def test_cdf_agrees_with_numpy_simulation(self):
        rng = np.random.default_rng(0)
        draws = rng.binomial(40, 0.95, size=200_000)
        emp = float(np.mean(draws <= 36))
        assert binomial_cdf(36, 40, 0.95) == pytest.approx(emp, abs=0.005)

    def test_band_contains_mean_and_respects_alpha(self):
        n, p, alpha = 200, 0.95, 1e-3
        k_lo, k_hi = binomial_acceptance_band(n, p, alpha)
        assert k_lo <= int(n * p) <= k_hi
        # The band's miss probability is at most alpha (tail sums).
        miss = binomial_cdf(k_lo - 1, n, p) + (1.0 - binomial_cdf(k_hi, n, p))
        assert miss <= alpha

    def test_degenerate_claims(self):
        assert binomial_acceptance_band(50, 1.0) == (50, 50)
        assert binomial_acceptance_band(50, 0.0) == (0, 0)
        # A deterministic bound (p=1) rejects on the very first miss.
        assert coverage_verdict(49, 50, 1.0) == "fail_under"
        assert coverage_verdict(50, 50, 1.0) == "pass"

    def test_verdict_three_way(self):
        # Binomial(100, 0.7): far-below fails, far-above is conservative.
        assert coverage_verdict(45, 100, 0.7) == "fail_under"
        assert coverage_verdict(70, 100, 0.7) == "pass"
        assert coverage_verdict(95, 100, 0.7) == "conservative"

    def test_lower_bound_monotone_in_trials(self):
        fracs = [coverage_lower_bound(n, 0.95) / n for n in (20, 100, 500)]
        # More trials -> tighter (higher) empirical floor.
        assert fracs == sorted(fracs)
        assert all(f < 0.95 for f in fracs)

    def test_chi2_upper_bound_reference_value(self):
        # chi2(0.999, df=19) = 43.82 (standard tables)
        assert chi2_upper_bound(19) == pytest.approx(43.82, abs=0.05)

    def test_mc_mean_within(self):
        rng = np.random.default_rng(3)
        values = rng.normal(10.0, 1.0, 500).tolist()
        assert mc_mean_within(values, 10.0)
        assert not mc_mean_within(values, 11.0)

    def test_within_sigma(self):
        est = Estimate(value=100.0, variance=4.0, sample_size=50)
        assert within_sigma(est, 105.0, k=4.0)  # 2.5 sigma off
        assert not within_sigma(est, 120.0, k=4.0)  # 10 sigma off


# ----------------------------------------------------------------------
# covers() plumbing on result types
# ----------------------------------------------------------------------
class TestCovers:
    def test_cell_estimate_covers(self):
        cell = CellEstimate(value=10.0, ci_low=8.0, ci_high=12.0)
        assert cell.covers(8.0) and cell.covers(12.0)
        assert not cell.covers(7.99)

    def test_closed_form_estimate_covers(self):
        est = Estimate(value=100.0, variance=25.0, sample_size=200)
        assert est.covers(100.0)
        assert not est.covers(200.0)


# ----------------------------------------------------------------------
# The door runner's scoring
# ----------------------------------------------------------------------
_GROUPED = "SELECT region AS r, SUM(price) AS s FROM sales GROUP BY region"


def _answer(keys, values, width):
    """An approximate grouped answer with a symmetric interval."""
    values = np.asarray(values, dtype=np.float64)
    return ApproximateResult(
        table=Table({"r": np.array(keys, dtype=object), "s": values}),
        stats=ExecutionStats(),
        spec=ErrorSpec(0.1, 0.95),
        technique="test",
        ci_low={"s": values - width},
        ci_high={"s": values + width},
    )


class TestDoorRunner:
    def test_grouped_answer_is_scored_jointly_against_the_twin(self, small_db):
        twin = small_db.sql(_GROUPED)  # e: 150, w: 210
        trial = score(_answer(["e", "w"], [155.0, 200.0], 12.0), twin)
        assert trial.hit and trial.error_met is None
        assert (trial.value, trial.exact) == (355.0, 360.0)
        # One cell outside its interval misses the joint claim.
        assert not score(_answer(["e", "w"], [155.0, 195.0], 12.0), twin).hit

    def test_missing_group_misses_coverage_and_spec(self, small_db):
        twin = small_db.sql(_GROUPED)
        trial = score(_answer(["e"], [150.0], 1.0), twin, ErrorSpec(0.1, 0.95))
        assert not trial.hit and trial.error_met is False

    def test_interval_edges_compare_at_rel_tol(self, small_db):
        twin = small_db.sql(_GROUPED)  # e: 150, w: 210
        near = _answer(["e", "w"], [150.0 * (1 + 1e-12), 210.0], 0.0)
        assert score(near, twin).hit
        assert not score(_answer(["e", "w"], [150.001, 210.0], 0.0), twin).hit
        # An envelope that ends at the truth, up to summation order.
        edge = _answer(["e", "w"], [150.0 * (1 - 1e-12) - 5.0, 205.0], 5.0)
        assert score(edge, twin).hit
        assert not score(_answer(["e", "w"], [144.0, 205.0], 5.0), twin).hit

    def test_spec_claim_hits_on_error_met(self, small_db):
        twin = small_db.sql(_GROUPED)
        wide_miss = _answer(["e", "w"], [160.0, 210.0], 0.0)
        trial = score(wide_miss, twin, ErrorSpec(0.1, 0.95), claim="spec")
        assert trial.hit and trial.error_met
        assert not score(wide_miss, twin, ErrorSpec(0.01, 0.95), "spec").hit

    def test_truth_is_the_door_exact_twin(self, small_db):
        """A row over one's own database: every trial is scored against
        ``technique="exact"`` through the same door."""
        row = DoorRow(
            name="own_query",
            door="ResilientEngine.sql",
            entry="partial_ola",
            sql=("SELECT SUM(price) AS s FROM sales",),
            fixture=lambda ctx, seed: nullcontext(small_db),
            options=QueryOptions(
                spec=ErrorSpec(0.5, 0.95), entry_rung="partial_ola"
            ),
        )
        trial = row.run(AuditContext(), 7)
        assert trial.exact == 360.0 and not trial.refused
        record = audit_one(row, AuditContext(), 3, base_seed=0)
        assert record["trials"] == 3 and "error_met_frac" in record


# ----------------------------------------------------------------------
# Runner determinism and report shape
# ----------------------------------------------------------------------
FAST_PATHS = ["srs_sum", "countmin_point", "histogram_equidepth_range"]


class TestRunner:
    def test_trial_seeds_are_distinct_and_stable(self):
        seeds = {trial_seed(1729, name, t) for name in FAST_PATHS for t in range(10)}
        assert len(seeds) == 30
        assert trial_seed(1729, "srs_sum", 0) == trial_seed(1729, "srs_sum", 0)
        assert trial_seed(1729, "srs_sum", 0) != trial_seed(1730, "srs_sum", 0)

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown audit paths"):
            run_audit(smoke=True, path_names=["no_such_path"])

    @pytest.mark.statistical
    def test_report_deterministic_modulo_timing(self):
        kwargs = dict(smoke=True, seed=99, trials=6, heavy_trials=2,
                      path_names=FAST_PATHS)
        a, b = run_audit(**kwargs), run_audit(**kwargs)
        a.pop("timing"), b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.statistical
    def test_report_structure(self):
        doc = run_audit(smoke=True, trials=6, heavy_trials=2,
                        path_names=FAST_PATHS)
        assert doc["mode"] == "smoke"
        assert {p["name"] for p in doc["paths"]} == set(FAST_PATHS)
        for p in doc["paths"]:
            assert p["trials"] == p["effective_trials"] + p["refusals"]
            assert 0 <= p["hits"] <= p["effective_trials"]
            assert p["verdict"] in (
                "pass", "fail_under", "conservative", "n/a", "all_refused"
            )
        assert "total" in doc["timing"]


# ----------------------------------------------------------------------
# Report formatting + baseline diff
# ----------------------------------------------------------------------
def _fake_doc(mode="smoke", **path_overrides):
    path = {
        "name": "p1",
        "verdict": "pass",
        "guarantee_ok": True,
        "expected_failure": False,
        "empirical_coverage": 0.96,
        "claimed_coverage": 0.95,
    }
    path.update(path_overrides)
    return {"mode": mode, "paths": [path]}


class TestReport:
    def test_format_table_alignment(self):
        lines = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        assert lines[0].split() == ["a", "bb"]
        assert set(lines[1]) <= {"-", " "}
        assert len({len(l) for l in lines}) == 1  # fixed width

    def test_format_value(self):
        assert format_value(0.0) == "0"
        assert format_value(1234.5) == "1.23e+03"
        assert format_value(0.25) == "0.25"

    def test_missing_baseline_is_note(self, tmp_path):
        problems = diff_against_baseline(
            _fake_doc(), baseline_path=str(tmp_path / "nope.json")
        )
        assert len(problems) == 1 and problems[0].startswith("note:")

    def test_mode_mismatch_is_note(self, tmp_path):
        base = tmp_path / "b.json"
        write_report(_fake_doc(mode="full"), str(base))
        problems = diff_against_baseline(_fake_doc(mode="smoke"), str(base))
        assert len(problems) == 1 and "mode" in problems[0]

    def test_guarantee_regression_flagged(self, tmp_path):
        base = tmp_path / "b.json"
        write_report(_fake_doc(), str(base))
        broken = _fake_doc(verdict="fail_under", guarantee_ok=False)
        problems = diff_against_baseline(broken, str(base))
        assert any("guarantee held in baseline" in p for p in problems)
        assert diff_against_baseline(_fake_doc(), str(base)) == []

    def test_missing_path_flagged(self, tmp_path):
        base = tmp_path / "b.json"
        write_report(_fake_doc(), str(base))
        doc = _fake_doc()
        doc["paths"] = []
        problems = diff_against_baseline(doc, str(base))
        assert any("missing now" in p for p in problems)

    def test_expected_failure_recovery_is_note(self, tmp_path):
        base = tmp_path / "b.json"
        write_report(
            _fake_doc(
                verdict="fail_under", expected_failure=True, guarantee_ok=True
            ),
            str(base),
        )
        recovered = _fake_doc(
            verdict="pass", expected_failure=True, guarantee_ok=True
        )
        problems = diff_against_baseline(recovered, str(base))
        assert len(problems) == 1
        assert problems[0].startswith("note:") and "no longer" in problems[0]


# ----------------------------------------------------------------------
# End-to-end smoke coverage of the real registry
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_doc():
    return run_audit(smoke=True)


@pytest.mark.audit
@pytest.mark.slow
@pytest.mark.statistical
def test_smoke_audit_guarantees_hold(smoke_doc):
    """The acceptance gate: every claimed guarantee passes its binomial
    band (or is a recorded paper-predicted failure) on the smoke audit."""
    doc = smoke_doc
    assert doc["summary"]["num_audited"] >= 8
    assert doc["summary"]["num_unexpected_failures"] == 0
    assert doc["summary"]["all_guarantees_ok"]
    # The paper-predicted breakages must keep reproducing: losing them
    # means the audit lost its statistical power (or behavior changed).
    by_name = {p["name"]: p for p in doc["paths"]}
    assert by_name["bernoulli_sum_heavytail"]["verdict"] == "fail_under"
    assert by_name["ola_peeking_stop"]["verdict"] == "fail_under"
    # Every registered path actually produced answers.
    assert all(p["effective_trials"] > 0 for p in doc["paths"])
    # Every row that asks for a spec reports how often it was met.
    for path in build_paths():
        spec = getattr(path, "options", QueryOptions()).spec
        assert ("error_met_frac" in by_name[path.name]) == (spec is not None)


@pytest.mark.audit
@pytest.mark.slow
@pytest.mark.statistical
@pytest.mark.parametrize("name", ["database_default", "quickr_engine_ci"])
def test_a_row_alone_reports_what_it_reports_in_the_full_run(smoke_doc, name):
    """Rows share the TPC-H database, so a row that left a synopsis
    installed would change what later rows are served (the default door
    would answer from it); each fixture undoes what it installs."""
    alone = run_audit(smoke=True, path_names=[name])
    (full,) = [p for p in smoke_doc["paths"] if p["name"] == name]
    assert alone["paths"] == [full]


#: every (door, entry) pair a ``sql()`` door serves
SERVED_PAIRS = {
    ("Database.sql", "offline_sample"),
    ("Database.sql", "pilot"),
    ("Database.sql", "quickr"),
    ("Database.sql", "default"),
    ("ResilientEngine.sql", "requested"),
    ("ResilientEngine.sql", "stale_synopsis"),
    ("ResilientEngine.sql", "cheaper_technique"),
    ("ResilientEngine.sql", "partial_ola"),
    ("ScatterGatherExecutor.sql", "exact"),
    ("ScatterGatherExecutor.sql", "ola"),
    ("ScatterGatherExecutor.sql", "sample"),
    ("ServingFrontend.sql", "ladder"),
}


@pytest.mark.audit
def test_every_served_pair_has_a_row():
    rows = [p for p in build_paths() if isinstance(p, DoorRow)]
    assert SERVED_PAIRS <= {(r.door, r.entry) for r in rows}
    # The sharded exact pair is audited degraded: served whole it is
    # the exact answer itself.
    assert any(
        r.door == "ScatterGatherExecutor.sql"
        and r.entry == "exact"
        and r.answer == "degraded"
        for r in rows
    )


@pytest.mark.audit
def test_registry_well_formed():
    paths = build_paths()
    names = [p.name for p in paths]
    assert len(names) == len(set(names))
    assert len(paths) >= 15
    families = {p.family for p in paths}
    assert {"sampling", "offline", "online", "engine", "sketch", "synopsis"} <= families
    for p in paths:
        if p.claim == "none":
            assert p.claimed_coverage is None
        else:
            assert 0.0 < p.claimed_coverage <= 1.0
