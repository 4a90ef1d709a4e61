"""Tests for the advisor routing, the session facade, and the trade-off
model (the paper's thesis as executable assertions)."""

import numpy as np
import pytest

from repro import (
    AQPEngine,
    ApproximateResult,
    Database,
    ErrorSpec,
    InfeasiblePlanError,
    QueryResult,
    UnsupportedQueryError,
    comparison_matrix,
    no_silver_bullet,
)
from repro.core.options import QueryOptions
from repro.core.tradeoff import (
    TECHNIQUE_PROFILES,
    TechniqueProfile,
    dominated_techniques,
    format_matrix,
)
from repro.offline import SampleEntry, SynopsisCatalog
from repro.sampling.stratified import stratified_sample


@pytest.fixture
def db(rng):
    n = 200_000
    db = Database()
    db.create_table(
        "facts",
        {
            "value": rng.exponential(10, n),
            "g": rng.integers(0, 8, n),
            "sel": rng.random(n),
        },
        block_size=512,
    )
    return db


class TestSessionRouting:
    def test_exact_without_spec(self, db):
        res = db.sql("SELECT SUM(value) AS s FROM facts")
        assert isinstance(res, QueryResult)
        assert not res.is_approximate

    def test_sql_error_clause_routes_to_aqp(self, db):
        res = db.sql(
            "SELECT SUM(value) AS s FROM facts ERROR WITHIN 5% CONFIDENCE 95%",
            options=QueryOptions(seed=1),
        )
        assert isinstance(res, ApproximateResult)
        assert res.technique in ("pilot", "quickr", "offline_sample")

    def test_python_spec_overrides(self, db):
        res = AQPEngine(db).sql(
            "SELECT SUM(value) AS s FROM facts",
            options=QueryOptions(spec=ErrorSpec(0.1, 0.9), seed=1),
        )
        assert res.is_approximate
        assert res.spec.relative_error == 0.1

    def test_force_exact(self, db):
        res = AQPEngine(db).sql(
            "SELECT SUM(value) AS s FROM facts ERROR WITHIN 5% CONFIDENCE 95%",
            options=QueryOptions(technique="exact"),
        )
        assert isinstance(res, QueryResult)

    def test_force_pilot(self, db):
        res = AQPEngine(db).sql(
            "SELECT SUM(value) AS s FROM facts",
            options=QueryOptions(
                spec=ErrorSpec(0.05, 0.95), technique="pilot", seed=2
            ),
        )
        assert res.technique == "pilot"

    def test_force_quickr(self, db):
        res = AQPEngine(db).sql(
            "SELECT SUM(value) AS s FROM facts",
            options=QueryOptions(
                spec=ErrorSpec(0.05, 0.95), technique="quickr", seed=2
            ),
        )
        assert res.technique == "quickr"

    def test_force_unknown_technique(self, db):
        with pytest.raises(UnsupportedQueryError):
            AQPEngine(db).sql(
                "SELECT SUM(value) AS s FROM facts",
                options=QueryOptions(
                    spec=ErrorSpec(0.05, 0.95), technique="magic"
                ),
            )

    def test_force_infeasible_raises(self, db):
        with pytest.raises(InfeasiblePlanError):
            AQPEngine(db).sql(
                "SELECT SUM(value) AS s FROM facts",
                options=QueryOptions(
                    spec=ErrorSpec(0.05, 0.95), technique="offline_sample"
                ),
            )

    def test_offline_preferred_when_available(self, db, rng):
        cat = SynopsisCatalog.for_database(db)
        sample = stratified_sample(db.table("facts"), "g", 30_000, rng=rng)
        cat.add_sample(
            SampleEntry(
                table="facts",
                sample=sample,
                kind="stratified",
                strata_column="g",
                built_at_rows=db.table("facts").num_rows,
            )
        )
        res = db.sql(
            "SELECT g, SUM(value) AS s FROM facts GROUP BY g "
            "ERROR WITHIN 10% CONFIDENCE 90%",
            options=QueryOptions(seed=3),
        )
        assert res.technique == "offline_sample"

    def test_nonlinear_falls_back_to_exact(self, db):
        res = db.sql(
            "SELECT MAX(value) AS m FROM facts ERROR WITHIN 5% CONFIDENCE 95%"
        )
        assert isinstance(res, QueryResult)  # graceful exact fallback
        assert res.scalar() == pytest.approx(db.table("facts")["value"].max())

    def test_approximate_result_summary(self, db):
        res = db.sql(
            "SELECT SUM(value) AS s FROM facts ERROR WITHIN 5% CONFIDENCE 95%",
            options=QueryOptions(seed=4),
        )
        text = res.summary()
        assert "technique=" in text and "speedup" in text

    def test_explain(self, db):
        text = db.explain("SELECT SUM(value) AS s FROM facts WHERE sel < 0.5")
        assert "Scan(facts" in text


class TestTradeoffModel:
    def test_no_silver_bullet_holds(self):
        assert no_silver_bullet()

    def test_exact_is_the_degenerate_corner(self):
        row = next(r for r in comparison_matrix() if r.technique == "exact")
        assert row.generality == 1.0 and row.guarantee == 1.0
        assert row.speedup == 0.0

    def test_every_technique_wins_somewhere(self):
        assert dominated_techniques() == []

    def test_sketch_is_narrow_but_guaranteed(self):
        sketch = TECHNIQUE_PROFILES["sketch"]
        pilot = TECHNIQUE_PROFILES["pilot"]
        assert sketch.generality_score < pilot.generality_score
        assert sketch.guarantee_score == 1.0
        assert sketch.speedup_score > pilot.speedup_score

    def test_offline_needs_maintenance_online_does_not(self):
        assert TECHNIQUE_PROFILES["offline_sample"].needs_precomputation
        assert not TECHNIQUE_PROFILES["pilot"].needs_precomputation
        assert not TECHNIQUE_PROFILES["quickr"].needs_precomputation

    def test_format_matrix_renders(self):
        text = format_matrix(comparison_matrix())
        assert "technique" in text
        for name in TECHNIQUE_PROFILES:
            assert name in text

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            TechniqueProfile(
                name="x",
                aggregates=frozenset(),
                supports_joins=False,
                supports_adhoc_predicates=False,
                supports_small_groups=False,
                guarantee="pinky_promise",
                needs_precomputation=False,
                typical_touch_fraction=0.5,
            )

    def test_a_silver_bullet_would_be_detected(self):
        profiles = dict(TECHNIQUE_PROFILES)
        profiles["miracle"] = TechniqueProfile(
            name="miracle",
            aggregates=frozenset(
                {"sum", "count", "avg", "min", "max", "count_distinct"}
            ),
            supports_joins=True,
            supports_adhoc_predicates=True,
            supports_small_groups=True,
            guarantee="a_priori",
            needs_precomputation=False,
            typical_touch_fraction=0.0,
        )
        assert not no_silver_bullet(profiles)
