"""The unified QueryOptions front-door contract.

Every ``sql()`` entry point — :meth:`AQPEngine.sql`,
:meth:`Database.sql`, :meth:`ResilientEngine.sql`,
:meth:`ScatterGatherExecutor.sql`, :meth:`ServingFrontend.sql` /
``submit`` — accepts the same ``options=QueryOptions(...)`` object and
nothing else per query, so an unknown keyword is a TypeError at the call
site. Results from every door expose the common envelope
(:data:`ENVELOPE_KEYS`).
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import Database, QueryOptions
from repro.core.exceptions import UnsupportedQueryError
from repro.core.options import (
    QUERY_OPTION_FIELDS,
    maybe_trace,
    resolve_options,
)
from repro.core.result import ENVELOPE_KEYS
from repro.core.session import AQPEngine
from repro.obs.explain import run_explain_analyze
from repro.resilience.ladder import ResilientEngine
from repro.serving import ServingFrontend
from repro.sharding import ScatterGatherExecutor, ShardedTable

ROWS = 4_000
SQL = "SELECT SUM(v) AS s FROM events"
SPEC_SQL = SQL + " ERROR WITHIN 10% CONFIDENCE 95%"


@pytest.fixture(scope="module")
def db() -> Database:
    rng = np.random.default_rng(7)
    database = Database()
    database.create_table(
        "events",
        {
            "v": rng.exponential(10.0, ROWS),
            "grp": rng.integers(0, 4, ROWS),
        },
    )
    return database


def _entry_points(db):
    """(name, bound sql callable) for all five front doors."""
    sharded = ShardedTable.from_table(db.table("events"), 4)
    frontend = ServingFrontend(db, workers=1, seed=0)
    return [
        ("Database.sql", db.sql),
        ("AQPEngine.sql", AQPEngine(db).sql),
        ("ResilientEngine.sql", ResilientEngine(db, warn_on_degrade=False).sql),
        ("ScatterGatherExecutor.sql", ScatterGatherExecutor(sharded).sql),
        ("ServingFrontend.sql", frontend.sql),
        ("ServingFrontend.submit", frontend.submit),
    ], frontend


# ----------------------------------------------------------------------
# Signature parity
# ----------------------------------------------------------------------

class TestSignatureParity:
    def test_every_entry_point_accepts_options_and_no_kwargs(self, db):
        entries, frontend = _entry_points(db)
        try:
            for name, fn in entries:
                sig = inspect.signature(fn)
                params = sig.parameters
                assert "query" in params, name
                assert "options" in params, name
                assert params["options"].default is None, name
                kinds = {p.kind for p in params.values()}
                assert inspect.Parameter.VAR_KEYWORD not in kinds, (
                    f"{name} grew a **kwargs second door"
                )
        finally:
            frontend.close()

    def test_options_fields_are_the_canonical_set(self):
        assert QUERY_OPTION_FIELDS == (
            "seed",
            "spec",
            "technique",
            "pilot_rate",
            "deadline",
            "budget",
            "entry_rung",
            "tenant",
            "priority",
            "trace",
        )

    def test_every_entry_point_rejects_unknown_kwargs(self, db):
        entries, frontend = _entry_points(db)
        try:
            for name, fn in entries:
                with pytest.raises(TypeError, match="not_an_option"):
                    fn(SQL, not_an_option=1)
        finally:
            frontend.close()


# ----------------------------------------------------------------------
# resolve_options semantics
# ----------------------------------------------------------------------

class TestResolveOptions:
    def test_defaults_without_anything(self):
        assert resolve_options() == QueryOptions()

    def test_options_pass_through_unchanged(self):
        opts = QueryOptions(seed=3, tenant="t1")
        assert resolve_options(opts) is opts

    def test_non_queryoptions_object_raises(self):
        with pytest.raises(TypeError, match="QueryOptions"):
            resolve_options({"seed": 1})

    def test_replace_returns_new_frozen_instance(self):
        opts = QueryOptions(seed=1)
        other = opts.replace(seed=2)
        assert opts.seed == 1 and other.seed == 2
        with pytest.raises(Exception):
            opts.seed = 3  # frozen

    def test_maybe_trace_yields_fresh_tracer_on_demand(self):
        with maybe_trace(QueryOptions()) as tracer:
            assert tracer is None
        with maybe_trace(QueryOptions(trace=True)) as tracer:
            assert tracer is not None


# ----------------------------------------------------------------------
# Option values no door can honor are refused alike, before binding
# ----------------------------------------------------------------------

class TestInvalidOptionValues:
    @pytest.mark.parametrize(
        "options, match",
        [
            (QueryOptions(seed=1, pilot_rate=0.0), "pilot_rate"),
            (QueryOptions(seed=1, pilot_rate=1.5), "pilot_rate"),
            (QueryOptions(seed=1, entry_rung="bogus"), "unknown entry rung"),
            (QueryOptions(seed=1, priority="bogus"), "unknown priority"),
        ],
    )
    def test_every_door_refuses_typed(self, db, options, match):
        sharded = ShardedTable.from_table(db.table("events"), 4)
        frontend = ServingFrontend(db, workers=1, seed=0)
        doors = [
            ("Database.sql", db.sql),
            ("ResilientEngine.sql", ResilientEngine(db).sql),
            # raised synchronously, in the caller's thread
            ("ServingFrontend.submit", frontend.submit),
            ("ScatterGatherExecutor.sql", ScatterGatherExecutor(sharded).sql),
        ]
        try:
            for name, door in doors:
                with pytest.raises(UnsupportedQueryError, match=match):
                    door(SPEC_SQL, options=options)
        finally:
            frontend.close()

    def test_error_names_the_door_it_came_through(self, db):
        options = QueryOptions(seed=1, pilot_rate=0.0)
        with pytest.raises(UnsupportedQueryError, match=r"^Database\.sql\(\): pilot_rate"):
            db.sql(SPEC_SQL, options=options)
        with pytest.raises(UnsupportedQueryError, match=r"^AQPEngine\.sql\(\): pilot_rate"):
            AQPEngine(db).sql(SPEC_SQL, options=options)


# ----------------------------------------------------------------------
# The old serving-frontend hole: typo'd kwargs must fail at submit time
# ----------------------------------------------------------------------

class TestFrontendSubmitTime:
    def test_unknown_kwarg_raises_before_enqueue(self, db):
        frontend = ServingFrontend(db, workers=1, seed=0)
        try:
            with pytest.raises(TypeError, match="not_an_option"):
                frontend.submit(SQL, not_an_option=True)
            # Nothing was enqueued: the frontend still serves normally.
            result = frontend.sql(SQL, timeout=60.0)
            assert result.value("s") > 0
        finally:
            frontend.close()


# ----------------------------------------------------------------------
# Unified result envelope
# ----------------------------------------------------------------------

class TestResultEnvelope:
    def _assert_envelope(self, result):
        doc = result.to_dict()
        assert tuple(doc.keys()) == ENVELOPE_KEYS
        assert isinstance(doc["values"], dict)
        assert isinstance(doc["ci"], dict)
        assert isinstance(doc["provenance"], list)
        assert isinstance(doc["stats"], dict)
        # value()/ci() agree with the dict view
        assert result.value("s") == pytest.approx(doc["values"]["s"][0])
        low, high = result.ci("s", 0)
        assert low <= result.value("s") <= high

    def test_exact_result_envelope(self, db):
        result = db.sql(SQL)
        self._assert_envelope(result)
        assert result.to_dict()["kind"] == "exact"
        low, high = result.ci("s", 0)
        assert low == high  # zero-width CI: no sampling error

    def test_approximate_result_envelope(self, db):
        result = db.sql(SPEC_SQL, options=QueryOptions(seed=1))
        self._assert_envelope(result)

    def test_ladder_result_envelope(self, db):
        engine = ResilientEngine(db, warn_on_degrade=False)
        result = engine.sql(SPEC_SQL, options=QueryOptions(seed=1))
        self._assert_envelope(result)

    def test_explain_result_envelope(self, db):
        result = run_explain_analyze(
            db, SPEC_SQL, options=QueryOptions(seed=1)
        )
        self._assert_envelope(result)
        assert result.to_dict()["kind"] in ("exact", "approximate")

    def test_envelopes_share_one_key_set_across_doors(self, db):
        engine = ResilientEngine(db, warn_on_degrade=False)
        sharded = ShardedTable.from_table(db.table("events"), 4)
        executor = ScatterGatherExecutor(sharded)
        docs = [
            db.sql(SQL).to_dict(),
            db.sql(SPEC_SQL, options=QueryOptions(seed=1)).to_dict(),
            engine.sql(SPEC_SQL, options=QueryOptions(seed=1)).to_dict(),
            executor.sql(SQL, options=QueryOptions(seed=1)).to_dict(),
            run_explain_analyze(
                db, SQL, options=QueryOptions(seed=1)
            ).to_dict(),
        ]
        key_sets = {tuple(doc.keys()) for doc in docs}
        assert key_sets == {ENVELOPE_KEYS}
