"""Unit tests for the observability layer (repro.obs).

Covers the :class:`Tracer`/:class:`Span` machinery, the no-op contract
when tracing is off, the process-wide :class:`MetricsRegistry`, the
span JSON-schema validator, ``EXPLAIN`` / ``EXPLAIN ANALYZE`` through
the SQL front-end and the CLI, and the
``ExecutionStats.to_dict`` contract shared by every execution path.

The cross-path conformance suite (differential span trees, bitwise
identity with tracing off, golden rung payloads) lives in
``test_trace_conformance.py``.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import Database
from repro.core.errorspec import ErrorSpec
from repro.core.options import QueryOptions
from repro.engine.kernel_cache import KernelCache, set_kernel_cache
from repro.obs.explain import ExplainResult, run_explain_analyze
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.schema import (
    REQUIRED_ATTRIBUTES,
    SPAN_SCHEMA,
    validate_span,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current_span,
    current_tracer,
    event,
    render_span_tree,
    span,
    structural_signature,
    trace_scope,
    tracer_signature,
)
from repro.resilience.deadline import ManualClock
from repro.sql.parser import split_explain
from repro.core.exceptions import SQLSyntaxError

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Isolate every test's metrics (the registry is process-global)."""
    registry = MetricsRegistry()
    set_metrics(registry)
    yield registry
    set_metrics(None)


@pytest.fixture
def db():
    database = Database()
    rng = np.random.default_rng(11)
    database.create_table(
        "sales",
        {
            "price": rng.exponential(10.0, 4000),
            "region": rng.integers(0, 4, 4000),
        },
        block_size=256,
    )
    return database


# ----------------------------------------------------------------------
# Tracer / Span mechanics
# ----------------------------------------------------------------------

class TestTracer:
    def test_span_tree_nesting_and_ids(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("query", engine="aqp") as q:
                with span("plan"):
                    pass
                with span("scan", table="t", rows_scanned=1, blocks_scanned=1):
                    pass
        assert [s.name for s in tracer.walk()] == ["query", "plan", "scan"]
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root is q
        assert root.parent_id is None
        assert [c.parent_id for c in root.children] == [root.span_id] * 2
        assert root.span_id == 0
        assert [c.span_id for c in root.children] == [1, 2]

    def test_find_and_attributes(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("query", engine="ladder") as q:
                q.set(rung="requested", technique="quickr")
        found = tracer.find("query")
        assert len(found) == 1
        assert found[0].attributes["rung"] == "requested"
        assert tracer.find("scan") == []

    def test_exception_marks_span_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with trace_scope(tracer):
                with span("query", engine="aqp"):
                    raise ValueError("boom")
        (root,) = tracer.roots
        assert root.status == "error"
        assert root.error == "ValueError: boom"
        assert root.end is not None

    def test_fail_marks_without_unwinding(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("shard.0") as sp:
                sp.set(shard_status="failed").fail("shard 0 unreachable")
        (root,) = tracer.roots
        assert root.status == "error"
        assert root.error == "shard 0 unreachable"

    def test_event_is_zero_duration(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with trace_scope(tracer):
            with span("query", engine="aqp"):
                clock.advance(1.0)
                node = event("retry", site="requested", attempt=1)
                clock.advance(1.0)
        assert node.duration == 0.0
        assert node.start == 1.0
        assert node.parent_id == tracer.roots[0].span_id

    def test_manual_clock_durations(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with trace_scope(tracer):
            with span("query", engine="aqp"):
                clock.advance(2.5)
        assert tracer.roots[0].duration == 2.5

    def test_trace_scope_none_inherits(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("query", engine="aqp") as q:
                with trace_scope(None):
                    assert current_tracer() is tracer
                    assert current_span() is q
                    with span("plan"):
                        pass
        assert [s.name for s in tracer.walk()] == ["query", "plan"]

    def test_explicit_tracer_reroots_in_worker_thread(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("query", engine="scatter_gather") as parent:
                results = []

                def work(i):
                    # Fresh thread: no inherited contextvars.
                    assert current_tracer() is None
                    with span(
                        f"shard.{i}", tracer=tracer, parent=parent
                    ) as sp:
                        sp.set(shard_status="served")
                        event("hedge", shard=i, attempt=1)
                    results.append(i)

                threads = [
                    threading.Thread(target=work, args=(i,)) for i in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        assert sorted(results) == [0, 1]
        shard_spans = [
            s for s in tracer.walk() if s.name.startswith("shard.")
        ]
        assert len(shard_spans) == 2
        assert all(s.parent_id == parent.span_id for s in shard_spans)
        hedges = tracer.find("hedge")
        assert len(hedges) == 2
        # Hedge events are nested under their shard span, not the root.
        shard_ids = {s.span_id for s in shard_spans}
        assert all(h.parent_id in shard_ids for h in hedges)

    def test_to_dict_shape(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with trace_scope(tracer):
            with span("query", engine="aqp"):
                clock.advance(1.0)
        doc = tracer.to_dict()
        assert set(doc) == {"spans"}
        root = doc["spans"][0]
        assert root["name"] == "query"
        assert root["duration"] == 1.0
        assert root["children"] == []
        assert validate_span(root) == []


class TestNoOpWhenOff:
    def test_span_yields_null_span(self):
        assert current_tracer() is None
        with span("query", engine="aqp") as sp:
            assert sp is NULL_SPAN
            assert not sp
            assert sp.set(anything=1) is NULL_SPAN
            assert sp.fail("ignored") is NULL_SPAN

    def test_event_returns_none(self):
        assert event("fault", site="x", kind="error", arrival=0, seed=0) is None

    def test_real_span_is_truthy(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("query", engine="aqp") as sp:
                assert sp
                assert isinstance(sp, Span)


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counters_with_labels(self, fresh_metrics):
        m = fresh_metrics
        m.inc("queries_total", engine="aqp", technique="exact")
        m.inc("queries_total", engine="aqp", technique="exact")
        m.inc("queries_total", engine="ladder", technique="quickr")
        assert m.counter_value(
            "queries_total", engine="aqp", technique="exact"
        ) == 2.0
        assert m.counter_total("queries_total") == 3.0
        assert m.counter_value("queries_total", engine="nope") == 0.0

    def test_label_rendering_is_sorted_and_stable(self, fresh_metrics):
        m = fresh_metrics
        m.inc("c", zebra="z", alpha="a")
        snap = m.snapshot(include_caches=False)
        assert list(snap["counters"]) == ['c{alpha="a",zebra="z"}']

    def test_gauges_and_histograms(self, fresh_metrics):
        m = fresh_metrics
        m.set_gauge("g", 1.5, kind="x")
        for v in (1.0, 3.0, 2.0):
            m.observe("h", v)
        snap = m.snapshot(include_caches=False)
        assert snap["gauges"] == {'g{kind="x"}': 1.5}
        h = snap["histograms"]["h"]
        assert h == {"count": 3.0, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}

    def test_to_json_round_trips(self, fresh_metrics):
        fresh_metrics.inc("c")
        doc = json.loads(fresh_metrics.to_json(include_caches=False))
        assert doc["counters"] == {"c": 1.0}

    def test_reset(self, fresh_metrics):
        fresh_metrics.inc("c")
        fresh_metrics.reset()
        assert fresh_metrics.snapshot(include_caches=False)["counters"] == {}

    def test_snapshot_folds_in_cache_gauges(self, fresh_metrics):
        gauges = fresh_metrics.snapshot()["gauges"]
        for prefix in ("kernel_cache", "synopsis_cache"):
            assert f"{prefix}_hits" in gauges
            assert f"{prefix}_misses" in gauges
            assert f"{prefix}_hit_rate" in gauges

    def test_global_registry_swap(self):
        mine = MetricsRegistry()
        set_metrics(mine)
        try:
            assert get_metrics() is mine
        finally:
            set_metrics(None)
        assert get_metrics() is not mine

    def test_thread_safety_of_inc(self, fresh_metrics):
        m = fresh_metrics

        def hammer():
            for _ in range(500):
                m.inc("c", worker="w")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter_value("c", worker="w") == 2000.0


class TestEngineMetrics:
    def test_kernel_cache_lookup_counters(self, db, fresh_metrics):
        set_kernel_cache(KernelCache())
        try:
            db.sql("SELECT SUM(price) AS s FROM sales")
            assert fresh_metrics.counter_value(
                "kernel_cache_lookups_total", result="miss"
            ) == 1.0
            db.sql("SELECT SUM(price) AS s FROM sales")
            assert fresh_metrics.counter_value(
                "kernel_cache_lookups_total", result="hit"
            ) == 1.0
        finally:
            set_kernel_cache(None)

    def test_queries_total_by_engine(self, db, fresh_metrics):
        db.sql("SELECT COUNT(*) AS c FROM sales")
        assert fresh_metrics.counter_value(
            "queries_total", engine="aqp", technique="exact"
        ) == 1.0

    def test_technique_refusals_counted_per_technique(self, fresh_metrics):
        """On a 3-block table there is no synopsis and too few blocks for
        the pilot, so each refuses once and Quickr answers."""
        rng = np.random.default_rng(5)
        n = 10_000
        database = Database()
        database.create_table(
            "fact",
            {"store": rng.integers(0, 50, n), "price": rng.exponential(100.0, n)},
            block_size=4096,
        )
        assert database.table("fact").num_blocks == 3
        result = database.sql(
            "SELECT store, SUM(price) AS s FROM fact GROUP BY store "
            "ERROR WITHIN 10% CONFIDENCE 95%"
        )
        assert result.technique == "quickr"
        for technique, refusals in (
            ("offline_sample", 1.0), ("pilot", 1.0), ("quickr", 0.0)
        ):
            assert fresh_metrics.counter_value(
                "technique_refusals_total", technique=technique
            ) == refusals

    def test_deadline_miss_counter(self, fresh_metrics):
        from repro.core.exceptions import DeadlineExceeded
        from repro.resilience.deadline import Deadline

        clock = ManualClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded):
            deadline.check(site="executor.scan")
        assert fresh_metrics.counter_value(
            "deadline_misses_total", site="executor.scan"
        ) == 1.0

    def test_breaker_transition_metrics(self, fresh_metrics):
        from repro.resilience.retry import CircuitBreaker

        b = CircuitBreaker(failure_threshold=2, cooldown=1, name="t")
        b.record_failure()
        b.record_failure()  # -> open
        assert b.state == "open"
        assert b.times_opened == 1
        b.allow()  # cooldown -> half_open
        b.record_success()  # -> closed
        mv = fresh_metrics.counter_value
        assert mv("breaker_transitions_total", breaker="t", to="open") == 1.0
        assert mv("breaker_transitions_total", breaker="t", to="half_open") == 1.0
        assert mv("breaker_transitions_total", breaker="t", to="closed") == 1.0

    def test_retry_attempt_metric_and_span(self, fresh_metrics):
        from repro.resilience.retry import RetryPolicy

        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise OSError("transient")
            return "ok"

        tracer = Tracer()
        policy = RetryPolicy(max_attempts=3, seed=0, retry_on=(OSError,))
        with trace_scope(tracer):
            assert policy.call(flaky, site="builder") == "ok"
        assert fresh_metrics.counter_value(
            "retry_attempts_total", site="builder"
        ) == 1.0
        (retry_span,) = tracer.find("retry")
        assert retry_span.attributes["site"] == "builder"
        assert retry_span.attributes["attempt"] == 1
        assert "OSError" in retry_span.error

    def test_synopsis_cache_lookup_counters(self, fresh_metrics):
        from repro.storage.synopsis_cache import SynopsisCache

        cache = SynopsisCache()
        key = cache.make_key(("t", 123), "uniform")
        assert cache.get(key) is None
        cache.put(key, object(), nbytes=8)
        assert cache.get(key) is not None
        mv = fresh_metrics.counter_value
        assert mv("synopsis_cache_lookups_total", result="miss") == 1.0
        assert mv("synopsis_cache_lookups_total", result="hit") == 1.0


# ----------------------------------------------------------------------
# Schema validator
# ----------------------------------------------------------------------

def _minimal_span(name="query", **attrs):
    base_attrs = {
        "query": {"engine": "aqp"},
        "scan": {"table": "t", "rows_scanned": 1, "blocks_scanned": 1},
        "kernel": {"signature": "abc", "cache_hit": True},
    }.get(name, {})
    base_attrs.update(attrs)
    return {
        "name": name,
        "span_id": 0,
        "parent_id": None,
        "start": 0.0,
        "end": 1.0,
        "duration": 1.0,
        "status": "ok",
        "error": "",
        "attributes": base_attrs,
        "children": [],
    }


class TestSchema:
    def test_valid_span_passes(self):
        assert validate_span(_minimal_span()) == []

    def test_unknown_span_name_rejected(self):
        doc = _minimal_span()
        doc["name"] = "mystery"
        assert any("does not match" in e for e in validate_span(doc))

    def test_shard_names_match_pattern(self):
        doc = _minimal_span("shard.3", shard_status="served")
        assert validate_span(doc) == []
        doc["name"] = "shard.x"
        assert validate_span(doc) != []

    def test_missing_required_field(self):
        doc = _minimal_span()
        del doc["duration"]
        assert any("missing required" in e for e in validate_span(doc))

    def test_additional_property_rejected(self):
        doc = _minimal_span()
        doc["extra"] = 1
        assert any("unexpected property" in e for e in validate_span(doc))

    def test_wrong_types_rejected(self):
        doc = _minimal_span()
        doc["span_id"] = "zero"
        assert any("not of type" in e for e in validate_span(doc))
        doc = _minimal_span()
        doc["status"] = "maybe"
        assert any("enum" in e for e in validate_span(doc))
        doc = _minimal_span()
        doc["duration"] = -1.0
        assert any("minimum" in e for e in validate_span(doc))

    def test_children_validated_recursively(self):
        doc = _minimal_span()
        bad_child = _minimal_span("scan")
        del bad_child["attributes"]["table"]
        doc["children"] = [bad_child]
        assert any("missing attribute 'table'" in e for e in validate_span(doc))

    def test_required_attributes_enforced_per_name(self):
        for name, required in REQUIRED_ATTRIBUTES.items():
            span_name = "shard.0" if name == "shard" else name
            doc = _minimal_span(span_name)
            doc["attributes"] = {}
            errors = validate_span(doc)
            for attr in required:
                assert any(attr in e for e in errors), (name, attr, errors)

    def test_schema_is_json_serializable(self):
        json.dumps(SPAN_SCHEMA)


# ----------------------------------------------------------------------
# Rendering and structural comparison
# ----------------------------------------------------------------------

class TestRendering:
    def test_render_span_tree_markers_and_attrs(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with trace_scope(tracer):
            with span("query", engine="ladder"):
                with span("degrade", rung="requested") as sp:
                    sp.fail("InjectedFault: nope")
                with span("scan", table="sales", rows_scanned=10,
                          blocks_scanned=2):
                    pass
        text = render_span_tree(tracer, show_timing=False)
        lines = text.splitlines()
        assert lines[0].startswith("+ query")
        assert "x degrade" in lines[1]
        assert "rung=requested" in lines[1]
        assert "error=InjectedFault: nope" in lines[1]
        assert "table=sales" in lines[2]
        assert "rows_scanned=10" in lines[2]

    def test_structural_signature_ignore_splices(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("query", engine="aqp"):
                with span("kernel", signature="s", cache_hit=False):
                    with span("scan", table="t", rows_scanned=1,
                              blocks_scanned=1):
                        pass
        sig = structural_signature(tracer.roots[0], ignore=("kernel",))
        assert sig == ("query", "ok", (("scan", "ok", ()),))

    def test_collapse_shards_folds_identical_subtrees(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("query", engine="scatter_gather"):
                for i in range(4):
                    with span(f"shard.{i}") as sp:
                        sp.set(shard_status="served")
        sig = structural_signature(tracer.roots[0], collapse_shards=True)
        assert sig == ("query", "ok", (("shard.*", "ok", ()),))

    def test_collapse_shards_keeps_distinct_statuses(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("query", engine="scatter_gather"):
                with span("shard.0") as sp:
                    sp.set(shard_status="served")
                with span("shard.1") as sp:
                    sp.set(shard_status="failed").fail("dead")
        sig = structural_signature(tracer.roots[0], collapse_shards=True)
        assert sig == (
            "query",
            "ok",
            (("shard.*", "ok", ()), ("shard.*", "error", ())),
        )

    def test_tracer_signature_splices_roots(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("scan", table="t", rows_scanned=1, blocks_scanned=1):
                pass
            with span("kernel", signature="s", cache_hit=True):
                pass
        sig = tracer_signature(tracer, ignore=("kernel",))
        assert sig == (("scan", "ok", ()),)


# ----------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE / CLI
# ----------------------------------------------------------------------

class TestExplain:
    def test_split_explain(self):
        assert split_explain("SELECT 1 AS x FROM t") == (
            None, "SELECT 1 AS x FROM t"
        )
        mode, inner = split_explain("EXPLAIN SELECT a FROM t")
        assert (mode, inner) == ("explain", "SELECT a FROM t")
        mode, inner = split_explain("explain analyze  SELECT a FROM t")
        assert (mode, inner) == ("analyze", "SELECT a FROM t")

    def test_split_explain_requires_statement(self):
        with pytest.raises(SQLSyntaxError):
            split_explain("EXPLAIN")
        with pytest.raises(SQLSyntaxError):
            split_explain("EXPLAIN ANALYZE")

    def test_explain_returns_plan_text(self, db):
        text = db.sql("EXPLAIN SELECT SUM(price) AS s FROM sales")
        assert isinstance(text, str)
        assert "Scan(sales" in text

    def test_explain_analyze_returns_result_and_trace(self, db):
        er = db.sql(
            "EXPLAIN ANALYZE SELECT SUM(price) AS s FROM sales "
            "WHERE price > 5"
        )
        assert isinstance(er, ExplainResult)
        # The query actually ran: the answer is available ...
        assert er.table.num_rows == 1
        exact = db.sql("SELECT SUM(price) AS s FROM sales WHERE price > 5")
        assert float(er.table["s"][0]) == float(exact.table["s"][0])
        # ... and the trace holds a schema-valid query tree.
        names = [s.name for s in er.tracer.walk()]
        assert names[0] == "query"
        assert "scan" in names and "plan" in names
        for root in er.tracer.roots:
            assert validate_span(root.to_dict()) == []

    def test_explain_analyze_render_sections(self, db):
        er = db.sql("EXPLAIN ANALYZE SELECT COUNT(*) AS c FROM sales")
        text = er.render(show_timing=False)
        assert text.startswith("EXPLAIN ANALYZE")
        assert "plan:" in text
        assert "trace:" in text
        assert "cost:" in text
        assert "rows_scanned=" in text

    def test_run_explain_analyze_approximate(self, db):
        er = run_explain_analyze(
            db,
            "SELECT SUM(price) AS s FROM sales "
            "ERROR WITHIN 10% CONFIDENCE 95%",
            options=QueryOptions(seed=3),
        )
        assert er.tracer.find("query")
        assert er.tracer.find("query")[0].attributes["technique"] != ""


class TestTraceCLI:
    def _csv(self, tmp_path):
        path = tmp_path / "sales.csv"
        rng = np.random.default_rng(5)
        rows = ["price,qty"]
        rows += [f"{p:.3f},{q}" for p, q in zip(
            rng.exponential(10, 200), rng.integers(1, 5, 200)
        )]
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_trace_subcommand(self, tmp_path, capsys):
        """The CLI's one door prints the EXPLAIN ANALYZE span tree."""
        from repro.__main__ import main

        rc = main([
            "--csv", f"sales={self._csv(tmp_path)}",
            "EXPLAIN ANALYZE SELECT SUM(price) AS s FROM sales WHERE qty > 1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "+ query" in out
        assert "+ scan" in out

    def test_repl_runner_formats_explain(self, tmp_path):
        from repro.__main__ import run_query

        db = Database()
        db.create_table("t", {"x": np.arange(10.0)})
        plan = run_query(db, "EXPLAIN SELECT SUM(x) AS s FROM t", seed=0)
        assert "Scan(t" in plan
        transcript = run_query(
            db, "EXPLAIN ANALYZE SELECT SUM(x) AS s FROM t", seed=0
        )
        assert "trace:" in transcript


# ----------------------------------------------------------------------
# ExecutionStats.to_dict: one stats contract for every path
# ----------------------------------------------------------------------

STATS_KEYS = {
    "rows_scanned",
    "blocks_scanned",
    "rows_sampled",
    "join_input_rows",
    "agg_input_rows",
    "rows_output",
    "blocks_available",
    "fraction_blocks_read",
    "simulated_cost",
    "per_table",
}


class TestStatsContract:
    def test_to_dict_key_set_identical_across_paths(self, db):
        from repro.resilience.ladder import ResilientEngine
        from repro.sharding import ScatterGatherExecutor, ShardedTable
        from repro.sql.binder import bind_sql

        sql = "SELECT SUM(price) AS s FROM sales WHERE price > 2"
        plan = bind_sql(sql, db).plan
        _, engine_stats = db.execute(plan, optimize=False)
        ladder_result = ResilientEngine(db, warn_on_degrade=False).sql(sql)
        sharded = ShardedTable.from_table(db.table("sales"), 3)
        shard_result = ScatterGatherExecutor(sharded, max_workers=1).sql(sql)

        docs = {
            "engine": engine_stats.to_dict(),
            "ladder": ladder_result.stats.to_dict(),
            "sharded": shard_result.stats.to_dict(),
        }
        for path, doc in docs.items():
            assert set(doc) == STATS_KEYS, path
            json.dumps(doc)  # JSON-able by construction

    def test_to_dict_values_match_fields(self, db):
        plan_sql = "SELECT COUNT(*) AS c FROM sales"
        from repro.sql.binder import bind_sql

        _, stats = db.execute(bind_sql(plan_sql, db).plan, optimize=False)
        doc = stats.to_dict()
        assert doc["rows_scanned"] == stats.rows_scanned
        assert doc["blocks_scanned"] == stats.blocks_scanned
        assert doc["simulated_cost"] == stats.simulated_cost().total
        assert doc["per_table"]["sales"]["rows_scanned"] == 4000
