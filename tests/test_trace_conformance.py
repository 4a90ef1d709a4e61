"""Trace-conformance suite: the observability layer's contract.

Four guarantees, pinned here:

1. **Schema conformance** — every span any execution path emits (plain
   AQP, degradation ladder, scatter-gather, EXPLAIN ANALYZE, chaos)
   validates against the committed JSON schema
   (``tests/golden/span_schema.json``), and span/parent ids form a
   consistent tree.
2. **Structural equivalence** — a traced execution returns the golden
   corpus's recorded answer and stats (``tests/executor_corpus.py``),
   its tree holds the ``scan`` and ``kernel`` spans, the ``sql()`` tree
   runs from ``query`` down to ``scan``, and a sharded run's tree is
   invariant to the shard count once ``shard.<i>`` subtrees are
   collapsed.
3. **Tracing off is free** — with no tracer installed (the default),
   results, CIs, and ``ExecutionStats`` are bitwise-identical to a
   traced run of the same seed: instrumentation touches no RNG, no
   accounting, no clocks that feed results.
4. **Golden rung payloads** — the exact provenance records produced by
   forcing each of the five ladder rungs are pinned in
   ``tests/golden/provenance_rungs.json``. Regenerate both golden files
   with ``REPRO_REGOLD=1 pytest tests/test_trace_conformance.py``.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np
import pytest

from repro import Database, QueryOptions
from repro.engine.table import Table
from repro.obs.schema import SPAN_SCHEMA, validate_span
from repro.obs.trace import Tracer, trace_scope, tracer_signature
from repro.offline.catalog import SampleEntry, SynopsisCatalog
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    LADDER_RUNGS,
    ResilientEngine,
    inject,
)
from repro.sampling.row import srs_sample
from repro.sharding import ScatterGatherExecutor, ShardedTable

from . import executor_corpus as corpus
from .executor_corpus import TRACE_SQL as CORPUS
from .executor_corpus import fuzz_db as _fuzz_db

pytestmark = pytest.mark.obs

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REGOLD = os.environ.get("REPRO_REGOLD") == "1"

APPROX_CORPUS = [
    "SELECT SUM(x) AS s FROM f ERROR WITHIN 10% CONFIDENCE 95%",
    "SELECT AVG(y) AS a FROM f ERROR WITHIN 10% CONFIDENCE 95%",
]


def _trace(fn):
    """Run ``fn`` under a fresh tracer; return (return_value, tracer)."""
    tracer = Tracer()
    with trace_scope(tracer):
        value = fn()
    return value, tracer


def _stats_doc(result_or_stats):
    stats = getattr(result_or_stats, "stats", result_or_stats)
    return stats.to_dict()


def _table_columns(table: Table):
    return {name: np.asarray(table[name]) for name in table.column_names}


def assert_tables_bitwise_equal(a: Table, b: Table) -> None:
    assert a.column_names == b.column_names
    for name, col in _table_columns(a).items():
        other = _table_columns(b)[name]
        assert col.dtype == other.dtype, name
        assert np.array_equal(col, other), name


# ----------------------------------------------------------------------
# 1. Schema conformance + tree consistency
# ----------------------------------------------------------------------

def assert_trace_conforms(tracer: Tracer) -> None:
    """Every root validates against the schema; ids form one sane tree."""
    assert tracer.roots, "trace is empty"
    for root in tracer.roots:
        errors = validate_span(root.to_dict())
        assert errors == [], errors
    ids = [s.span_id for s in tracer.walk()]
    assert len(ids) == len(set(ids)), "span ids not unique"
    reachable = set()

    def visit(node):
        reachable.add(node.span_id)
        for child in node.children:
            assert child.parent_id == node.span_id
            visit(child)

    for root in tracer.roots:
        assert root.parent_id is None
        visit(root)
    assert reachable == set(ids), "spans detached from every root"
    for s in tracer.walk():
        assert s.end is not None, f"span {s.name} never finished"
        assert s.end >= s.start


class TestSchemaConformance:
    @pytest.fixture(scope="class")
    def db(self):
        return _fuzz_db(100)

    @pytest.mark.parametrize("sql", CORPUS + APPROX_CORPUS)
    def test_aqp_engine_traces_conform(self, db, sql):
        result, tracer = _trace(
            lambda: db.sql(sql, options=QueryOptions(seed=7))
        )
        assert_trace_conforms(tracer)
        (query_span,) = tracer.find("query")
        assert query_span.attributes["engine"] == "aqp"
        assert query_span.attributes["stats"] == _stats_doc(result)

    @pytest.mark.parametrize("sql", CORPUS + APPROX_CORPUS)
    def test_ladder_traces_conform(self, db, sql):
        engine = ResilientEngine(db, warn_on_degrade=False)
        result, tracer = _trace(
            lambda: engine.sql(sql, options=QueryOptions(seed=7))
        )
        assert_trace_conforms(tracer)
        (query_span,) = tracer.find("query")
        assert query_span.attributes["engine"] == "ladder"
        assert query_span.attributes["rung"] in LADDER_RUNGS
        served = tracer.find("degrade")[-1]
        assert served.attributes["rung"] == query_span.attributes["rung"]
        assert result.provenance[-1]["outcome"] == "ok"

    @pytest.mark.parametrize("sql", CORPUS)
    def test_sharded_traces_conform(self, db, sql):
        sharded = ShardedTable.from_table(db.table("f"), 3)
        executor = ScatterGatherExecutor(sharded, max_workers=2)
        _, tracer = _trace(
            lambda: executor.sql(sql, options=QueryOptions(seed=7))
        )
        assert_trace_conforms(tracer)
        (query_span,) = tracer.find("query")
        assert query_span.attributes["engine"] == "scatter_gather"
        shard_spans = [
            s for s in tracer.walk() if s.name.startswith("shard.")
        ]
        assert len(shard_spans) == 3
        for s in shard_spans:
            assert s.attributes["shard_status"] == "served"
            assert s.parent_id == query_span.span_id

    def test_explain_analyze_trace_conforms(self, db):
        er = db.sql(
            "EXPLAIN ANALYZE " + CORPUS[0],
            options=QueryOptions(seed=7),
        )
        assert_trace_conforms(er.tracer)

    def test_chaos_trace_conforms(self, db):
        engine = ResilientEngine(db, warn_on_degrade=False)
        injector = FaultInjector(
            [FaultSpec(site="ladder.requested", kind="error")], seed=5
        )

        def run():
            with inject(injector):
                return engine.sql(
                    APPROX_CORPUS[0],
                    options=QueryOptions(seed=7),
                )

        _, tracer = _trace(run)
        assert_trace_conforms(tracer)
        assert tracer.find("fault"), "injected fault left no fault span"
        for fault in tracer.find("fault"):
            assert fault.status == "error"
            assert fault.attributes["seed"] == 5


# ----------------------------------------------------------------------
# 2. Structural equivalence
# ----------------------------------------------------------------------

class TestStructuralEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("sql", CORPUS)
    def test_fused_matches_materializing(self, sql, seed):
        """Same query, same seed: a traced bind-and-execute returns the
        answer and the stats the corpus recorded from both executors,
        through one scan and one kernel span."""
        (rec,) = [
            r for r in corpus.recorded("trace")
            if r["sql"] == sql and r["seed"] == seed
        ]
        (table, stats), tracer = _trace(lambda: corpus.run_entry(rec))
        corpus.assert_matches(rec, table, stats)
        assert_trace_conforms(tracer)
        assert [s.name for s in tracer.walk()] == ["plan", "scan", "kernel"]

    @pytest.mark.parametrize("sql", CORPUS)
    def test_full_query_trees_match_through_sql_front_end(self, sql):
        """End-to-end (parse/bind/optimize included) the tree runs from
        the query root down to the scan."""
        db = _fuzz_db(11)
        _, traced = _trace(lambda: db.sql(sql, options=QueryOptions(seed=3)))
        names = [s.name for s in traced.walk()]
        assert names[0] == "query"
        assert "scan" in names

    @pytest.mark.parametrize("sql", CORPUS)
    def test_sharded_tree_invariant_to_shard_count(self, sql):
        """Collapsing ``shard.<i>`` subtrees makes the trace independent
        of the partitioning — 2-way and 4-way runs look identical."""
        signatures = []
        for num_shards in (2, 4):
            db = _fuzz_db(21)
            sharded = ShardedTable.from_table(db.table("f"), num_shards)
            executor = ScatterGatherExecutor(sharded, max_workers=2)
            _, tracer = _trace(
                lambda: executor.sql(sql, options=QueryOptions(seed=5))
            )
            signatures.append(
                tracer_signature(tracer, collapse_shards=True)
            )
        assert signatures[0] == signatures[1]
        # The collapsed tree has exactly one shard.* leaf under the query.
        (query_sig,) = signatures[0]
        child_names = [c[0] for c in query_sig[2]]
        assert child_names.count("shard.*") == 1


# ----------------------------------------------------------------------
# 3. Tracing off is bitwise-free
# ----------------------------------------------------------------------

class TestTracingOffIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sql", CORPUS + APPROX_CORPUS)
    def test_traced_and_untraced_runs_are_bitwise_identical(self, sql, seed):
        db = _fuzz_db(seed + 50)
        baseline = db.sql(sql, options=QueryOptions(seed=seed))
        traced, tracer = _trace(
            lambda: db.sql(sql, options=QueryOptions(seed=seed))
        )
        repeat = db.sql(sql, options=QueryOptions(seed=seed))
        assert tracer.roots, "tracer saw nothing — scope not threaded"
        for other in (traced, repeat):
            assert_tables_bitwise_equal(baseline.table, other.table)
            assert _stats_doc(baseline) == _stats_doc(other)
        if hasattr(baseline, "ci_low"):
            for alias in baseline.ci_low:
                for side in ("ci_low", "ci_high"):
                    assert np.array_equal(
                        getattr(baseline, side)[alias],
                        getattr(traced, side)[alias],
                    ), (alias, side)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ladder_identity(self, seed):
        db = _fuzz_db(seed + 70)
        engine = ResilientEngine(db, warn_on_degrade=False)
        sql = APPROX_CORPUS[0]
        baseline = engine.sql(sql, options=QueryOptions(seed=seed))
        traced, _ = _trace(
            lambda: engine.sql(sql, options=QueryOptions(seed=seed))
        )
        assert_tables_bitwise_equal(baseline.table, traced.table)
        assert _stats_doc(baseline) == _stats_doc(traced)
        assert baseline.provenance == traced.provenance

    def test_quickr_identity_and_scan_span(self):
        """A Quickr query traces as the one pass it is: a sampled ``scan``
        of the base table (no temp table), every row read, ~rate of them
        returned — and tracing changes nothing about the answer."""
        rng = np.random.default_rng(90)
        n = 24_000
        db = Database()
        db.create_table(
            "f",
            {"y": rng.exponential(10.0, n), "g": rng.integers(0, 80, n)},
            block_size=256,
        )
        sql = "SELECT g, SUM(y) AS s FROM f GROUP BY g ERROR WITHIN 10% CONFIDENCE 95%"
        options = QueryOptions(seed=4, technique="quickr")
        baseline = db.sql(sql, options)
        traced, tracer = _trace(lambda: db.sql(sql, options))
        assert_trace_conforms(tracer)
        assert_tables_bitwise_equal(baseline.table, traced.table)
        assert _stats_doc(baseline) == _stats_doc(traced)
        assert np.array_equal(baseline.ci_low["s"], traced.ci_low["s"])
        scans = [s for s in tracer.walk() if s.name == "scan"]
        assert [s.attributes["table"] for s in scans] == ["f"]
        attrs = scans[0].attributes
        assert attrs["sampled"] is True
        assert attrs["rows_scanned"] == n
        assert attrs["blocks_scanned"] == db.table("f").num_blocks
        assert attrs["rows_returned"] == traced.diagnostics["sample_rows"]
        assert 0.08 * n < attrs["rows_returned"] < 0.2 * n

    def test_sharded_identity(self):
        db = _fuzz_db(90)
        sharded = ShardedTable.from_table(db.table("f"), 3)
        sql = CORPUS[0]
        baseline = ScatterGatherExecutor(sharded, max_workers=2).sql(
            sql,
            options=QueryOptions(seed=1),
        )
        traced, _ = _trace(
            lambda: ScatterGatherExecutor(sharded, max_workers=2).sql(
                sql,
                options=QueryOptions(seed=1),
            )
        )
        assert_tables_bitwise_equal(baseline.table, traced.table)
        assert _stats_doc(baseline) == _stats_doc(traced)


# ----------------------------------------------------------------------
# 4. Golden files
# ----------------------------------------------------------------------

GOLDEN_SQL = "SELECT SUM(price) AS s FROM sales ERROR WITHIN 10% CONFIDENCE 95%"


def _golden_world() -> Database:
    """Deterministic world where every rung *can* serve: a table big
    enough that pilot/quickr sampling is profitable, plus a registered
    stale sample (fails freshness, so the stale rung has something to
    widen)."""
    rng = np.random.default_rng(1234)
    prices = rng.lognormal(3.0, 1.0, 100_000)
    db = Database()
    db.create_table("sales", {"price": prices})
    prefix = 80_000
    sample = srs_sample(
        Table({"price": prices[:prefix]}, name="sales"),
        2000,
        np.random.default_rng(99),
    )
    SynopsisCatalog(db).add_sample(
        SampleEntry(
            table="sales", sample=sample, kind="uniform",
            built_at_rows=prefix,
        )
    )
    return db


def _force_rung(target: str):
    """Serve the golden query from exactly ``target`` by injecting
    deterministic error faults at every rung above it."""
    db = _golden_world()
    engine = ResilientEngine(db, warn_on_degrade=False)
    above = LADDER_RUNGS[: LADDER_RUNGS.index(target)]
    injector = FaultInjector(
        [FaultSpec(site=f"ladder.{rung}", kind="error") for rung in above],
        seed=7,
    )
    with inject(injector):
        return engine.sql(GOLDEN_SQL, options=QueryOptions(seed=42))


@pytest.fixture(scope="module")
def rung_payloads():
    return {rung: _force_rung(rung).provenance for rung in LADDER_RUNGS}


class TestGoldenFiles:
    def test_span_schema_golden_matches_code(self):
        path = GOLDEN_DIR / "span_schema.json"
        if REGOLD:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(
                json.dumps(SPAN_SCHEMA, indent=2, sort_keys=True) + "\n"
            )
        committed = json.loads(path.read_text())
        assert committed == SPAN_SCHEMA, (
            "span schema drifted from tests/golden/span_schema.json — "
            "a trace format change must be deliberate; regenerate with "
            "REPRO_REGOLD=1 and review the diff"
        )

    def test_provenance_rungs_golden(self, rung_payloads):
        path = GOLDEN_DIR / "provenance_rungs.json"
        if REGOLD:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(
                json.dumps(rung_payloads, indent=2, sort_keys=True) + "\n"
            )
        committed = json.loads(path.read_text())
        assert set(committed) == set(LADDER_RUNGS)
        for rung in LADDER_RUNGS:
            assert rung_payloads[rung] == committed[rung], (
                f"provenance payload for forced rung {rung!r} drifted "
                "from the golden file; regenerate with REPRO_REGOLD=1 "
                "and review the diff"
            )

    @pytest.mark.parametrize("rung", LADDER_RUNGS)
    def test_forced_rung_serves_from_target(self, rung_payloads, rung):
        payload = rung_payloads[rung]
        assert payload[-1]["rung"] == rung
        assert payload[-1]["outcome"] == "ok"
        # Every rung above the target failed with the injected fault.
        above = LADDER_RUNGS[: LADDER_RUNGS.index(rung)]
        failed = [p for p in payload if p["outcome"] == "failed"]
        assert [p["rung"] for p in failed] == list(above)
        for p in failed:
            assert "InjectedFault" in p["error"]
        assert payload[-1]["degraded"] == (len(above) > 0)
