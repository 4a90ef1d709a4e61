"""Differential suite for the fused zero-copy pipeline (``pytest -m fused``).

The fused executor (``Executor(fused=True)``, the default) must be
*bitwise indistinguishable* from the legacy materializing executor in
everything except wall-clock and allocations: result tables (values,
dtypes, column order), ``ExecutionStats``, RNG consumption under
``TABLESAMPLE``, and behaviour under deadlines, budgets, and shard
quorum degradation. Hypothesis fuzzes the query space; fixed tests pin
the allocation contract (zero intermediate Tables), the kernel cache,
the ``encode_groups`` integer fast path, and ``Table.take`` mask/index
normalization.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.exceptions import QueryRefused, SchemaError
from repro.core.options import QueryOptions
from repro.engine.aggregates import AggregateSpec, encode_groups_arrays
from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.kernel_cache import KernelCache
from repro.engine.plan import Filter, GroupByAggregate, Project, SampleClause, Scan
from repro.engine.table import Table, count_table_allocations
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultSpec,
    ManualClock,
    ResourceBudget,
    deadline_scope,
    inject,
    shard_site,
)
from repro.sharding import ScatterGatherExecutor, ShardedTable
from repro.sql.binder import bind_sql

pytestmark = pytest.mark.fused

ROWS = 3000


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(321)
    db = Database()
    db.create_table(
        "f",
        {
            "a": rng.integers(0, 40, ROWS),
            "b": rng.integers(-5, 6, ROWS),
            "v": np.round(rng.exponential(10.0, ROWS), 3),
            "w": np.round(rng.random(ROWS), 6),
            "tag": rng.choice(np.array(["x", "y", "z"], dtype=object), ROWS),
        },
        block_size=128,
    )
    return db


# --- bitwise comparison helpers ---------------------------------------

def assert_tables_identical(left: Table, right: Table) -> None:
    assert left.column_names == right.column_names
    assert left.num_rows == right.num_rows
    for name in left.column_names:
        la, ra = left[name], right[name]
        assert la.dtype == ra.dtype, name
        if la.dtype.kind == "f":
            assert np.array_equal(la, ra, equal_nan=True), name
        else:
            assert np.array_equal(la, ra), name


def stats_snapshot(stats) -> dict:
    return {
        "rows_scanned": stats.rows_scanned,
        "blocks_scanned": stats.blocks_scanned,
        "rows_sampled": stats.rows_sampled,
        "join_input_rows": stats.join_input_rows,
        "agg_input_rows": stats.agg_input_rows,
        "rows_output": stats.rows_output,
        "blocks_available": stats.blocks_available,
        "per_table": {
            name: (a.rows_scanned, a.blocks_scanned, a.rows_returned)
            for name, a in stats.per_table.items()
        },
        "cost": stats.simulated_cost().total,
    }


def run_both(db, sql, seed=0, optimize=False, deadline=None, budget=None):
    """Execute one bound plan under both modes; assert bit-identity."""
    plan = bind_sql(sql, db).plan
    fused_t, fused_s = db.execute(
        plan, seed=seed, optimize=optimize, deadline=deadline, budget=budget
    )
    mat_t, mat_s = db.execute(
        plan,
        seed=seed,
        optimize=optimize,
        deadline=deadline,
        budget=budget,
        fused=False,
    )
    assert_tables_identical(fused_t, mat_t)
    assert stats_snapshot(fused_s) == stats_snapshot(mat_s), sql
    return fused_t, fused_s


# --- fuzzed differential ----------------------------------------------

comparators = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])
numeric_cols = st.sampled_from(["a", "b", "v", "w"])
AGGS = st.sampled_from(
    ["SUM({v})", "COUNT(*)", "AVG({v})", "SUM({v} * {w})", "MIN({w})", "MAX({a})"]
)
GROUPS = st.sampled_from([(), ("b",), ("a",), ("tag",), ("a", "b"), ("b", "tag")])
SAMPLES = st.sampled_from(
    [
        "",
        " TABLESAMPLE BERNOULLI (40)",
        " TABLESAMPLE SYSTEM (50)",
    ]
)


@st.composite
def predicates(draw):
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(numeric_cols)
        op = draw(comparators)
        value = (
            draw(st.integers(-5, 40))
            if c in ("a", "b")
            else round(draw(st.floats(0, 30)), 3)
        )
        parts.append(f"{c} {op} {value}")
    return draw(st.sampled_from([" AND ", " OR "])).join(parts)


@st.composite
def queries(draw):
    templates = draw(st.lists(AGGS, min_size=1, max_size=3, unique=True))
    aggs = [t.format(v="v", w="w", a="a") for t in templates]
    groups = list(draw(GROUPS))
    select = ", ".join(
        [f"{g} AS g{i}" for i, g in enumerate(groups)]
        + [f"{a} AS c{i}" for i, a in enumerate(aggs)]
    )
    sql = f"SELECT {select} FROM f" + draw(SAMPLES)
    where = draw(st.one_of(st.none(), predicates()))
    if where is not None:
        sql += f" WHERE {where}"
    if groups:
        sql += " GROUP BY " + ", ".join(groups)
    return sql


class TestFusedDifferential:
    @given(queries(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_bit_identity(self, db, sql, seed):
        run_both(db, sql, seed=seed)

    @given(queries(), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fuzzed_bit_identity_optimized(self, db, sql, seed):
        run_both(db, sql, seed=seed, optimize=True)

    def test_non_aggregate_chains(self, db):
        run_both(db, "SELECT a AS a, v * 2 AS v2 FROM f WHERE v > 5")
        run_both(db, "SELECT v AS v FROM f WHERE tag = 'x' ORDER BY v LIMIT 7")

    @pytest.mark.parametrize(
        "sample",
        [
            "TABLESAMPLE BERNOULLI (25)",
            "TABLESAMPLE SYSTEM (30)",
        ],
    )
    def test_sampled_scans_consume_rng_identically(self, db, sample):
        sql = f"SELECT SUM(v) AS s, COUNT(*) AS c FROM f {sample} WHERE a < 20"
        for seed in (0, 7, 991):
            run_both(db, sql, seed=seed)

    @pytest.mark.parametrize("optimize", [False, True])
    def test_distinct_directive_identical_in_both_modes(self, db, optimize):
        """The ``distinct_rows`` scan directive and its hidden ``__weight``
        column: same rows, weights and accounting fused or materialized."""
        scan = Scan(
            "f",
            alias="f",
            sample=SampleClause(
                "distinct_rows", rate=0.2, columns=("a", "b"), cap=2
            ),
        )
        plan = Project(
            Filter(scan, col("f.v") > 2.0),
            ((col("f.a"), "a"), (col("f.v") * col("f.__weight"), "wv")),
        )
        for seed in (0, 7, 991):
            fused_t, fused_s = db.execute(plan, seed=seed, optimize=optimize)
            mat_t, mat_s = db.execute(
                plan, seed=seed, optimize=optimize, fused=False
            )
            assert_tables_identical(fused_t, mat_t)
            assert stats_snapshot(fused_s) == stats_snapshot(mat_s)
            assert fused_s.rows_scanned == ROWS

    def test_identical_under_deadline_scope(self, db):
        sql = "SELECT b AS b, AVG(v) AS m FROM f WHERE w < 0.8 GROUP BY b"
        with deadline_scope(Deadline(60.0)):
            run_both(db, sql)

    def test_identical_under_budget(self, db):
        sql = "SELECT SUM(v * w) AS s FROM f WHERE a >= 3"
        run_both(db, sql, budget=ResourceBudget(max_rows=10 * ROWS))

    def test_expired_deadline_raises_in_both_modes(self, db):
        from repro.core.exceptions import DeadlineExceeded

        plan = bind_sql("SELECT SUM(v) AS s FROM f", db).plan
        for fused in (True, False):
            clock = ManualClock()
            deadline = Deadline(1.0, clock=clock)
            clock.advance(5.0)
            with pytest.raises(DeadlineExceeded):
                db.execute(plan, optimize=False, deadline=deadline, fused=fused)


# --- shard quorum degradation -----------------------------------------

class TestShardedZeroCopy:
    def _world(self):
        rng = np.random.default_rng(5)
        values = rng.lognormal(3.0, 1.0, 4000)
        group = rng.integers(0, 4, 4000)
        table = Table({"value": values, "g": group}, name="events")
        sharded = ShardedTable.from_table(table, 8)
        return sharded, values

    def test_exact_answer_matches_engine(self):
        sharded, values = self._world()
        executor = ScatterGatherExecutor(sharded, max_workers=1)
        result = executor.sql("SELECT SUM(value) AS s FROM events WHERE value > 20")
        truth = float(values[values > 20.0].sum())
        assert np.isclose(float(result.table["s"][0]), truth, rtol=1e-9)

    def test_degraded_quorum_still_honest_and_deterministic(self):
        sharded, values = self._world()
        truth = float(values[values > 20.0].sum())
        specs = [
            FaultSpec(site=shard_site(i, "exec"), kind="error", probability=1.0)
            for i in (1, 5)
        ]

        def degraded_run():
            executor = ScatterGatherExecutor(sharded, max_workers=1)
            with inject(FaultInjector(specs, seed=3)):
                return executor.sql(
                    "SELECT SUM(value) AS s FROM events WHERE value > 20",
                    options=QueryOptions(seed=11),
                )

        first, second = degraded_run(), degraded_run()
        assert first.is_degraded and second.is_degraded
        cell = first.estimate("s", 0)
        assert cell.ci_low <= truth <= cell.ci_high
        # Bitwise-deterministic re-execution on the zero-copy shard views.
        assert float(first.table["s"][0]) == float(second.table["s"][0])
        assert first.ci_low["s"][0] == second.ci_low["s"][0]
        assert first.ci_high["s"][0] == second.ci_high["s"][0]
        missing = [
            p["shard"] for p in first.provenance
            if "shard" in p and p["status"] == "failed"
        ]
        assert missing == [1, 5]

    def test_quorum_failure_refuses_with_provenance(self):
        sharded, _ = self._world()
        specs = [
            FaultSpec(site=shard_site(i, "exec"), kind="error", probability=1.0)
            for i in range(8)
        ]
        executor = ScatterGatherExecutor(sharded, max_workers=1)
        with inject(FaultInjector(specs, seed=0)):
            with pytest.raises(QueryRefused) as exc:
                executor.sql("SELECT SUM(value) AS s FROM events")
        assert any(p.get("rung") for p in exc.value.provenance)


# --- allocation contract ----------------------------------------------

class TestZeroIntermediateTables:
    def _plan(self):
        scan = Scan(table_name="f")
        filt = Filter(child=scan, predicate=col("v") > 5.0)
        proj = Project(
            child=filt,
            items=((col("b"), "b"), (col("v") * col("w"), "vw")),
        )
        return GroupByAggregate(
            child=proj,
            keys=((col("b"), "b"),),
            aggregates=(AggregateSpec("sum", col("vw"), "s"),),
        )

    def test_fused_aggregate_chain_allocates_one_table(self, db):
        executor = Executor(db, kernel_cache=KernelCache())
        with count_table_allocations() as probe:
            result, _ = executor.execute(self._plan())
        # Exactly the result Table: no per-operator intermediates, no
        # scan materialization, no copies inside the aggregate fold.
        assert probe.count == 1
        assert result.num_rows > 0

    def test_materializing_reference_allocates_more(self, db):
        executor = Executor(db, fused=False)
        with count_table_allocations() as probe:
            executor.execute(self._plan())
        assert probe.count > 1

    def test_fused_filter_project_allocates_one_table(self, db):
        plan = Project(
            child=Filter(child=Scan(table_name="f"), predicate=col("a") < 10),
            items=((col("v"), "v"),),
        )
        executor = Executor(db, kernel_cache=KernelCache())
        with count_table_allocations() as probe:
            executor.execute(plan)
        assert probe.count == 1


# --- kernel cache ------------------------------------------------------

class TestKernelCache:
    def test_warm_execution_hits_cache(self, db):
        cache = KernelCache()
        plan = bind_sql(
            "SELECT b AS b, SUM(v) AS s FROM f WHERE w < 0.5 GROUP BY b", db
        ).plan
        cold, _ = Executor(db, kernel_cache=cache).execute(plan)
        assert (cache.stats.misses, cache.stats.hits) == (1, 0)
        warm, _ = Executor(db, kernel_cache=cache).execute(plan)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        assert_tables_identical(cold, warm)

    def test_seed_change_reuses_kernels(self, db):
        cache = KernelCache()
        plan = bind_sql(
            "SELECT SUM(v) AS s FROM f TABLESAMPLE BERNOULLI (30)", db
        ).plan
        Executor(db, seed=1, kernel_cache=cache).execute(plan)
        Executor(db, seed=2, kernel_cache=cache).execute(plan)
        # Kernels are seed-independent: signatures exclude the sample seed.
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_content_change_invalidates(self):
        db = Database()
        rng = np.random.default_rng(0)
        db.create_table("t", {"x": rng.random(500)}, block_size=64)
        cache = KernelCache()
        plan = bind_sql("SELECT SUM(x) AS s FROM t", db).plan
        Executor(db, kernel_cache=cache).execute(plan)
        db.replace_table("t", Table({"x": rng.random(500)}, name="t"))
        Executor(db, kernel_cache=cache).execute(plan)
        # New fingerprint, new key: stale kernels can never be returned.
        assert cache.stats.misses == 2

    def test_lru_eviction(self):
        cache = KernelCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.get_or_compile(key, lambda: key)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert "a" not in cache


# --- encode_groups integer fast path ----------------------------------

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16]


def _generic_reference(key_arrays):
    """Force the generic path by widening every column to object dtype."""
    return encode_groups_arrays([a.astype(object) for a in key_arrays])


@st.composite
def int_key_sets(draw):
    n = draw(st.integers(1, 200))
    num_keys = draw(st.integers(1, 4))
    # narrow ranges keep the packed codes dense (renumbered by counting),
    # wide ones sparse (renumbered by np.unique)
    reach = draw(st.sampled_from([3, 40, 1000]))
    arrays = []
    for _ in range(num_keys):
        dtype = draw(st.sampled_from(INT_DTYPES))
        info = np.iinfo(dtype)
        lo = draw(st.integers(max(info.min, -reach), 0))
        hi = draw(st.integers(1, min(info.max, reach)))
        seed = draw(st.integers(0, 2**31 - 1))
        arrays.append(
            np.random.default_rng(seed).integers(lo, hi + 1, n).astype(dtype)
        )
    return arrays


class TestEncodeGroupsFastPath:
    @given(int_key_sets())
    @settings(max_examples=80, deadline=None)
    def test_matches_generic_on_fuzzed_int_dtypes(self, key_arrays):
        ids_fast, cols_fast = encode_groups_arrays(key_arrays)
        ids_ref, cols_ref = _generic_reference(key_arrays)
        assert np.array_equal(ids_fast, ids_ref)
        assert len(cols_fast) == len(cols_ref)
        for fast, ref, source in zip(cols_fast, cols_ref, key_arrays):
            assert fast.dtype == source.dtype
            assert np.array_equal(fast.astype(object), ref)

    def test_overflow_span_falls_back_to_generic(self):
        # Per-column spans whose product overflows the int64 packing
        # budget: the fast path must bail, not wrap around.
        a = np.array([0, 2**40, 17, 0], dtype=np.int64)
        b = np.array([-(2**40), 5, 5, -(2**40)], dtype=np.int64)
        c = np.array([3, 2**21, 3, 3], dtype=np.int64)
        ids, cols = encode_groups_arrays([a, b, c])
        ids_ref, _ = _generic_reference([a, b, c])
        assert np.array_equal(ids, ids_ref)
        assert len(cols[0]) == 3  # rows 0 and 3 collide into one group

    def test_dense_codes_with_holes_match_np_unique(self):
        # One column, span 10 over 12 rows: the counting path, with gaps
        # (no 13, 15, 16, 18, 19) its lookup table has to close.
        a = np.array([20, 11, 14, 14, 12, 20, 17, 11, 12, 14, 17, 20], dtype=np.int32)
        ids, cols = encode_groups_arrays([a])
        uniq, inverse = np.unique(a, return_inverse=True)
        assert cols[0].dtype == a.dtype
        assert np.array_equal(cols[0], uniq)
        assert np.array_equal(ids, inverse)
        flags = np.array([True, False, True, True])
        ids, cols = encode_groups_arrays([flags])
        assert cols[0].dtype == bool and list(cols[0]) == [False, True]
        assert list(ids) == [1, 0, 1, 1]

    def test_uint64_beyond_int64_is_not_packed(self):
        big = np.array([2**63 + 5, 3, 2**63 + 5, 7], dtype=np.uint64)
        ids, cols = encode_groups_arrays([big])
        assert list(ids) == [2, 0, 2, 1]
        assert list(cols[0]) == [3, 7, 2**63 + 5]

    def test_mixed_int_and_object_uses_generic(self):
        a = np.array([1, 1, 2], dtype=np.int64)
        s = np.array(["p", "q", "p"], dtype=object)
        ids, cols = encode_groups_arrays([a, s])
        assert np.array_equal(ids, [0, 1, 2])
        assert list(cols[1]) == ["p", "q", "p"]


# --- Table.take normalization -----------------------------------------

class TestTakeNormalization:
    def setup_method(self):
        self.t = Table({"x": np.arange(6, dtype=np.int64)})

    def test_boolean_mask_selects(self):
        mask = np.array([True, False, True, False, False, True])
        assert list(self.t.take(mask)["x"]) == [0, 2, 5]

    def test_wrong_length_mask_raises(self):
        with pytest.raises(SchemaError, match="length"):
            self.t.take(np.array([True, False]))

    def test_integer_indices_gather_and_repeat(self):
        out = self.t.take(np.array([5, 0, 0], dtype=np.int32))
        assert list(out["x"]) == [5, 0, 0]

    def test_empty_any_dtype_is_empty_selection(self):
        out = self.t.take(np.array([], dtype=np.float64))
        assert out.num_rows == 0

    def test_nonempty_float_indices_rejected(self):
        with pytest.raises(SchemaError):
            self.t.take(np.array([1.0, 2.0]))

    def test_2d_rejected(self):
        with pytest.raises(SchemaError):
            self.t.take(np.ones((2, 2), dtype=bool))
