"""The one executor's contract suite (``pytest -m fused``).

Filter, Project and GroupByAggregate run only as fused kernels, over a
scan's selection vector or over any child run to a Table. What they must
produce — result tables (values, dtypes, column order) and
``ExecutionStats`` under ``TABLESAMPLE``, deadlines and budgets, over
single tables, joins, HAVING, ORDER BY/LIMIT and UNION ALL — is pinned by
the golden corpus (``tests/executor_corpus.py``), recorded from the fused
executor and the per-operator materializing executor it replaced while
both still existed. Fixed tests pin the allocation contract (zero
intermediate Tables), the kernel cache, shard quorum degradation, the
``encode_groups`` integer fast path, and ``Table.take`` mask/index
normalization.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.exceptions import DeadlineExceeded, QueryRefused, SchemaError
from repro.core.options import QueryOptions
from repro.engine.aggregates import AggregateSpec, encode_groups_arrays
from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.kernel_cache import KernelCache
from repro.engine.plan import Filter, GroupByAggregate, Project, Scan
from repro.engine.table import Table, count_table_allocations
from repro.obs.trace import Tracer, trace_scope
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultSpec,
    ManualClock,
    inject,
    shard_site,
)
from repro.sharding import ScatterGatherExecutor, ShardedTable
from repro.sql.binder import bind_sql

from . import executor_corpus as corpus

pytestmark = pytest.mark.fused


@pytest.fixture(scope="module")
def db():
    return corpus.fused_db()


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


# --- golden corpus ------------------------------------------------------

class TestFusedDifferential:
    """Every corpus entry replays bitwise: the executor against the
    answers both executors gave before the materializing one went."""

    def test_fuzzed_bit_identity(self):
        corpus.replay("fuzz", optimize=False)

    def test_fuzzed_bit_identity_optimized(self):
        corpus.replay("fuzz", optimize=True)

    def test_non_aggregate_chains(self):
        corpus.replay("chain")

    @pytest.mark.parametrize(
        "sample",
        [
            "TABLESAMPLE BERNOULLI (25)",
            "TABLESAMPLE SYSTEM (30)",
        ],
    )
    def test_sampled_scans_consume_rng_identically(self, sample):
        corpus.replay(f"sampled:{sample}")

    @pytest.mark.parametrize("optimize", [False, True])
    def test_distinct_directive_identical_in_both_modes(self, optimize):
        """The ``distinct_rows`` scan directive and its hidden ``__weight``
        column: same rows, weights and accounting as recorded."""
        corpus.replay("distinct", optimize=optimize)
        for rec in corpus.recorded("distinct"):
            assert rec["stats"]["rows_scanned"] == corpus.ROWS

    def test_bare_scans(self):
        """Full, pruned, aliased and sampled scans with nothing above."""
        corpus.replay("bare_scan")

    @pytest.mark.parametrize("group", ["join", "having", "order_limit", "union"])
    def test_operators_above_and_around_chains(self, group):
        corpus.replay(group)

    def test_identical_under_deadline_scope(self):
        corpus.replay("deadline")

    def test_identical_under_budget(self):
        corpus.replay("budget")

    def test_expired_deadline_raises_in_both_modes(self, db):
        """Over a scan and over a join alike, the first checkpoint raises."""
        chain = bind_sql("SELECT SUM(v) AS s FROM f", db).plan
        tpch = corpus.world("tpch")
        join = bind_sql(
            "SELECT o.o_orderpriority AS p, COUNT(*) AS n FROM lineitem l "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey GROUP BY o.o_orderpriority",
            tpch,
        ).plan
        for database, plan in ((db, chain), (tpch, join)):
            clock = ManualClock()
            deadline = Deadline(1.0, clock=clock)
            clock.advance(5.0)
            with pytest.raises(DeadlineExceeded):
                database.execute(plan, optimize=False, deadline=deadline)


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

    def test_fused_filter_project_allocates_one_table(self, db):
        plan = Project(
            child=Filter(child=Scan(table_name="f"), predicate=col("a") < 10),
            items=((col("v"), "v"),),
        )
        executor = Executor(db, kernel_cache=KernelCache())
        with count_table_allocations() as probe:
            executor.execute(plan)
        assert probe.count == 1


class TestJoinAggregatesFuse:
    """GROUP BY … HAVING above a join runs as one cached kernel chain over
    the join's output, not as one materialized Table per operator."""

    SQL = (
        "SELECT a.k AS k, SUM(a.v * b.w) AS s, COUNT(*) AS c "
        "FROM a JOIN b ON a.id = b.id WHERE b.w > 0.2 "
        "GROUP BY a.k HAVING COUNT(*) > 135"
    )

    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(17)
        n = 2000
        db = Database()
        db.create_table(
            "a",
            {
                "id": rng.integers(0, 500, n),
                "k": rng.integers(0, 12, n),
                "v": np.round(rng.exponential(5.0, n), 3),
            },
            block_size=128,
        )
        db.create_table(
            "b",
            {"id": np.arange(500), "w": np.round(rng.random(500), 4)},
            block_size=128,
        )
        return db

    def test_matches_numpy_oracle(self, world):
        result, _ = Executor(world, kernel_cache=KernelCache()).execute(
            bind_sql(self.SQL, world).plan
        )
        a, b = world.table("a"), world.table("b")
        w = b["w"][a["id"]]  # b.id is 0..499, so row i of b has id i
        keep = w > 0.2
        expected = {}
        for k in np.unique(a["k"][keep]):
            rows = keep & (a["k"] == k)
            if rows.sum() > 135:
                expected[int(k)] = (float(np.sum(a["v"][rows] * w[rows])), rows.sum())
        assert 0 < len(expected) < 12  # HAVING keeps some groups, not all
        assert sorted(result["k"].tolist()) == sorted(expected)
        for k, s, c in zip(result["k"], result["s"], result["c"]):
            assert s == pytest.approx(expected[int(k)][0], rel=1e-12)
            assert c == expected[int(k)][1]

    def test_second_run_hits_the_kernel_cache(self, world):
        plan = bind_sql(self.SQL, world).plan
        cache = KernelCache()
        hits = []
        for _ in range(2):
            tracer = Tracer()
            with trace_scope(tracer):
                Executor(world, kernel_cache=cache).execute(plan)
            (kernel,) = tracer.find("kernel")
            hits.append(kernel.attributes["cache_hit"])
        assert hits == [False, True]

    def test_allocates_join_inputs_join_output_and_result(self, world):
        plan = bind_sql(self.SQL, world).plan
        executor = Executor(world, kernel_cache=KernelCache())
        with count_table_allocations() as probe:
            executor.execute(plan)
        # the two aliased scans, the join output, the result: Filter,
        # GroupByAggregate, HAVING and the output Project copy nothing
        assert probe.count <= 2 + 1 + 1


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
