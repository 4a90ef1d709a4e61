"""The shard gather over moment tables against the gather it replaced.

Shards hand back moment tables (per piece: total, ``__var``, ``__rows``)
and the gather takes its intervals from
:func:`~repro.online.estimation.piece_intervals` /
:func:`~repro.online.estimation.combine_intervals`. The reference below
is the earlier gather: per-shard partials carrying each estimate's
*squared* CI half-width (``__hw2``, each shard choosing its own t or z),
summed across shards, then widened and divided for AVG cell by cell; an
``ola`` shard's estimates are its fixed-stop prefix of whole blocks,
replayed block by block (:mod:`tests.ola_reference`), with the critical
value read on the blocks all served shards sampled. Exact answers must
agree bitwise; sampled answers to 1e-9 relative wherever every shard
contributes ≥ 100 rows (or, for ``ola``, always). Where a ``sample``
shard contributes fewer, the critical value is now read on the merged
rows; that change is pinned with both intervals written down.

The table is laid out in 16-row blocks, so each ~500-row hash shard
holds 28–34 full blocks and an ``ola`` shard samples 8–10 of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errorspec import ErrorSpec, student_t_ppf, z_value
from repro.core.options import QueryOptions
from repro.engine.aggregates import AggregateSpec
from repro.engine.fused import (
    SliceRelation,
    apply_steps,
    compile_chain,
    extract_chain,
    filter_mask,
    run_prepared_aggregate,
)
from repro.engine.plan import Filter, GroupByAggregate, Scan
from repro.engine.table import Table
from repro.estimators.closed_form import Estimate
from repro.offline.catalog import SynopsisCatalog
from repro.resilience import Deadline, FaultInjector, inject, kill_shard
from repro.sharding import ScatterGatherExecutor, ShardedTable, merge_partial_tables
from repro.sql import bind_sql

from . import estimator_reference
from .ola_reference import reference_block_fixed_stop

N_ROWS = 4_096
NUM_SHARDS = 8
SAMPLE_ROWS = 400
SPEC = ErrorSpec(relative_error=0.10, confidence=0.95)
VICTIM = 5

_COUNT = "__count"
_HW2 = "__hw2"
_MATCHED = "__matched"


@pytest.fixture(scope="module")
def sharded() -> ShardedTable:
    rng = np.random.default_rng(7)
    table = Table(
        {"v": rng.exponential(10.0, N_ROWS), "k": rng.integers(0, 5, N_ROWS)},
        name="events",
        block_size=16,
    )
    sharded = ShardedTable.from_table(table, NUM_SHARDS)
    sharded.build_shard_samples(rows_per_shard=SAMPLE_ROWS, seed=3)
    return sharded


# ----------------------------------------------------------------------
# The reference: the __hw2 partials and the per-cell gather
# ----------------------------------------------------------------------
def _reference_chain(bound):
    """Partial kernels with ``SUM(x)`` under each SUM/AVG aggregate's own
    alias and one shared ``COUNT(*)``."""
    target = bound.tables[0]
    node = Scan(table_name=target.name, alias=target.alias)
    if bound.where is not None:
        node = Filter(child=node, predicate=bound.where)
    components = [
        AggregateSpec("sum", agg.argument, agg.alias)
        for agg in bound.aggregates
        if agg.func != "count"
    ]
    components.append(AggregateSpec("count", None, _COUNT))
    return compile_chain(
        extract_chain(
            GroupByAggregate(
                child=node,
                keys=tuple(bound.group_keys),
                aggregates=tuple(components),
            )
        )
    )


def _estimate_row(estimates, matched: float) -> Table:
    cols = {_MATCHED: np.array([matched])}
    for name, (value, lo, hi) in estimates.items():
        half = (hi - lo) / 2.0
        cols[name] = np.array([value])
        cols[name + _HW2] = np.array([half * half])
    return Table(cols, name="aggregate")


def _ola_reference(sharded, shard, bound, prepared, seed, deadline):
    """The shard's fixed-stop answer, replayed block by block."""
    alias = bound.tables[0].alias
    rename = {c: f"{alias}.{c}" for c in sharded.column_names}
    table = shard.table
    return reference_block_fixed_stop(
        prepared,
        SliceRelation(table, 0, table.num_rows, rename),
        seed=[seed, shard.shard_id],
        batch_size=max(256, table.num_rows // 20),
        block_size=table.block_size,
        deadline=deadline,
    )


def _reference_partial(
    sharded, shard, bound, prepared, technique, seed, blocks, deadline, crit
):
    alias = bound.tables[0].alias
    rename = {c: f"{alias}.{c}" for c in sharded.column_names}
    keys = tuple(a for _, a in bound.group_keys)
    table = shard.table

    def fold(start, stop):
        rel = apply_steps(prepared.steps, SliceRelation(table, start, stop, rename))
        return run_prepared_aggregate(prepared, rel)

    if technique == "exact":
        if not blocks:
            return fold(0, table.num_rows)
        parts = [fold(*table.block_bounds(b)) for b in range(table.num_blocks)]
        return merge_partial_tables(parts, keys)
    if technique == "ola":
        ref = _ola_reference(sharded, shard, bound, prepared, seed, deadline)
        estimates = {}
        for name, (total, variance) in ref.pieces.items():
            half = crit * np.sqrt(variance)
            estimates[name] = (total, total - half, total + half)
        return _estimate_row(estimates, ref.matched)
    catalog = SynopsisCatalog.for_database(sharded.binder_database())
    sample = catalog.find_sample(
        sharded.name, require_fresh=False, shard=shard.shard_id
    ).sample
    mask = filter_mask(
        prepared, SliceRelation(sample.table, 0, sample.num_rows, rename)
    )
    keep = np.ones(sample.num_rows, dtype=bool) if mask is None else mask
    pi = 1.0 / np.maximum(sample.weights[keep], 1e-300)
    count = Estimate(*estimator_reference.ht_total(np.ones(len(pi)), pi))
    estimates = {_COUNT: (count.value, *count.ci(SPEC.confidence))}
    for agg in bound.aggregates:
        if agg.func == "count":
            continue
        if not keep.any():
            estimates[agg.alias] = (0.0, 0.0, 0.0)
        else:
            column = agg.argument.name.split(".", 1)[1]
            est = Estimate(*estimator_reference.ht_total(np.asarray(sample.table[column])[keep], pi))
            estimates[agg.alias] = (est.value, *est.ci(SPEC.confidence))
    return _estimate_row(estimates, float(max(count.value, 0.0)))


def _cell(func, s, s_hw2, c, c_hw2, w, sel):
    s_hw, c_hw = np.sqrt(s_hw2), np.sqrt(c_hw2)
    center = min(max(sel * w["total"], w["neg"]), w["pos"])
    s_lo, s_hi = s - s_hw + w["neg"], s + s_hw + w["pos"]
    c_lo, c_hi = np.maximum(c - c_hw, 0.0), c + c_hw + w["rows"]
    if func == "sum":
        return s + center, s_lo, s_hi
    if func == "count":
        return c + sel * w["rows"], c_lo, c_hi
    denom = c + sel * w["rows"]
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(denom > 0, (s + center) / denom, np.nan)
        ratios = np.stack([s_lo / c_lo, s_lo / c_hi, s_hi / c_lo, s_hi / c_hi])
    unbounded = c_lo <= 0.0
    return (
        value,
        np.where(unbounded, -np.inf, ratios.min(axis=0)),
        np.where(unbounded, np.inf, ratios.max(axis=0)),
    )


def _reference(sharded, sql, technique, seed=0, victim=None, deadline=None):
    """``alias -> (value, low, high)`` as the earlier gather answered."""
    bound = bind_sql(sql, sharded.binder_database())
    prepared = _reference_chain(bound)
    served = [s for s in sharded.shards if s.shard_id != victim]
    blocks = deadline is not None or victim is not None
    crit = None
    if technique == "ola":
        # the t rule reads the blocks the served shards sampled, together
        units = sum(
            _ola_reference(sharded, s, bound, prepared, seed, deadline).units
            for s in served
        )
        crit = (
            student_t_ppf(0.5 + SPEC.confidence / 2.0, units - 1)
            if units < 100
            else z_value(SPEC.confidence)
        )
    keys = tuple(a for _, a in bound.group_keys)
    merged = merge_partial_tables(
        [
            _reference_partial(
                sharded, s, bound, prepared, technique, seed, blocks,
                deadline, crit,
            )
            for s in served
        ],
        keys,
    )
    zeros = np.zeros(merged.num_rows)

    def component(name):
        return merged[name] if name in merged else zeros

    counts = component(_COUNT)
    served_rows = sharded.rows_in([s.shard_id for s in served])
    matched = float((counts if technique == "exact" else component(_MATCHED)).sum())
    sel = min(max(matched / served_rows, 0.0), 1.0)
    cells = {}
    for agg in bound.aggregates:
        w = {"neg": 0.0, "pos": 0.0, "total": 0.0, "rows": 0}
        if victim is not None:
            stats = sharded.shards[victim].stats
            w["rows"] = stats.rows
            if agg.func != "count":
                env = stats.sum_envelope(agg.argument.name.split(".", 1)[1])
                w.update(neg=env.negative, pos=env.positive, total=env.total)
        cells[agg.alias] = _cell(
            agg.func,
            component(agg.alias),
            component(agg.alias + _HW2),
            counts,
            component(_COUNT + _HW2),
            w,
            0.0 if bound.group_keys else sel,
        )
    return {
        alias: cells[expr.name]
        for expr, alias in bound.output_items
        if expr.name in cells
    }


def _served(sharded, sql, technique, seed=0, victim=None, deadline=None):
    """``alias -> (value, low, high)`` from the executor."""
    options = QueryOptions(
        spec=SPEC, seed=seed, technique=technique, deadline=deadline
    )
    ex = ScatterGatherExecutor(sharded, max_workers=1)
    if victim is None:
        result = ex.sql(sql, options=options)
    else:
        with inject(FaultInjector([kill_shard(victim)])):
            result = ex.sql(sql, options=options)
        assert result.is_degraded
    return {
        alias: (result.table[alias], result.ci_low[alias], result.ci_high[alias])
        for alias in result.ci_low
    }


_SCENARIOS = {
    "served": {},
    "killed": {"victim": VICTIM},
    "deadline": {"deadline": Deadline(3600.0)},
}
_AGGREGATES = {
    "sum": "SUM(v)",
    "count": "COUNT(*)",
    "avg": "AVG(v)",
}


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
@pytest.mark.parametrize("agg", sorted(_AGGREGATES))
@pytest.mark.parametrize("technique", ["exact", "ola", "sample"])
def test_gather_matches_reference(sharded, technique, agg, scenario):
    sql = f"SELECT {_AGGREGATES[agg]} AS x FROM events WHERE v > 5"
    kwargs = dict(_SCENARIOS[scenario], seed=11)
    got = _served(sharded, sql, technique, **kwargs)
    want = _reference(sharded, sql, technique, **kwargs)
    assert got.keys() == want.keys() == {"x"}
    for g, w in zip(got["x"], want["x"]):
        if technique == "exact":
            np.testing.assert_array_equal(g, w)
        else:
            # ~240 matched rows of each 400-row sample; the OLA shards
            # sample 72 blocks in all (62 with shard 5 killed, every
            # block under the deadline)
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_grouped_exact_gather_matches_reference(sharded, scenario):
    sql = (
        "SELECT k, SUM(v) AS s, COUNT(*) AS c, AVG(v) AS a "
        "FROM events WHERE v > 8 GROUP BY k"
    )
    got = _served(sharded, sql, "exact", **_SCENARIOS[scenario])
    want = _reference(sharded, sql, "exact", **_SCENARIOS[scenario])
    assert got.keys() == want.keys() == {"s", "c", "a"}
    for alias in want:
        for g, w in zip(got[alias], want[alias]):
            np.testing.assert_array_equal(g, w)


def test_few_matched_rows_read_the_merged_count(sharded):
    """Each shard's sample holds 27–42 rows with ``v > 25`` (259 in all)
    and 0–4 with ``v > 60`` (13 in all). The earlier gather took each
    shard's own t quantile, and a shard with at most one matched row made
    the COUNT unbounded; the merged rows now choose z. Every interval
    below covers the truth (337 rows, mean 35.92, 14 rows)."""
    cases = {
        "SELECT COUNT(*) AS x FROM events WHERE v > 25": (
            (331.69, 311.91443340581924, 351.46556659418087),
            (331.69, 312.67575686817656, 350.70424313182355),
        ),
        "SELECT AVG(v) AS x FROM events WHERE v > 25": (
            (35.843875176773224, 31.731566424325752, 40.47762972896701),
            (35.843875176773224, 31.88065712463601, 40.28911071809838),
        ),
        "SELECT COUNT(*) AS x FROM events WHERE v > 60": (
            (16.63, 0.0, np.inf),
            (16.63, 11.90647147056698, 21.353528529433017),
        ),
    }
    for sql, (old, new) in cases.items():
        want = _reference(sharded, sql, "sample")["x"]
        got = _served(sharded, sql, "sample")["x"]
        np.testing.assert_allclose(
            [float(a[0]) for a in want], old, rtol=1e-9, err_msg=sql
        )
        np.testing.assert_allclose(
            [float(a[0]) for a in got], new, rtol=1e-9, err_msg=sql
        )


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_ola_serves_several_aggregates_in_one_statement(sharded, scenario):
    """One statement's SUM, COUNT and AVG come from the same per-shard
    prefixes: each equals its single-aggregate reference and covers the
    truth."""
    where = "FROM events WHERE v > 5"
    kwargs = dict(_SCENARIOS[scenario], seed=11)
    got = _served(
        sharded,
        f"SELECT SUM(v) AS s, COUNT(*) AS c, AVG(v) AS a {where}",
        "ola",
        **kwargs,
    )
    v = np.asarray(sharded.whole_table()["v"])
    v = v[v > 5]
    truths = {"s": v.sum(), "c": float(len(v)), "a": v.mean()}
    for alias, agg in (("s", "SUM(v)"), ("c", "COUNT(*)"), ("a", "AVG(v)")):
        want = _reference(sharded, f"SELECT {agg} AS x {where}", "ola", **kwargs)
        for g, w in zip(got[alias], want["x"]):
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=0.0, err_msg=alias)
        _value, low, high = (float(x[0]) for x in got[alias])
        assert low <= truths[alias] <= high, alias


def test_a_census_shard_adds_no_degrees_of_freedom():
    """Range shards of 160 and 640 rows in 16-row blocks: the first (10
    full blocks, under the floor of 14) is read whole, the second is an
    SRS of 12 of its 40 blocks. The census adds no sampling variance, so
    the t rule reads the 12 sampled blocks (11 degrees of freedom), not
    the census's 160 rows on top of them, which would pick z."""
    rng = np.random.default_rng(3)
    k = np.repeat([0, 1], [160, 640])
    table = Table(
        {"v": rng.exponential(10.0, len(k)), "k": k},
        name="events",
        block_size=16,
    )
    sharded = ShardedTable.from_table(table, 2, by="range", key="k")
    assert [s.table.num_rows for s in sharded.shards] == [160, 640]
    sql = "SELECT SUM(v) AS x FROM events WHERE v > 5"
    got = _served(sharded, sql, "ola", seed=11)["x"]
    want = _reference(sharded, sql, "ola", seed=11)["x"]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    bound = bind_sql(sql, sharded.binder_database())
    prepared = _reference_chain(bound)
    census, sampled = (
        _ola_reference(sharded, s, bound, prepared, 11, None)
        for s in sharded.shards
    )
    assert (census.units, sampled.units) == (0, 12)
    (aggregate,) = bound.aggregates
    _total, variance = sampled.pieces[aggregate.alias]
    half = (float(got[2][0]) - float(got[1][0])) / 2.0
    t_11 = student_t_ppf(0.5 + SPEC.confidence / 2.0, 11)
    assert half == pytest.approx(t_11 * np.sqrt(variance), rel=1e-9)
