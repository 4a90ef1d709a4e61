"""The shard gather over moment tables against the gather it replaced.

Shards hand back moment tables (per piece: total, ``__var``, ``__rows``)
and the gather takes its intervals from
:func:`~repro.online.estimation.piece_intervals` /
:func:`~repro.online.estimation.combine_intervals`. The reference below
is the earlier gather: per-shard partials carrying each estimate's
*squared* CI half-width (``__hw2``, each shard choosing its own t or z),
summed across shards, then widened and divided for AVG cell by cell. Exact answers must agree bitwise; sampled answers
to 1e-9 relative wherever every shard contributes ≥ 100 rows. Where a
shard contributes fewer, the critical value is now read on the merged
rows; that change is pinned with both intervals written down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errorspec import ErrorSpec
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
from repro.estimators.horvitz_thompson import ht_count, ht_total
from repro.offline.catalog import SynopsisCatalog
from repro.online.ola import fixed_stop_snapshot
from repro.resilience import Deadline, FaultInjector, inject, kill_shard
from repro.sharding import ScatterGatherExecutor, ShardedTable, merge_partial_tables
from repro.sql import bind_sql

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
        block_size=256,
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


def _reference_partial(sharded, shard, bound, prepared, technique, seed, blocks, deadline):
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
    agg = bound.aggregates[0] if technique == "ola" else None
    if technique == "ola":
        first = "count" if agg.func == "count" else "sum"
        ola, snap = fixed_stop_snapshot(
            prepared,
            SliceRelation(table, 0, table.num_rows, rename),
            agg=first,
            confidence=SPEC.confidence,
            seed=int(
                np.random.SeedSequence([seed, shard.shard_id]).generate_state(1)[0]
            ),
            batch_size=max(256, table.num_rows // 20),
            deadline=deadline,
        )
        estimates = {}
        if first == "sum":
            estimates[agg.alias] = (snap.value, snap.ci_low, snap.ci_high)
        if agg.func != "sum":
            count = snap if first == "count" else ola.snapshot(
                snap.rows_seen, agg="count"
            )
            estimates[_COUNT] = (count.value, count.ci_low, count.ci_high)
        return _estimate_row(estimates, ola.matched_rows)
    catalog = SynopsisCatalog.for_database(sharded.binder_database())
    sample = catalog.find_sample(
        sharded.name, require_fresh=False, shard=shard.shard_id
    ).sample
    mask = filter_mask(
        prepared, SliceRelation(sample.table, 0, sample.num_rows, rename)
    )
    keep = np.ones(sample.num_rows, dtype=bool) if mask is None else mask
    pi = 1.0 / np.maximum(sample.weights[keep], 1e-300)
    count = ht_count(pi)
    estimates = {_COUNT: (count.value, *count.ci(SPEC.confidence))}
    for agg in bound.aggregates:
        if agg.func == "count":
            continue
        if not keep.any():
            estimates[agg.alias] = (0.0, 0.0, 0.0)
        else:
            column = agg.argument.name.split(".", 1)[1]
            est = ht_total(np.asarray(sample.table[column])[keep], pi)
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
    keys = tuple(a for _, a in bound.group_keys)
    merged = merge_partial_tables(
        [
            _reference_partial(
                sharded, s, bound, prepared, technique, seed, blocks, deadline
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
            # every shard reads ≥ 100 rows here: 153-row OLA prefixes,
            # ~240 matched rows of each 400-row sample
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
