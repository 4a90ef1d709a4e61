"""Shared estimation machinery for the sampling planners.

Every sampled answer reduces to a *moment table*: per group, its key
columns and, per SUM/COUNT piece ``p`` of :func:`expanded_aggregates`,
the estimated total ``p``, its variance ``p__var`` and the rows (or
blocks) behind it, ``__rows``. :func:`piece_intervals` turns that into
value + CI per piece and :func:`combine_intervals` per user aggregate
(the shard gather adds its missing-shard widening in between), and
:func:`project_output_with_intervals` carries those through the SELECT
list with interval arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec, student_t_ppf, z_value
from ..core.exceptions import PlanError, UnsupportedQueryError
from ..engine import expressions as E
from ..engine.aggregates import (
    ROWS_COLUMN,
    AggregateSpec,
    encode_groups_arrays,
    expanded_aggregates,
)
from ..engine import fused
from ..engine.kernel_cache import get_kernel_cache
from ..engine.plan import Filter, GroupByAggregate, PlanNode, Scan
from ..engine.table import Table
from ..sql.binder import BoundQuery
from ..storage.blocks import WEIGHT_COLUMN

#: Tables smaller than this are never sampled by a query-time technique:
#: sampling overhead beats the savings ("only sample big scanned tables").
MIN_SAMPLABLE_ROWS = 10_000

#: Groups with fewer rows (or blocks) than this get Student's t.
SMALL_SAMPLE = 100

VARIANCE_SUFFIX = "__var"


def require_linear_aggregates(
    bound: BoundQuery, not_aggregate: str, nonlinear: str
) -> None:
    """The entry check of every sampling technique: an aggregate query
    whose aggregates are all linear (SUM/COUNT/AVG), else a refusal in
    the technique's own words (``nonlinear`` may name ``{func}``)."""
    if not bound.is_aggregate:
        raise UnsupportedQueryError(not_aggregate)
    for agg in bound.aggregates:
        if not agg.is_linear:
            raise UnsupportedQueryError(nonlinear.format(func=agg.func.upper()))


def group_columns_on(bound: BoundQuery, alias: str) -> Optional[List[str]]:
    """Raw column names of the group keys when every one is a bare
    column of the table aliased ``alias`` (``[]`` without GROUP BY);
    ``None`` when some key is an expression or another table's column —
    group-aware samplers and stratified samples do not apply then."""
    prefix = f"{alias}."
    raw: List[str] = []
    for expr, _ in bound.group_keys:
        if not isinstance(expr, E.Column) or not expr.name.startswith(prefix):
            return None
        raw.append(expr.name[len(prefix):])
    return raw


def moment_aggregate(
    bound: BoundQuery, child: PlanNode, weight_column: str
) -> GroupByAggregate:
    """The moment table of ``bound`` over a row-weighted ``child`` whose
    ``weight_column`` holds each row's ``w = 1/π``: per piece, the HT
    total ``SUM(w·y)`` and its variance estimate ``SUM(w·(w−1)·y²)``
    (``y = 1`` for COUNT) — valid for every Poisson design (uniform,
    distinct, stratified, measure-biased) and additive across rows."""
    w = E.Column(weight_column)
    var_w = E.BinaryOp("*", w, E.BinaryOp("-", w, E.Literal(1.0)))
    specs: List[AggregateSpec] = []
    for piece in expanded_aggregates(bound):
        total, variance = w, var_w
        if piece.func != "count":
            y = piece.argument
            total = E.BinaryOp("*", w, y)
            variance = E.BinaryOp("*", E.BinaryOp("*", var_w, y), y)
        specs.append(AggregateSpec("sum", total, piece.alias))
        specs.append(AggregateSpec("sum", variance, piece.alias + VARIANCE_SUFFIX))
    specs.append(AggregateSpec("count", None, ROWS_COLUMN))
    return GroupByAggregate(
        child=child, keys=tuple(bound.group_keys), aggregates=tuple(specs)
    )


#: Source of the in-memory moment fold; prepared kernels read only the
#: chain's expressions, so a placeholder scan keys the kernel cache.
_RELATION = Scan(table_name="<relation>")


def estimate_groups_row_level(
    bound: BoundQuery,
    relation,
    weights: np.ndarray,
    where: Optional[E.Expression] = None,
) -> Table:
    """The moment table of a row-weighted in-memory ``relation`` (under
    the query's qualified names), with ``where`` as the fold's filter:
    one pass of the cached :func:`moment_aggregate` kernels, reading
    only the columns the predicate, keys and aggregates reference."""
    getters = {
        name: (lambda name=name: relation[name]) for name in relation.column_names
    }
    getters[WEIGHT_COLUMN] = lambda: np.asarray(weights, dtype=np.float64)
    node = _RELATION if where is None else Filter(_RELATION, where)
    chain = fused.extract_chain(moment_aggregate(bound, node, WEIGHT_COLUMN))
    prepared = get_kernel_cache().get_or_compile(
        ("moments", fused.chain_signature(chain)), lambda: fused.compile_chain(chain)
    )
    rel = fused.apply_steps(
        prepared.steps, fused.LazyRelation(getters, relation.num_rows)
    )
    return fused.run_prepared_aggregate(prepared, rel)


def estimate_groups_from_blocks(
    bound: BoundQuery,
    per_block: Table,
    rate: float,
    sampled_blocks: int,
    total_blocks: int,
    expanded_aggs: Sequence[AggregateSpec],
) -> Table:
    """The moment table of a Bernoulli block sample.

    Conditional on the number ``m`` of blocks a Bernoulli sampler drew,
    those blocks are an SRS of the ``B`` blocks, so each total is
    estimated as ``B · mean(t_b)`` with the SRS variance
    ``B² (1−m/B) s²/m`` over per-block contributions ``t_b`` — computed
    *per group*, counting sampled blocks where the group was absent as
    zeros (forgetting the zeros is the classic way to bias block-sample
    estimates): a group's ``Σt`` and ``Σt²`` are ``bincount``s over its
    per-(group, block) rows, to which absent blocks add nothing.
    """
    key_aliases = [alias for _, alias in bound.group_keys]
    cols: Dict[str, np.ndarray] = {}
    gids = np.zeros(per_block.num_rows, dtype=np.int64)
    if key_aliases:
        gids, keys = encode_groups_arrays([per_block[a] for a in key_aliases])
        cols.update(zip(key_aliases, keys))
    num_groups = int(gids.max()) + 1 if len(gids) else 0
    m = max(sampled_blocks, 1)
    fpc = max(1.0 - m / total_blocks, 0.0) if total_blocks else 1.0
    cols[ROWS_COLUMN] = np.full(num_groups, m)
    for spec in expanded_aggs:
        t = np.asarray(per_block[spec.alias], dtype=np.float64)
        mean = np.bincount(gids, weights=t, minlength=num_groups) / m
        s2 = np.bincount(gids, weights=t * t, minlength=num_groups)
        var_blocks = np.maximum(s2 / m - mean * mean, 0.0)
        if m > 1:
            var_blocks *= m / (m - 1)
        cols[spec.alias] = total_blocks * mean
        cols[spec.alias + VARIANCE_SUFFIX] = (
            total_blocks * total_blocks * fpc * var_blocks / m
        )
    return Table(cols)


def piece_intervals(
    bound: BoundQuery, moments: Table, confidence: float
) -> Dict[str, "_Interval"]:
    """Value and two-sided CI per group of every SUM/COUNT piece of a
    moment table.

    A piece is its total ± critical value × standard error: Student's t
    with ``rows − 1`` degrees of freedom for groups under
    :data:`SMALL_SAMPLE` rows (one quantile per distinct size), the
    normal quantile otherwise, unbounded for one row or fewer. A piece
    without a ``p__var`` column (an exact partial) is its total with a
    zero-width interval.
    """
    sizes = np.asarray(moments[ROWS_COLUMN], dtype=np.int64)
    crit = np.full(len(sizes), z_value(confidence))
    small = sizes < SMALL_SAMPLE
    if small.any():
        t_crit = np.zeros(SMALL_SAMPLE)
        for size in set(sizes[small].tolist()) - {0, 1}:
            t_crit[size] = student_t_ppf(0.5 + confidence / 2.0, size - 1)
        crit[small] = t_crit[sizes[small]]
    unbounded = sizes <= 1
    out: Dict[str, _Interval] = {}
    for piece in expanded_aggregates(bound):
        total = np.asarray(moments[piece.alias], dtype=np.float64)
        half = 0.0
        if piece.alias + VARIANCE_SUFFIX in moments:
            variance = moments[piece.alias + VARIANCE_SUFFIX]
            std = np.sqrt(np.maximum(variance, 0.0))
            half = np.where(unbounded, np.inf, crit * std)
        out[piece.alias] = _Interval(total, total - half, total + half)
    return out


def combine_intervals(
    bound: BoundQuery, pieces: Dict[str, "_Interval"]
) -> Dict[str, "_Interval"]:
    """Value and CI per user aggregate from its pieces' intervals.

    SUM and COUNT are their piece. AVG is SUM/COUNT with the conservative
    interval quotient (counts are positive): NaN where the COUNT is 0,
    unbounded where the COUNT's interval reaches 0.
    """
    out: Dict[str, _Interval] = {}
    for agg in bound.aggregates:
        if agg.func in ("sum", "count"):
            out[agg.alias] = pieces[f"{agg.alias}__{agg.func}"]
            continue
        if agg.func != "avg":
            raise PlanError(f"cannot combine aggregate {agg.func!r}")
        s = pieces[f"{agg.alias}__sum"]
        c = pieces[f"{agg.alias}__count"]
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.where(c.value == 0, np.nan, s.value / c.value)
            a, b = s.low / c.low, s.low / c.high
            d, e = s.high / c.low, s.high / c.high
        open_ = c.low <= 0
        low = np.where(open_, -np.inf, np.minimum(np.minimum(a, b), np.minimum(d, e)))
        high = np.where(open_, np.inf, np.maximum(np.maximum(a, b), np.maximum(d, e)))
        out[agg.alias] = _Interval(value, low, high)
    return out


# ----------------------------------------------------------------------
# Interval arithmetic over output expressions
# ----------------------------------------------------------------------

class _Interval:
    """Vectorized (value, low, high) triple."""

    __slots__ = ("value", "low", "high")

    def __init__(self, value, low, high) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.low = np.asarray(low, dtype=np.float64)
        self.high = np.asarray(high, dtype=np.float64)


def _interval_eval(
    expr: E.Expression,
    columns: Dict[str, _Interval],
    n: int,
) -> _Interval:
    if isinstance(expr, E.Column):
        if expr.name not in columns:
            raise PlanError(f"no interval column {expr.name!r}")
        return columns[expr.name]
    if isinstance(expr, E.Literal):
        v = np.full(n, float(expr.value))
        return _Interval(v, v, v)
    if isinstance(expr, E.UnaryOp):
        inner = _interval_eval(expr.operand, columns, n)
        return _Interval(-inner.value, -inner.high, -inner.low)
    if isinstance(expr, E.BinaryOp):
        a = _interval_eval(expr.left, columns, n)
        b = _interval_eval(expr.right, columns, n)
        if expr.op == "+":
            return _Interval(a.value + b.value, a.low + b.low, a.high + b.high)
        if expr.op == "-":
            return _Interval(a.value - b.value, a.low - b.high, a.high - b.low)
        if expr.op == "*":
            prods = np.stack(
                [a.low * b.low, a.low * b.high, a.high * b.low, a.high * b.high]
            )
            return _Interval(
                a.value * b.value, prods.min(axis=0), prods.max(axis=0)
            )
        if expr.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                value = np.where(b.value != 0, a.value / np.where(b.value == 0, 1, b.value), np.nan)
                crosses_zero = (b.low <= 0) & (b.high >= 0)
                quots = np.stack(
                    [a.low / b.low, a.low / b.high, a.high / b.low, a.high / b.high]
                )
                # fmin/fmax skip NaN quotients without warning when
                # every quotient of a cell is NaN (no sampled row matched)
                low = np.where(crosses_zero, -np.inf, np.fmin.reduce(quots, axis=0))
                high = np.where(crosses_zero, np.inf, np.fmax.reduce(quots, axis=0))
            return _Interval(value, low, high)
    raise PlanError(
        f"expression {expr!r} is not supported in approximate SELECT lists"
    )


def project_output_with_intervals(
    bound: BoundQuery,
    spec: ErrorSpec,
    moments: Table,
) -> Tuple[Table, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Build the user-facing result table plus CI dictionaries.

    The per-cell reporting confidence is the union-bound split of the
    user's confidence across all (group × simple-aggregate) cells, which
    matches how the planner budgeted stage-2 failure probability.
    """
    n = moments.num_rows
    num_cells = max(n * max(len(bound.aggregates), 1), 1)
    cell_conf = 1.0 - spec.failure_probability / 2.0 / num_cells
    cell_conf = min(max(cell_conf, 0.5), 1 - 1e-12)
    agg_columns = combine_intervals(
        bound, piece_intervals(bound, moments, cell_conf)
    )
    key_aliases = [alias for _, alias in bound.group_keys]
    key_arrays = {alias: moments[alias] for alias in key_aliases}

    out_cols: Dict[str, np.ndarray] = {}
    ci_low: Dict[str, np.ndarray] = {}
    ci_high: Dict[str, np.ndarray] = {}
    for expr, alias in bound.output_items:
        referenced = expr.columns()
        if referenced and referenced <= set(key_aliases):
            # Pure group-key output: evaluate on the key table.
            key_table = Table(key_arrays)
            out_cols[alias] = expr.evaluate(key_table)
            continue
        interval = _interval_eval(expr, agg_columns, n)
        out_cols[alias] = interval.value
        ci_low[alias] = interval.low
        ci_high[alias] = interval.high

    table = Table(out_cols, name="approximate")

    # HAVING / ORDER BY / LIMIT applied on point estimates, with CI arrays
    # kept aligned through the same row selection.
    selector = np.arange(table.num_rows)
    if bound.having is not None:
        view = {alias: interval.value for alias, interval in agg_columns.items()}
        mask = bound.having.evaluate(Table({**view, **key_arrays}))
        selector = selector[np.asarray(mask, dtype=bool)]
    if bound.order_by:
        sub = table.take(selector)
        order = _order_indices(sub, bound.order_by)
        selector = selector[order]
    if bound.limit is not None:
        selector = selector[: bound.limit]
    if len(selector) != table.num_rows or not np.array_equal(
        selector, np.arange(table.num_rows)
    ):
        table = table.take(selector)
        ci_low = {k: v[selector] for k, v in ci_low.items()}
        ci_high = {k: v[selector] for k, v in ci_high.items()}
    return table, ci_low, ci_high


def _order_indices(table: Table, items: List[Tuple[str, bool]]) -> np.ndarray:
    keys = []
    for name, ascending in reversed(items):
        arr = table[name]
        if arr.dtype == object:
            _, arr = np.unique(arr, return_inverse=True)
        arr = np.asarray(arr, dtype=np.float64)
        keys.append(arr if ascending else -arr)
    return np.lexsort(tuple(keys))
