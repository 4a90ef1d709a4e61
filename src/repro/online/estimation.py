"""Shared estimation machinery for the online planners.

Turns per-(group, block) sub-aggregate rows into per-group estimates with
block-correct variances, then projects the user's SELECT expressions with
interval arithmetic so composite aggregates get (conservative) confidence
intervals consistent with the error-propagation rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec, z_value
from ..core.exceptions import PlanError, UnsupportedQueryError
from ..engine import expressions as E
from ..engine.aggregates import AggregateSpec, encode_groups
from ..engine.table import Table
from ..estimators.closed_form import Estimate
from ..sql.binder import BoundQuery

#: Tables smaller than this are never sampled by a query-time technique:
#: sampling overhead beats the savings ("only sample big scanned tables").
MIN_SAMPLABLE_ROWS = 10_000


@dataclass
class GroupEstimates:
    """Estimates of all simple aggregates for one group."""

    key: Tuple
    simple: Dict[str, Estimate] = field(default_factory=dict)


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


def expanded_aggregates(bound: BoundQuery) -> List[AggregateSpec]:
    """The simple SUM/COUNT pieces each user aggregate decomposes into.

    AVG(x) becomes SUM(x) + COUNT(*); SUM/COUNT pass through. Aliases are
    suffixed so all planners and estimators agree on names.
    """
    out: List[AggregateSpec] = []
    seen = set()
    for agg in bound.aggregates:
        if agg.func == "sum":
            pieces = [("sum", agg.argument, f"{agg.alias}__sum")]
        elif agg.func == "count":
            pieces = [("count", None, f"{agg.alias}__count")]
        else:  # avg
            pieces = [
                ("sum", agg.argument, f"{agg.alias}__sum"),
                ("count", None, f"{agg.alias}__count"),
            ]
        for func, arg, alias in pieces:
            if alias not in seen:
                seen.add(alias)
                out.append(AggregateSpec(func=func, argument=arg, alias=alias))
    return out


def estimate_groups_row_level(
    bound: BoundQuery,
    pre_agg: Table,
    weights: np.ndarray,
) -> List[GroupEstimates]:
    """Per-group HT estimates from a row-weighted sample relation.

    For Poisson designs with weight ``w = 1/π`` the HT total of y is
    ``Σ w·y`` with variance estimate ``Σ w(w-1)·y²`` — valid for uniform,
    distinct and measure-biased samplers alike.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = pre_agg.num_rows
    if bound.group_keys:
        key_arrays = [expr.evaluate(pre_agg) for expr, _ in bound.group_keys]
        gids, key_tuples = encode_groups(key_arrays)
    else:
        gids = np.zeros(n, dtype=np.int64)
        key_tuples = [()]
    num_groups = len(key_tuples)
    counts = np.bincount(gids, minlength=num_groups).tolist()
    var_weights = weights * (weights - 1.0)
    out = [GroupEstimates(key=key) for key in key_tuples]
    for spec_ in expanded_aggregates(bound):
        if spec_.func == "count":
            wy, wy2 = weights, var_weights
        else:
            y = np.asarray(spec_.argument.evaluate(pre_agg), dtype=np.float64)
            wy = weights * y
            wy2 = var_weights * y * y
        totals = np.bincount(gids, weights=wy, minlength=num_groups).tolist()
        variances = np.bincount(gids, weights=wy2, minlength=num_groups).tolist()
        for ge, total, variance, count in zip(out, totals, variances, counts):
            ge.simple[spec_.alias] = Estimate(
                total, variance, count, estimator="row_ht"
            )
    return out


def estimate_groups_from_blocks(
    bound: BoundQuery,
    per_block: Table,
    rate: float,
    sampled_blocks: int,
    total_blocks: int,
    expanded_aggs: Sequence[AggregateSpec],
) -> List[GroupEstimates]:
    """Per-group HT estimates from Bernoulli block sampling.

    Conditional on the number ``m`` of blocks a Bernoulli sampler drew,
    those blocks are an SRS of the ``B`` blocks, so each total is
    estimated as ``B · mean(t_b)`` with the SRS variance
    ``B² (1−m/B) s²/m`` over per-block contributions ``t_b`` — computed
    *per group*, counting sampled blocks where the group was absent as
    zeros (forgetting the zeros is the classic way to bias block-sample
    estimates).
    """
    key_aliases = [alias for _, alias in bound.group_keys]
    out: List[GroupEstimates] = []
    if per_block.num_rows == 0:
        return out
    if key_aliases:
        gids, key_tuples = encode_groups([per_block[a] for a in key_aliases])
    else:
        gids = np.zeros(per_block.num_rows, dtype=np.int64)
        key_tuples = [()]
    m = max(sampled_blocks, 1)
    for gi, key in enumerate(key_tuples):
        ge = GroupEstimates(key=key)
        mask = gids == gi
        for spec in expanded_aggs:
            t = np.asarray(per_block[spec.alias], dtype=np.float64)[mask]
            # Mean-of-blocks (self-normalized) estimator over the m drawn
            # blocks, zero-padding blocks where the group was absent.
            s1 = float(np.sum(t))
            s2 = float(np.sum(t * t))
            mean = s1 / m
            var_blocks = max(s2 / m - mean * mean, 0.0)
            if m > 1:
                var_blocks *= m / (m - 1)
            total = total_blocks * mean
            fpc = max(1.0 - m / total_blocks, 0.0) if total_blocks else 1.0
            variance = total_blocks * total_blocks * fpc * var_blocks / m
            ge.simple[spec.alias] = Estimate(
                total, variance, m, estimator="block_mean"
            )
        out.append(ge)
    return out


def combine_user_aggregate(
    agg: AggregateSpec, simple: Dict[str, Estimate], confidence: float
) -> Tuple[float, float, float]:
    """(value, ci_low, ci_high) of one user aggregate from its pieces."""
    if agg.func == "sum":
        est = simple[f"{agg.alias}__sum"]
        lo, hi = est.ci(confidence)
        return est.value, lo, hi
    if agg.func == "count":
        est = simple[f"{agg.alias}__count"]
        lo, hi = est.ci(confidence)
        return est.value, lo, hi
    if agg.func == "avg":
        s = simple[f"{agg.alias}__sum"]
        c = simple[f"{agg.alias}__count"]
        if c.value == 0:
            return math.nan, -math.inf, math.inf
        value = s.value / c.value
        s_lo, s_hi = s.ci(confidence)
        c_lo, c_hi = c.ci(confidence)
        # Conservative interval quotient (counts are positive).
        if c_lo <= 0:
            return value, -math.inf, math.inf
        candidates = [s_lo / c_lo, s_lo / c_hi, s_hi / c_lo, s_hi / c_hi]
        return value, min(candidates), max(candidates)
    raise PlanError(f"cannot combine aggregate {agg.func!r}")


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
                low = np.where(crosses_zero, -np.inf, np.nanmin(quots, axis=0))
                high = np.where(crosses_zero, np.inf, np.nanmax(quots, axis=0))
            return _Interval(value, low, high)
    raise PlanError(
        f"expression {expr!r} is not supported in approximate SELECT lists"
    )


def project_output_with_intervals(
    bound: BoundQuery,
    spec: ErrorSpec,
    estimates: List[GroupEstimates],
) -> Tuple[Table, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Build the user-facing result table plus CI dictionaries.

    The per-cell reporting confidence is the union-bound split of the
    user's confidence across all (group × simple-aggregate) cells, which
    matches how the planner budgeted stage-2 failure probability.
    """
    n = len(estimates)
    num_cells = max(n * max(len(bound.aggregates), 1), 1)
    cell_conf = 1.0 - spec.failure_probability / 2.0 / num_cells
    cell_conf = min(max(cell_conf, 0.5), 1 - 1e-12)

    # Per-user-aggregate interval columns.
    agg_columns: Dict[str, _Interval] = {}
    for agg in bound.aggregates:
        vals = np.empty(n)
        lows = np.empty(n)
        highs = np.empty(n)
        for i, ge in enumerate(estimates):
            vals[i], lows[i], highs[i] = combine_user_aggregate(
                agg, ge.simple, cell_conf
            )
        agg_columns[agg.alias] = _Interval(vals, lows, highs)

    # Group-key passthrough columns.
    key_aliases = [alias for _, alias in bound.group_keys]
    key_arrays: Dict[str, np.ndarray] = {}
    for pos, alias in enumerate(key_aliases):
        values = [ge.key[pos] for ge in estimates]
        key_arrays[alias] = np.asarray(values)

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
        mask = np.asarray(bound.having.evaluate(_having_view(bound, table, agg_columns, key_arrays)), dtype=bool)
        selector = selector[mask]
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


def _having_view(
    bound: BoundQuery,
    table: Table,
    agg_columns: Dict[str, _Interval],
    key_arrays: Dict[str, np.ndarray],
) -> Table:
    """Table over which HAVING can be evaluated: agg aliases + key aliases."""
    cols: Dict[str, np.ndarray] = {}
    for alias, interval in agg_columns.items():
        cols[alias] = interval.value
    cols.update(key_arrays)
    return Table(cols)


def _order_indices(table: Table, items: List[Tuple[str, bool]]) -> np.ndarray:
    keys = []
    for name, ascending in reversed(items):
        arr = table[name]
        if arr.dtype == object:
            _, arr = np.unique(arr, return_inverse=True)
        arr = np.asarray(arr, dtype=np.float64)
        keys.append(arr if ascending else -arr)
    return np.lexsort(tuple(keys))
