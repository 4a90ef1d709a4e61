"""Rule-based logical optimizer.

Three rewrites are applied, in order:

1. **Predicate pushdown** — filter conjuncts move below projections and
   joins toward the scans whose columns they reference. Besides being a
   standard optimization, this interacts with sampling: a predicate pushed
   *below* a sampler filters the sample exactly as it would filter the
   table (the selection/sampling commutativity every sampling-based AQP
   scheme relies on), so pushdown never changes estimate distributions.
2. **Join input ordering** — the smaller estimated input becomes the hash
   build side.
3. **Projection pruning** — scans load only the columns the rest of the
   plan needs, mirroring columnar execution.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Set, Tuple

from ..core.exceptions import PlanError
from .expressions import Expression, combine_conjuncts, conjuncts
from .plan import (
    Filter,
    GroupByAggregate,
    HashJoin,
    Limit,
    OrderBy,
    PlanNode,
    Project,
    Scan,
    UnionAll,
    transform_plan,
)


def optimize_plan(plan: PlanNode, database) -> PlanNode:
    """Apply all rewrite rules."""
    from ..obs.trace import span

    with span("optimize"):
        plan = push_down_with_catalog(plan, database)
        plan = order_join_inputs(plan, database)
        plan = prune_scan_columns(plan, database)
        return plan


# ----------------------------------------------------------------------
# Output-column inference
# ----------------------------------------------------------------------

def output_columns(node: PlanNode, database) -> Set[str]:
    """Column names produced by a plan node."""
    if isinstance(node, Scan):
        table = database.table(node.table_name)
        names = (
            list(node.columns) if node.columns is not None else table.column_names
        )
        if node.alias is not None:
            return {f"{node.alias}.{n}" for n in names}
        return set(names)
    if isinstance(node, Filter):
        return output_columns(node.child, database)
    if isinstance(node, Project):
        return {alias for _, alias in node.items}
    if isinstance(node, HashJoin):
        left = output_columns(node.left, database)
        right = output_columns(node.right, database)
        merged = set(left)
        for name in right:
            merged.add(name if name not in merged else f"{name}__r")
        return merged
    if isinstance(node, GroupByAggregate):
        names = {alias for _, alias in node.keys}
        names |= {spec.alias for spec in node.aggregates}
        return names
    if isinstance(node, (OrderBy, Limit)):
        return output_columns(node.child, database)
    if isinstance(node, UnionAll):
        return output_columns(node.inputs[0], database)
    raise PlanError(f"unknown node {type(node).__name__}")


# ----------------------------------------------------------------------
# Rule 1: predicate pushdown
# ----------------------------------------------------------------------

def push_down_predicates(plan: PlanNode) -> PlanNode:
    def rewrite(node: PlanNode) -> Optional[PlanNode]:
        if not isinstance(node, Filter):
            return None
        remaining: List[Expression] = []
        child = node.child
        for conj in conjuncts(node.predicate):
            pushed = _try_push(child, conj)
            if pushed is not None:
                child = pushed
            else:
                remaining.append(conj)
        pred = combine_conjuncts(remaining)
        if pred is None:
            return child
        if child is node.child and len(remaining) == len(conjuncts(node.predicate)):
            return None  # nothing changed
        return Filter(child, pred)

    # Apply top-down repeatedly until fixpoint (pushdowns may cascade).
    for _ in range(8):
        new_plan = transform_plan(plan, rewrite)
        if new_plan is plan:
            break
        plan = new_plan
    return plan


def _try_push(node: PlanNode, predicate: Expression) -> Optional[PlanNode]:
    """Push one conjunct into ``node`` if its columns are available below.

    Returns the rewritten node, or None if it cannot descend.
    """
    needed = predicate.columns()
    if isinstance(node, Scan):
        # Predicate sits directly above the scan (and above its sampler,
        # which is statistically equivalent to below it for Bernoulli
        # samplers — selection commutes with sampling).
        return Filter(node, predicate)
    if isinstance(node, Filter):
        deeper = _try_push(node.child, predicate)
        if deeper is not None:
            return Filter(deeper, node.predicate)
        return Filter(node, predicate)
    if isinstance(node, HashJoin):
        left_cols = _available_columns(node.left)
        right_cols = _available_columns(node.right)
        if left_cols is not None and needed <= left_cols:
            deeper = _try_push(node.left, predicate)
            if deeper is not None:
                return replace(node, left=deeper)
        if right_cols is not None and needed <= right_cols:
            deeper = _try_push(node.right, predicate)
            if deeper is not None:
                return replace(node, right=deeper)
        return None
    if isinstance(node, Project):
        # Only push through if the predicate references pass-through columns.
        passthrough = {
            alias
            for expr, alias in node.items
            if _is_simple_column(expr) and expr.name == alias  # type: ignore[attr-defined]
        }
        if needed <= passthrough:
            deeper = _try_push(node.child, predicate)
            if deeper is not None:
                return replace(node, child=deeper)
        return None
    return None


def _is_simple_column(expr: Expression) -> bool:
    from .expressions import Column

    return isinstance(expr, Column)


def _available_columns(node: PlanNode) -> Optional[Set[str]]:
    """Columns a subtree can expose, or None if unknown (stop pushdown)."""
    if isinstance(node, Scan):
        # Without a database handle we cannot enumerate unpruned scans, but
        # qualified scans advertise their prefix so prefix-matching works.
        if node.columns is not None:
            names = set(node.columns)
            if node.alias is not None:
                names = {f"{node.alias}.{n}" for n in names}
            return names
        return None
    if isinstance(node, Filter):
        return _available_columns(node.child)
    if isinstance(node, Project):
        return {alias for _, alias in node.items}
    if isinstance(node, HashJoin):
        left = _available_columns(node.left)
        right = _available_columns(node.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(node, GroupByAggregate):
        return {alias for _, alias in node.keys} | {
            spec.alias for spec in node.aggregates
        }
    if isinstance(node, (OrderBy, Limit)):
        return _available_columns(node.child)
    return None


# ----------------------------------------------------------------------
# Rule 1b: pushdown with catalog knowledge (column sets known at scans)
# ----------------------------------------------------------------------

def push_down_with_catalog(plan: PlanNode, database) -> PlanNode:
    """Pushdown variant that can see through unpruned scans.

    The SQL binder calls this after binding, when scans do not yet carry
    explicit column lists.
    """

    def annotate(node: PlanNode) -> Optional[PlanNode]:
        if isinstance(node, Scan) and node.columns is None:
            table = database.table(node.table_name)
            return replace(node, columns=tuple(table.column_names))
        return None

    annotated = transform_plan(plan, annotate)
    return push_down_predicates(annotated)


# ----------------------------------------------------------------------
# Rule 2: join input ordering
# ----------------------------------------------------------------------

def order_join_inputs(plan: PlanNode, database) -> PlanNode:
    def estimate_rows(node: PlanNode) -> float:
        if isinstance(node, Scan):
            rows = database.table(node.table_name).num_rows
            if node.sample is not None and node.sample.rate is not None:
                rows *= node.sample.rate
            return float(rows)
        if isinstance(node, Filter):
            return 0.33 * estimate_rows(node.child)  # crude default selectivity
        if isinstance(node, (Project, OrderBy)):
            return estimate_rows(node.child)
        if isinstance(node, Limit):
            return float(node.count)
        if isinstance(node, HashJoin):
            return max(estimate_rows(node.left), estimate_rows(node.right))
        if isinstance(node, GroupByAggregate):
            return max(1.0, 0.01 * estimate_rows(node.child))
        if isinstance(node, UnionAll):
            return sum(estimate_rows(c) for c in node.inputs)
        return 1.0

    def rewrite(node: PlanNode) -> Optional[PlanNode]:
        if isinstance(node, HashJoin) and node.how == "inner":
            if estimate_rows(node.left) > estimate_rows(node.right):
                return HashJoin(
                    left=node.right,
                    right=node.left,
                    left_keys=node.right_keys,
                    right_keys=node.left_keys,
                    how="inner",
                )
        return None

    return transform_plan(plan, rewrite)


# ----------------------------------------------------------------------
# Rule 3: projection pruning
# ----------------------------------------------------------------------

def prune_scan_columns(plan: PlanNode, database) -> PlanNode:
    """Restrict every scan to the columns the plan actually references."""
    needed_by_scan: dict = {}

    def collect(node: PlanNode, needed: Optional[Set[str]]) -> None:
        if isinstance(node, Scan):
            table = database.table(node.table_name)
            prefix = f"{node.alias}." if node.alias is not None else ""
            if needed is None:
                cols = set(table.column_names)
            else:
                cols = set()
                for name in needed:
                    raw = name[len(prefix):] if prefix and name.startswith(prefix) else name
                    if raw in table:
                        cols.add(raw)
            if node.sample is not None:
                cols |= set(node.sample.columns)  # the sampler reads these
            key = id(node)
            needed_by_scan[key] = needed_by_scan.get(key, set()) | cols
            return
        if isinstance(node, Filter):
            child_needed = (
                None if needed is None else needed | set(node.predicate.columns())
            )
            collect(node.child, child_needed)
            return
        if isinstance(node, Project):
            child_needed: Set[str] = set()
            for expr, _ in node.items:
                child_needed |= set(expr.columns())
            collect(node.child, child_needed)
            return
        if isinstance(node, HashJoin):
            if needed is None:
                collect(node.left, None)
                collect(node.right, None)
                return
            join_cols = set(node.left_keys) | set(node.right_keys)
            collect(node.left, needed | join_cols)
            collect(node.right, needed | join_cols)
            return
        if isinstance(node, GroupByAggregate):
            child_needed = set()
            for expr, _ in node.keys:
                child_needed |= set(expr.columns())
            for spec in node.aggregates:
                child_needed |= set(spec.columns())
            if node.having is not None:
                # HAVING references aggregate outputs, not child columns.
                pass
            collect(node.child, child_needed)
            return
        if isinstance(node, OrderBy):
            child_needed = (
                None
                if needed is None
                else needed | {name for name, _ in node.items}
            )
            collect(node.child, child_needed)
            return
        if isinstance(node, Limit):
            collect(node.child, needed)
            return
        if isinstance(node, UnionAll):
            for child in node.inputs:
                collect(child, needed)
            return
        raise PlanError(f"unknown node {type(node).__name__}")

    collect(plan, _root_requirements(plan))

    def rewrite(node: PlanNode) -> Optional[PlanNode]:
        if isinstance(node, Scan) and id(node) in needed_by_scan:
            cols = needed_by_scan[id(node)]
            table = database.table(node.table_name)
            ordered = tuple(c for c in table.column_names if c in cols)
            if not ordered:
                ordered = (table.column_names[0],) if table.column_names else ()
            if node.columns is None or set(node.columns) != set(ordered):
                return replace(node, columns=ordered)
        return None

    return transform_plan(plan, rewrite)


def _root_requirements(plan: PlanNode) -> Optional[Set[str]]:
    """Columns the root consumer needs; None means 'everything'."""
    if isinstance(plan, (Project, GroupByAggregate)):
        return set()  # collect() derives child needs from the node itself
    if isinstance(plan, (OrderBy, Limit, Filter)):
        return None
    return None
