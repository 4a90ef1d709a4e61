"""Logical query plans.

Plans are immutable trees of dataclass nodes. The same representation is
used for exact queries and for the rewritten approximate queries the AQP
layers produce — a sampler is just a ``SampleClause`` attached to a
``Scan`` node, exactly as ``TABLESAMPLE`` attaches to a table reference in
SQL. That uniformity is what lets the online planners (Quickr-lite, the
pilot planner) rewrite plans without any engine modification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..core.exceptions import PlanError
from .aggregates import AggregateSpec
from .expressions import Expression

# Sampling methods a Scan can carry. These correspond to the SQL standard's
# TABLESAMPLE BERNOULLI (row-level) and TABLESAMPLE SYSTEM (block-level),
# fixed-size variants some engines expose as extensions, and Quickr's
# distinct sampler (row-level, every value combination of ``columns`` keeps
# at least ``cap`` rows).
SAMPLE_METHODS = (
    "bernoulli_rows",
    "system_blocks",
    "fixed_rows",
    "fixed_blocks",
    "distinct_rows",
)


@dataclass(frozen=True)
class SampleClause:
    """Sampling directive attached to a scan.

    ``rate`` is a probability in (0, 1] for Bernoulli-style methods;
    ``size`` is an absolute row/block count for fixed-size methods;
    ``columns`` and ``cap`` parameterize ``distinct_rows`` only.

    Scans under the two Bernoulli-style row methods (``bernoulli_rows``,
    ``distinct_rows``) expose each row's Horvitz–Thompson weight in a
    hidden ``__weight`` column, the row-level counterpart of the
    ``__block_id`` column block samples expose.
    """

    method: str
    rate: Optional[float] = None
    size: Optional[int] = None
    seed: Optional[int] = None
    columns: Tuple[str, ...] = ()
    cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.method not in SAMPLE_METHODS:
            raise PlanError(f"unknown sampling method {self.method!r}")
        if self.method in ("bernoulli_rows", "system_blocks", "distinct_rows"):
            if self.rate is None or not (0.0 < self.rate <= 1.0):
                raise PlanError(f"{self.method} requires rate in (0, 1]")
        else:
            if self.size is None or self.size < 0:
                raise PlanError(f"{self.method} requires a non-negative size")
        if self.method == "distinct_rows":
            if not self.columns or self.cap is None or self.cap < 1:
                raise PlanError("distinct_rows requires columns and cap >= 1")
        elif self.columns or self.cap is not None:
            raise PlanError(f"{self.method} takes no columns or cap")

    @property
    def is_block_level(self) -> bool:
        return self.method in ("system_blocks", "fixed_blocks")


class PlanNode:
    """Base class for plan operators."""

    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    def replace_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        if children:
            raise PlanError(f"{type(self).__name__} takes no children")
        return self

    def explain(self, indent: int = 0) -> str:
        """Multi-line textual plan, EXPLAIN-style."""
        lines = ["  " * indent + self._describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Scan(PlanNode):
    """Base table access, optionally sampled and column-pruned."""

    table_name: str
    columns: Optional[Tuple[str, ...]] = None
    sample: Optional[SampleClause] = None
    alias: Optional[str] = None

    def __post_init__(self) -> None:
        if self.columns is not None and self.sample is not None:
            missing = [c for c in self.sample.columns if c not in self.columns]
            if missing:
                raise PlanError(
                    f"scan of {self.table_name!r} prunes columns {missing} "
                    "its own sampler reads"
                )

    def _describe(self) -> str:
        parts = [f"Scan({self.table_name}"]
        if self.alias and self.alias != self.table_name:
            parts.append(f" AS {self.alias}")
        if self.columns is not None:
            parts.append(f", cols={list(self.columns)}")
        if self.sample is not None:
            if self.sample.rate is not None:
                parts.append(f", sample={self.sample.method}@{self.sample.rate:g}")
            else:
                parts.append(f", sample={self.sample.method}#{self.sample.size}")
            if self.sample.columns:
                parts.append(f" on {list(self.sample.columns)} cap {self.sample.cap}")
        parts.append(")")
        return "".join(parts)


@dataclass(frozen=True)
class Filter(PlanNode):
    child: PlanNode
    predicate: Expression

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[PlanNode]) -> PlanNode:
        return replace(self, child=children[0])

    def _describe(self) -> str:
        return f"Filter({self.predicate!r})"


@dataclass(frozen=True)
class Project(PlanNode):
    """Compute named output expressions."""

    child: PlanNode
    items: Tuple[Tuple[Expression, str], ...]  # (expression, alias)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[PlanNode]) -> PlanNode:
        return replace(self, child=children[0])

    def _describe(self) -> str:
        cols = ", ".join(alias for _, alias in self.items)
        return f"Project({cols})"


@dataclass(frozen=True)
class HashJoin(PlanNode):
    """Equi-join; left side builds the hash table."""

    left: PlanNode
    right: PlanNode
    left_keys: Tuple[str, ...]
    right_keys: Tuple[str, ...]
    how: str = "inner"

    def __post_init__(self) -> None:
        if len(self.left_keys) != len(self.right_keys) or not self.left_keys:
            raise PlanError("join requires matching non-empty key lists")
        if self.how not in ("inner", "left"):
            raise PlanError(f"unsupported join type {self.how!r}")

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def replace_children(self, children: Sequence[PlanNode]) -> PlanNode:
        left, right = children
        return replace(self, left=left, right=right)

    def _describe(self) -> str:
        keys = ", ".join(
            f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin[{self.how}]({keys})"


@dataclass(frozen=True)
class GroupByAggregate(PlanNode):
    """Grouped (or, with no keys, scalar) aggregation."""

    child: PlanNode
    keys: Tuple[Tuple[Expression, str], ...]  # (expression, alias)
    aggregates: Tuple[AggregateSpec, ...]
    having: Optional[Expression] = None

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[PlanNode]) -> PlanNode:
        return replace(self, child=children[0])

    def _describe(self) -> str:
        keys = ", ".join(alias for _, alias in self.keys) or "<none>"
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"GroupByAggregate(keys=[{keys}], aggs=[{aggs}])"


@dataclass(frozen=True)
class OrderBy(PlanNode):
    child: PlanNode
    items: Tuple[Tuple[str, bool], ...]  # (column name, ascending)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[PlanNode]) -> PlanNode:
        return replace(self, child=children[0])

    def _describe(self) -> str:
        items = ", ".join(f"{c} {'ASC' if a else 'DESC'}" for c, a in self.items)
        return f"OrderBy({items})"


@dataclass(frozen=True)
class Limit(PlanNode):
    child: PlanNode
    count: int

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[PlanNode]) -> PlanNode:
        return replace(self, child=children[0])

    def _describe(self) -> str:
        return f"Limit({self.count})"


@dataclass(frozen=True)
class UnionAll(PlanNode):
    inputs: Tuple[PlanNode, ...]

    def children(self) -> Tuple[PlanNode, ...]:
        return self.inputs

    def replace_children(self, children: Sequence[PlanNode]) -> PlanNode:
        return UnionAll(tuple(children))

    def _describe(self) -> str:
        return f"UnionAll({len(self.inputs)} inputs)"


# ----------------------------------------------------------------------
# Tree utilities
# ----------------------------------------------------------------------

def walk_plan(node: PlanNode):
    """Pre-order traversal."""
    yield node
    for child in node.children():
        yield from walk_plan(child)


def transform_plan(node: PlanNode, fn) -> PlanNode:
    """Bottom-up rewrite; ``fn(node)`` may return a replacement or ``None``."""
    children = node.children()
    if children:
        new_children = [transform_plan(c, fn) for c in children]
        if any(n is not o for n, o in zip(new_children, children)):
            node = node.replace_children(new_children)
    result = fn(node)
    return result if result is not None else node


def scans_in(node: PlanNode) -> List[Scan]:
    """All Scan leaves of a plan, left-to-right."""
    return [n for n in walk_plan(node) if isinstance(n, Scan)]


def attach_sample(node: PlanNode, table_name: str, sample: SampleClause) -> PlanNode:
    """Return a plan with ``sample`` attached to every scan of ``table_name``."""

    def rewrite(n: PlanNode) -> Optional[PlanNode]:
        if isinstance(n, Scan) and n.table_name == table_name:
            return replace(n, sample=sample)
        return None

    return transform_plan(node, rewrite)


def strip_samples(node: PlanNode) -> PlanNode:
    """Return a plan with all sampling clauses removed (the exact plan)."""

    def rewrite(n: PlanNode) -> Optional[PlanNode]:
        if isinstance(n, Scan) and n.sample is not None:
            return replace(n, sample=None)
        return None

    return transform_plan(node, rewrite)
