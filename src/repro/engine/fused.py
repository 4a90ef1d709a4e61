"""Fused, block-pipelined plan execution.

The materializing executor copies a full :class:`Table` at every operator
boundary: ``Filter`` gathers every column through ``take(mask)``,
``Project`` re-allocates its output, and ``GroupByAggregate`` reads the
copies back. On the serving path that copy overhead — not data touched —
dominates wall-clock, which is exactly the constant-factor failure mode
the paper's "no silver bullet" argument warns AQP layers about.

This module implements the fused alternative. A scan produces a
:class:`~repro.storage.blocks.ScanSelection` (which rows, what the touch
cost) instead of a Table; ``Filter``/``Project`` steps compose over lazy
*relations* — duck-typed namespaces that hand out zero-copy column views
and only gather (``col[mask]``) the columns an operator actually reads;
and linear aggregates fold directly over the masked views, so a
``Filter→Project→GroupByAggregate`` plan allocates exactly one Table: the
result. Because every expression operator is elementwise,
``f(col)[mask] == f(col[mask])`` holds bitwise, and the fused pipeline
produces results, ``ExecutionStats`` and provenance identical to the
materializing executor (the differential suite in
``tests/test_fused_executor.py`` fuzzes this).

Selection-vector lifetime: a selection is born at the scan (``None`` for
full scans, int64 row indices for samples), narrows through filters as
boolean masks layered on the lazy relations, and dies either inside the
aggregate fold (never materialized) or at :func:`materialize_relation`
when a consumer — join, union, ORDER BY, or the plan top — truly needs a
contiguous Table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..storage.blocks import BLOCK_ID_COLUMN, WEIGHT_COLUMN, ScanSelection
from ..core.exceptions import SchemaError
from .aggregates import (
    AggregateSpec,
    compute_aggregate_values,
    compute_grouped_aggregate_values,
    encode_groups_arrays,
)
from .expressions import compile_expression
from .plan import Filter, GroupByAggregate, PlanNode, Project, Scan
from .table import Table

__all__ = [
    "FusedChain",
    "PreparedChain",
    "extract_chain",
    "chain_signature",
    "signature_digest",
    "compile_chain",
    "PARTIAL_COUNT",
    "prepare_partial_aggregate",
    "filter_mask",
    "scan_relation",
    "apply_steps",
    "run_prepared_aggregate",
    "materialize_relation",
    "LazyRelation",
    "MaskedRelation",
    "SliceRelation",
]


# ----------------------------------------------------------------------
# Lazy relations
# ----------------------------------------------------------------------

class LazyRelation:
    """A named set of lazily computed, memoized columns.

    Duck-type compatible with :class:`Table` for everything expressions
    need (``rel[name]`` and ``rel.num_rows``); nothing is computed until
    a column is read, and each column is computed at most once.
    """

    __slots__ = ("_getters", "_cache", "num_rows")

    def __init__(
        self, getters: Dict[str, Callable[[], np.ndarray]], num_rows: int
    ) -> None:
        self._getters = getters
        self._cache: Dict[str, np.ndarray] = {}
        self.num_rows = num_rows

    @property
    def column_names(self) -> List[str]:
        return list(self._getters)

    def __contains__(self, name: str) -> bool:
        return name in self._getters

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._cache.get(name)
        if arr is None:
            getter = self._getters.get(name)
            if getter is None:
                raise SchemaError(
                    f"no column {name!r} in fused pipeline "
                    f"(have {self.column_names})"
                )
            arr = getter()
            self._cache[name] = arr
        return arr


class MaskedRelation:
    """A parent relation narrowed by a boolean selection mask.

    Columns compact lazily (``parent[name][mask]``) and are memoized, so
    a downstream aggregate touching 3 of 24 columns gathers exactly 3.
    """

    __slots__ = ("_parent", "_mask", "_cache", "num_rows")

    def __init__(self, parent, mask: np.ndarray) -> None:
        self._parent = parent
        self._mask = mask
        self._cache: Dict[str, np.ndarray] = {}
        self.num_rows = int(np.count_nonzero(mask))

    @property
    def column_names(self) -> List[str]:
        return self._parent.column_names

    def __contains__(self, name: str) -> bool:
        return name in self._parent

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._cache.get(name)
        if arr is None:
            arr = self._parent[name][self._mask]
            self._cache[name] = arr
        return arr


class SliceRelation:
    """A zero-copy, optionally renamed row-range view of a Table.

    Backed by ``arr[start:stop]`` basic slicing, so no data is copied —
    the per-block replacement for ``table.block(b).rename(...)`` on the
    sharded partial-scan path, which used to allocate two Tables per
    block.
    """

    __slots__ = ("_table", "_start", "_stop", "_rename", "num_rows")

    def __init__(
        self,
        table: Table,
        start: int,
        stop: int,
        rename: Optional[Dict[str, str]] = None,
    ) -> None:
        self._table = table
        self._start = start
        self._stop = stop
        # Map output name -> source name (inverted from Table.rename form).
        if rename:
            self._rename = {rename.get(k, k): k for k in table.column_names}
        else:
            self._rename = None
        self.num_rows = stop - start

    @property
    def column_names(self) -> List[str]:
        if self._rename is not None:
            return list(self._rename)
        return self._table.column_names

    def __contains__(self, name: str) -> bool:
        if self._rename is not None:
            return name in self._rename
        return name in self._table

    def __getitem__(self, name: str) -> np.ndarray:
        source = name
        if self._rename is not None:
            try:
                source = self._rename[name]
            except KeyError:
                raise SchemaError(
                    f"no column {name!r} in shard view "
                    f"(have {self.column_names})"
                ) from None
        return self._table[source][self._start : self._stop]


# ----------------------------------------------------------------------
# Chain extraction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FusedChain:
    """A fusable linear plan fragment.

    ``steps`` are bottom-up (scan-adjacent first); ``nodes_top_down``
    preserves the materializing executor's recursion order so deadline
    checkpoints fire at the same sites in the same order.
    """

    scan: Scan
    steps: Tuple[Tuple[str, Any], ...]
    aggregate: Optional[GroupByAggregate]
    nodes_top_down: Tuple[PlanNode, ...]


def extract_chain(node: PlanNode) -> Optional[FusedChain]:
    """Recognize ``[GroupByAggregate] → (Filter|Project)* → Scan`` chains.

    Returns ``None`` for anything else — including a bare Scan, where the
    materializing path is already zero-copy for full scans and a single
    gather for samples, so fusion has nothing to remove.
    """
    nodes: List[PlanNode] = []
    aggregate: Optional[GroupByAggregate] = None
    cur = node
    if isinstance(cur, GroupByAggregate):
        aggregate = cur
        nodes.append(cur)
        cur = cur.child
    steps_top_down: List[Tuple[str, Any]] = []
    while isinstance(cur, (Filter, Project)):
        nodes.append(cur)
        if isinstance(cur, Filter):
            steps_top_down.append(("filter", cur.predicate))
        else:
            steps_top_down.append(("project", cur.items))
        cur = cur.child
    if not isinstance(cur, Scan):
        return None
    if aggregate is None and not steps_top_down:
        return None
    nodes.append(cur)
    return FusedChain(
        scan=cur,
        steps=tuple(reversed(steps_top_down)),
        aggregate=aggregate,
        nodes_top_down=tuple(nodes),
    )


def chain_signature(chain: FusedChain) -> str:
    """Normalized textual form of a chain, the kernel-cache key half.

    Every expression node prints deterministically, so two structurally
    identical chains produce equal signatures. The sampling seed is
    deliberately excluded: prepared kernels never consume randomness
    (row selection happens at scan time, outside the kernels).
    """
    parts = [
        f"scan={chain.scan.table_name}",
        f"cols={list(chain.scan.columns) if chain.scan.columns is not None else None}",
        f"alias={chain.scan.alias}",
    ]
    sample = chain.scan.sample
    if sample is not None:
        parts.append(f"sample={sample.method}:{sample.rate}:{sample.size}")
        if sample.columns:
            parts.append(f"sample_on={list(sample.columns)}:{sample.cap}")
    for kind, payload in chain.steps:
        if kind == "filter":
            parts.append(f"filter={payload!r}")
        else:
            items = ";".join(f"{alias}={expr!r}" for expr, alias in payload)
            parts.append(f"project={items}")
    agg = chain.aggregate
    if agg is not None:
        keys = ";".join(f"{alias}={expr!r}" for expr, alias in agg.keys)
        aggs = ";".join(repr(spec) for spec in agg.aggregates)
        parts.append(f"agg=[{keys}]|[{aggs}]|having={agg.having!r}")
    return "\n".join(parts)


def signature_digest(signature: str) -> str:
    """Short stable digest of a chain signature, for span attributes.

    Full signatures are multi-line and repeat per scan; traces carry
    this 12-hex-char handle instead so equal plans are still trivially
    equatable across spans without bloating every trace document.
    """
    import hashlib

    return hashlib.sha1(signature.encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------------------
# Chain compilation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PreparedAggregate:
    """Compiled closures for a GroupByAggregate terminal."""

    key_fns: Tuple[Callable, ...]
    key_aliases: Tuple[str, ...]
    specs: Tuple[AggregateSpec, ...]
    input_fns: Tuple[Optional[Callable], ...]
    having_fn: Optional[Callable]


@dataclass(frozen=True)
class PreparedChain:
    """Compiled kernels for a :class:`FusedChain` — what the cache stores.

    Pure functions of the plan shape: no data, no RNG state, so one
    prepared chain serves every execution of the same shape.
    """

    steps: Tuple[Tuple[str, Any], ...]
    aggregate: Optional[PreparedAggregate]


def _broadcast_item(fn: Callable, rel) -> np.ndarray:
    """Evaluate a projection/key closure with scalar broadcast.

    Mirrors the materializing executor's ``_materialize``: a 0-d result
    (e.g. a constant folded to a scalar) broadcasts to relation length.
    """
    arr = np.asarray(fn(rel))
    if arr.ndim == 0:
        arr = np.full(rel.num_rows, arr[()])
    return arr


def compile_chain(chain: FusedChain) -> PreparedChain:
    """Compile every expression in the chain into closures."""
    steps: List[Tuple[str, Any]] = []
    for kind, payload in chain.steps:
        if kind == "filter":
            steps.append(("filter", compile_expression(payload)))
        else:
            steps.append(
                (
                    "project",
                    tuple(
                        (compile_expression(expr), alias)
                        for expr, alias in payload
                    ),
                )
            )
    prepared_agg: Optional[PreparedAggregate] = None
    agg = chain.aggregate
    if agg is not None:
        prepared_agg = PreparedAggregate(
            key_fns=tuple(compile_expression(expr) for expr, _ in agg.keys),
            key_aliases=tuple(alias for _, alias in agg.keys),
            specs=tuple(agg.aggregates),
            input_fns=tuple(
                compile_expression(spec.argument)
                if spec.argument is not None
                else None
                for spec in agg.aggregates
            ),
            having_fn=(
                compile_expression(agg.having)
                if agg.having is not None
                else None
            ),
        )
    return PreparedChain(steps=tuple(steps), aggregate=prepared_agg)


#: matched-row count column every partial aggregate carries
PARTIAL_COUNT = "__count"


def prepare_partial_aggregate(bound, kernel_cache) -> PreparedChain:
    """Compile a bound single-table SUM/COUNT/AVG query in mergeable form.

    Every aggregate is rewritten into additive components — ``SUM(x)``
    and ``AVG(x)`` contribute ``SUM(x)`` under the aggregate's own alias,
    and one shared ``COUNT(*)`` (:data:`PARTIAL_COUNT`) serves every
    ``COUNT`` and every ``AVG`` denominator — over the query's own WHERE
    and GROUP BY. Folding the chain over any row range of the table (a
    shard, a block) yields a small table whose non-key columns *add*
    across ranges. The kernels never touch data, so the cache key is the
    chain signature alone and one entry serves every shard.
    """
    target = bound.tables[0]
    node: PlanNode = Scan(table_name=target.name, alias=target.alias)
    if bound.where is not None:
        node = Filter(child=node, predicate=bound.where)
    components = [
        AggregateSpec("sum", agg.argument, agg.alias)
        for agg in bound.aggregates
        if agg.func != "count"
    ]
    components.append(AggregateSpec("count", None, PARTIAL_COUNT))
    chain = extract_chain(
        GroupByAggregate(
            child=node,
            keys=tuple(bound.group_keys),
            aggregates=tuple(components),
        )
    )
    return kernel_cache.get_or_compile(
        ("partial", chain_signature(chain)), lambda: compile_chain(chain)
    )


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------

def filter_mask(prepared: PreparedChain, rel) -> Optional[np.ndarray]:
    """Row mask of a chain with at most one Filter step (``None`` = every
    row) — for consumers that weight or permute the *unfiltered* rows
    (OLA prefixes, HT samples) instead of folding the filtered ones."""
    if not prepared.steps:
        return None
    ((_kind, predicate),) = prepared.steps
    return np.asarray(predicate(rel), dtype=bool)


def scan_relation(
    table: Table,
    scan_columns: Sequence[str],
    selection: ScanSelection,
    alias: Optional[str],
) -> LazyRelation:
    """Build the scan-output namespace without materializing anything.

    Column names mirror the materializing scan exactly — pruned to
    ``scan_columns``, alias-qualified when an alias is set, with the
    block-id provenance column appended last for block samples and the
    HT-weight column for row-weighted samples — but each column is a thunk: a shared view for full scans, a single lazy gather
    for samples.
    """
    row_indices = selection.row_indices
    getters: Dict[str, Callable[[], np.ndarray]] = {}

    def make_getter(name: str) -> Callable[[], np.ndarray]:
        if row_indices is None:
            return lambda: table[name]
        return lambda: table[name][row_indices]

    prefix = f"{alias}." if alias is not None else ""
    for name in scan_columns:
        getters[f"{prefix}{name}"] = make_getter(name)
    if selection.block_id_column is not None:
        ids = selection.block_id_column
        getters[f"{prefix}{BLOCK_ID_COLUMN}"] = lambda: ids
    if selection.weight_column is not None:
        weights = selection.weight_column
        getters[f"{prefix}{WEIGHT_COLUMN}"] = lambda: weights
    return LazyRelation(getters, selection.num_rows)


def apply_steps(prepared: PreparedChain, rel):
    """Run the compiled Filter/Project steps over a relation.

    Filters evaluate their compiled predicate against the *current*
    (already narrowed) relation and layer the resulting mask lazily;
    projections swap in a new namespace of item thunks. No copies happen
    here beyond the per-referenced-column gathers the masks force.
    """
    for kind, payload in prepared.steps:
        if kind == "filter":
            mask = np.asarray(payload(rel), dtype=bool)
            rel = MaskedRelation(rel, mask)
        else:
            parent = rel

            def make_item(fn: Callable, source=parent) -> Callable[[], np.ndarray]:
                return lambda: _broadcast_item(fn, source)

            getters = {alias: make_item(fn) for fn, alias in payload}
            rel = LazyRelation(getters, parent.num_rows)
    return rel


def _aggregate_inputs(
    spec: AggregateSpec, input_fn: Optional[Callable], rel
) -> Optional[np.ndarray]:
    """Per-row aggregate input, matching ``AggregateSpec.input_values``.

    Plain COUNT needs no vector at all; COUNT(*) variants that do
    (count_distinct without an argument) fall back to the same implicit
    ones vector the materializing path uses.
    """
    if spec.func == "count":
        return None
    if input_fn is None:
        return np.ones(rel.num_rows, dtype=np.float64)
    return input_fn(rel)


def run_prepared_aggregate(prepared: PreparedChain, rel) -> Table:
    """Fold the compiled aggregate directly over the (masked) relation.

    Reproduces ``Executor._run_aggregate`` arithmetic exactly — same
    kernels, same empty-input special case, same key-column dtypes — but
    allocates only the result Table (plus one more if HAVING prunes it,
    matching the materializing path's own output-side ``take``).
    """
    pa = prepared.aggregate
    assert pa is not None
    cols: Dict[str, np.ndarray] = {}
    if not pa.key_aliases:
        for spec, input_fn in zip(pa.specs, pa.input_fns):
            values = _aggregate_inputs(spec, input_fn, rel)
            cols[spec.alias] = np.array(
                [compute_aggregate_values(spec, values, rel.num_rows)]
            )
        result = Table(cols, name="aggregate")
    elif rel.num_rows == 0:
        for alias in pa.key_aliases:
            cols[alias] = np.array([])
        for spec in pa.specs:
            cols[spec.alias] = np.array([])
        result = Table(cols, name="aggregate")
    else:
        key_arrays = [_broadcast_item(fn, rel) for fn in pa.key_fns]
        group_ids, key_columns = encode_groups_arrays(key_arrays)
        num_groups = len(key_columns[0])
        for alias, key_column in zip(pa.key_aliases, key_columns):
            cols[alias] = key_column
        for spec, input_fn in zip(pa.specs, pa.input_fns):
            values = _aggregate_inputs(spec, input_fn, rel)
            cols[spec.alias] = compute_grouped_aggregate_values(
                spec, values, group_ids, num_groups
            )
        result = Table(cols, name="aggregate")
    if pa.having_fn is not None:
        mask = np.asarray(pa.having_fn(result), dtype=bool)
        result = result.take(mask)
    return result


def materialize_relation(rel, name: str, block_size: int) -> Table:
    """Force a lazy relation out into a contiguous Table.

    Called only when a consumer genuinely needs one — the chain sits
    under a join/union/ORDER BY/LIMIT or is the plan top. Column order,
    name and block size match what the materializing operator stack
    would have produced.
    """
    return Table(
        {n: rel[n] for n in rel.column_names},
        name=name,
        block_size=block_size,
    )
