"""Plan execution.

One executor runs every plan. A ``Filter → Project* → [GroupByAggregate
→ Filter/Project*]`` fragment runs as compiled kernels
(:mod:`repro.engine.fused`) over a scan's selection vector, or over any
other child the executor first runs to a Table — a join, a union, an
ORDER BY. Joins, unions, ORDER BY and LIMIT run as operators on Tables.
What makes the executor useful for AQP research is the *accounting*:
every execution returns an :class:`ExecutionStats` recording rows/blocks
touched per table and rows flowing through joins/aggregations, from
which the cost model computes a simulated "work" number. Speedups
reported by the benchmarks are ratios of that work, so they reflect data
touched rather than Python overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import PlanError, SchemaError
from ..storage import blocks as blockio
from ..storage.cost import CostEstimate, CostParameters, DEFAULT_COST
from .fused import (
    FusedChain,
    LazyRelation,
    apply_steps,
    chain_signature,
    compile_chain,
    extract_chain,
    materialize_relation,
    run_prepared_aggregate,
    scan_relation,
    signature_digest,
)
from .kernel_cache import get_kernel_cache
from .plan import HashJoin, Limit, OrderBy, PlanNode, SampleClause, Scan, UnionAll
from .table import Table


@dataclass
class ExecutionStats:
    """Work accounting for one plan execution."""

    rows_scanned: int = 0
    blocks_scanned: int = 0
    rows_sampled: int = 0
    join_input_rows: int = 0
    agg_input_rows: int = 0
    rows_output: int = 0
    per_table: Dict[str, blockio.AccessStats] = field(default_factory=dict)
    #: total blocks that exist in the scanned tables (for fraction-read)
    blocks_available: int = 0

    def record_scan(self, table_name: str, access: blockio.AccessStats, total_blocks: int) -> None:
        self.rows_scanned += access.rows_scanned
        self.blocks_scanned += access.blocks_scanned
        self.rows_sampled += access.rows_returned
        self.blocks_available += total_blocks
        slot = self.per_table.setdefault(table_name, blockio.AccessStats())
        slot.merge(access)

    @property
    def fraction_blocks_read(self) -> float:
        if self.blocks_available == 0:
            return 0.0
        return self.blocks_scanned / self.blocks_available

    def simulated_cost(self, params: CostParameters = DEFAULT_COST) -> CostEstimate:
        """Convert the accounting into cost-model units."""
        io = self.blocks_scanned * params.block_read_cost
        cpu = (
            self.rows_scanned * params.row_cpu_cost
            + self.join_input_rows * params.row_join_cost
            + self.agg_input_rows * params.row_agg_cost
        )
        return CostEstimate(io=io, cpu=cpu, detail={"blocks": float(self.blocks_scanned)})

    def to_dict(self) -> Dict[str, object]:
        """One canonical JSON-able form, shared by results and spans.

        Every execution path (engine, sharded, ladder) reports through
        this dataclass, so the key set here *is* the stats contract —
        ``test_observability`` pins that all paths populate identical
        keys.
        """
        return {
            "rows_scanned": int(self.rows_scanned),
            "blocks_scanned": int(self.blocks_scanned),
            "rows_sampled": int(self.rows_sampled),
            "join_input_rows": int(self.join_input_rows),
            "agg_input_rows": int(self.agg_input_rows),
            "rows_output": int(self.rows_output),
            "blocks_available": int(self.blocks_available),
            "fraction_blocks_read": float(self.fraction_blocks_read),
            "simulated_cost": float(self.simulated_cost().total),
            "per_table": {
                name: {
                    "rows_scanned": int(a.rows_scanned),
                    "blocks_scanned": int(a.blocks_scanned),
                    "rows_returned": int(a.rows_returned),
                }
                for name, a in sorted(self.per_table.items())
            },
        }

    def merge(self, other: "ExecutionStats") -> None:
        self.rows_scanned += other.rows_scanned
        self.blocks_scanned += other.blocks_scanned
        self.rows_sampled += other.rows_sampled
        self.join_input_rows += other.join_input_rows
        self.agg_input_rows += other.agg_input_rows
        self.blocks_available += other.blocks_available
        for name, access in other.per_table.items():
            self.per_table.setdefault(name, blockio.AccessStats()).merge(access)


class Executor:
    """Executes logical plans against a database catalog.

    Cooperative interruption: when a
    :class:`~repro.resilience.deadline.Deadline` or
    :class:`~repro.resilience.deadline.ResourceBudget` is attached —
    explicitly or through the ambient
    :func:`~repro.resilience.deadline.deadline_scope` — the executor
    checkpoints at every operator boundary and charges every scan, so a
    runaway plan raises ``DeadlineExceeded``/``BudgetExhausted`` at the
    next block boundary instead of running unbounded.
    """

    def __init__(self, database, seed: Optional[int] = None,
                 cost_params: CostParameters = DEFAULT_COST,
                 deadline=None, budget=None, kernel_cache=None) -> None:
        from ..resilience.deadline import resolve_budget, resolve_deadline

        self.database = database
        self.rng = np.random.default_rng(seed)
        self.cost_params = cost_params
        self.deadline = resolve_deadline(deadline)
        self.budget = resolve_budget(budget)
        self.kernel_cache = kernel_cache if kernel_cache is not None else get_kernel_cache()

    def execute(self, plan: PlanNode) -> Tuple[Table, ExecutionStats]:
        stats = ExecutionStats()
        result = self._run(plan, stats)
        stats.rows_output = result.num_rows
        return result, stats

    # ------------------------------------------------------------------
    def _checkpoint(self, node: PlanNode) -> None:
        if self.deadline is not None:
            self.deadline.check(site=f"executor.{type(node).__name__}")

    def _run(self, node: PlanNode, stats: ExecutionStats) -> Table:
        chain = extract_chain(node)
        if chain is not None:
            return self._run_chain(chain, stats)
        if isinstance(node, Scan):
            table, selection, rel = self._scan(node, stats)
            if selection.row_indices is None and rel.column_names == table.column_names:
                return table  # every row of every column: the table itself
            return materialize_relation(rel, table.name, table.block_size)
        self._checkpoint(node)
        if isinstance(node, HashJoin):
            return self._run_join(node, stats)
        if isinstance(node, OrderBy):
            child = self._run(node.child, stats)
            return _order_by(child, node.items)
        if isinstance(node, Limit):
            child = self._run(node.child, stats)
            return child.head(node.count)
        if isinstance(node, UnionAll):
            parts = [self._run(c, stats) for c in node.inputs]
            return Table.concat(parts)
        raise PlanError(f"unknown plan node {type(node).__name__}")

    # ------------------------------------------------------------------
    def _scan(
        self, node: Scan, stats: ExecutionStats
    ) -> Tuple[Table, blockio.ScanSelection, LazyRelation]:
        """The one scan prologue, for bare scans and chain sources alike:
        checkpoint, column check, ``scan`` span, ``executor.scan`` fault
        site, row selection and accounting. Returns the base table, the
        selection and the (lazy, uncopied) scan output."""
        self._checkpoint(node)
        table = self.database.table(node.table_name)
        columns = table.column_names
        if node.columns is not None:
            missing = [c for c in node.columns if c not in table]
            if missing:
                raise SchemaError(
                    f"columns {missing} not in table {node.table_name!r}"
                )
            columns = list(node.columns)
        from ..obs.trace import span
        from ..resilience.faults import maybe_fault

        with span(
            "scan", table=node.table_name, sampled=node.sample is not None
        ) as sp:
            maybe_fault("executor.scan")  # chaos: slow blocks burn the clock here
            selection = self._scan_selection(table, node.sample)
            access = selection.access
            stats.record_scan(node.table_name, access, table.num_blocks)
            if self.budget is not None:
                self.budget.charge(
                    rows=access.rows_scanned,
                    blocks=access.blocks_scanned,
                    site=f"scan:{node.table_name}",
                )
            if self.deadline is not None:
                self.deadline.check(site=f"scan:{node.table_name}")
            sp.set(
                rows_scanned=int(access.rows_scanned),
                blocks_scanned=int(access.blocks_scanned),
                rows_returned=int(access.rows_returned),
            )
        return table, selection, scan_relation(table, columns, selection, node.alias)

    def _scan_selection(
        self, table: Table, sample: Optional[SampleClause]
    ) -> blockio.ScanSelection:
        """Row selection for a scan — where a sample's randomness lives:
        an explicit sample seed, else ``self.rng``."""
        if sample is None:
            return blockio.full_selection(table)
        rng = (
            np.random.default_rng(sample.seed)
            if sample.seed is not None
            else self.rng
        )
        n = table.num_rows
        nb = table.num_blocks
        if sample.method == "bernoulli_rows":
            rows = np.flatnonzero(rng.random(n) < sample.rate)
            return blockio.row_sample_selection(
                table, rows, np.full(len(rows), 1.0 / sample.rate)
            )
        if sample.method == "distinct_rows":
            from ..sampling.distinct import distinct_selection

            rows, weights, _ = distinct_selection(
                [table[c] for c in sample.columns], sample.rate, sample.cap, rng
            )
            return blockio.sampler_pass_selection(table, rows, weights)
        if sample.method == "system_blocks":
            mask = rng.random(nb) < sample.rate
            return blockio.block_sample_selection(table, np.flatnonzero(mask))
        if sample.method == "fixed_rows":
            size = min(sample.size, n)
            idx = rng.choice(n, size=size, replace=False) if size else np.array([], dtype=np.int64)
            return blockio.row_sample_selection(table, np.sort(idx))
        if sample.method == "fixed_blocks":
            size = min(sample.size, nb)
            ids = rng.choice(nb, size=size, replace=False) if size else np.array([], dtype=np.int64)
            return blockio.block_sample_selection(table, ids)
        raise PlanError(f"unknown sampling method {sample.method!r}")

    # ------------------------------------------------------------------
    def _run_chain(self, chain: FusedChain, stats: ExecutionStats) -> Table:
        """Execute a fused chain: its source, then one pass of compiled
        kernels, zero intermediate Tables.

        A scan source hands its selection straight to the kernels; any
        other source is run to a Table, which the kernels read in place.
        """
        for plan_node in chain.nodes_top_down:
            self._checkpoint(plan_node)
        signature = chain_signature(chain)
        if isinstance(chain.source, Scan):
            base, _, rel = self._scan(chain.source, stats)
            key = (base.fingerprint(), signature)
        else:
            base = rel = self._run(chain.source, stats)
            key = ("derived", signature)
        compiled = []

        def _compile():
            compiled.append(True)
            return compile_chain(chain)

        from ..obs.trace import span

        with span("kernel", signature=signature_digest(signature)) as sp:
            prepared = self.kernel_cache.get_or_compile(key, _compile)
            sp.set(cache_hit=not compiled)
        rel = apply_steps(prepared.steps, rel)
        if prepared.aggregate is None:
            return materialize_relation(rel, base.name, base.block_size)
        stats.agg_input_rows += rel.num_rows
        return run_prepared_aggregate(prepared, rel)

    # ------------------------------------------------------------------
    def _run_join(self, node: HashJoin, stats: ExecutionStats) -> Table:
        left = self._run(node.left, stats)
        right = self._run(node.right, stats)
        stats.join_input_rows += left.num_rows + right.num_rows
        left_idx, right_idx, unmatched_left = join_indices(
            [left[k] for k in node.left_keys],
            [right[k] for k in node.right_keys],
        )
        out: Dict[str, np.ndarray] = {}
        if node.how == "inner":
            for name in left.column_names:
                out[name] = left[name][left_idx]
            for name in right.column_names:
                out_name = name if name not in out else f"{name}__r"
                out[out_name] = right[name][right_idx]
        else:  # left join: append unmatched left rows padded with nulls
            all_left = np.concatenate([left_idx, unmatched_left])
            for name in left.column_names:
                out[name] = left[name][all_left]
            pad = len(unmatched_left)
            for name in right.column_names:
                matched = right[name][right_idx]
                if matched.dtype == object:
                    filler = np.empty(pad, dtype=object)
                else:
                    matched = matched.astype(np.float64)
                    filler = np.full(pad, np.nan)
                out_name = name if name not in out else f"{name}__r"
                out[out_name] = np.concatenate([matched, filler]) if pad else matched
        return Table(out, name=f"join", block_size=left.block_size)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _order_by(table: Table, items: Sequence[Tuple[str, bool]]) -> Table:
    if table.num_rows == 0 or not items:
        return table
    # lexsort: last key is primary, so reverse the item list.
    keys = []
    for name, ascending in reversed(items):
        arr = table[name]
        if arr.dtype == object:
            _, codes = np.unique(arr, return_inverse=True)
            arr = codes
        keys.append(arr if ascending else _descending_key(arr))
    order = np.lexsort(tuple(keys))
    return table.take(order)


def _descending_key(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.kind in ("i", "u"):
        return -arr.astype(np.int64)
    return -np.asarray(arr, dtype=np.float64)


def join_indices(
    left_keys: Sequence[np.ndarray], right_keys: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized equi-join index computation.

    Returns ``(left_idx, right_idx, unmatched_left)`` such that row pairs
    ``(left_idx[i], right_idx[i])`` form the inner join, and
    ``unmatched_left`` lists left rows with no partner (for LEFT joins).
    """
    nl = len(left_keys[0])
    nr = len(right_keys[0])
    if nl == 0 or nr == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty, np.arange(nl, dtype=np.int64)
    left_codes, right_codes = _joint_codes(left_keys, right_keys)
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    lo = np.searchsorted(sorted_codes, left_codes, side="left")
    hi = np.searchsorted(sorted_codes, left_codes, side="right")
    counts = hi - lo
    left_idx = np.repeat(np.arange(nl, dtype=np.int64), counts)
    total = int(counts.sum())
    if total == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty, np.arange(nl, dtype=np.int64)
    starts = np.repeat(lo, counts)
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[starts + within]
    unmatched_left = np.flatnonzero(counts == 0).astype(np.int64)
    return left_idx, right_idx, unmatched_left


def _joint_codes(
    left_keys: Sequence[np.ndarray], right_keys: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Factorize composite keys over the union of both sides."""
    nl = len(left_keys[0])
    combined_code_l = np.zeros(nl, dtype=np.int64)
    combined_code_r = np.zeros(len(right_keys[0]), dtype=np.int64)
    multiplier = 1
    for lk, rk in zip(reversed(list(left_keys)), reversed(list(right_keys))):
        both = np.concatenate([
            lk.astype(object) if lk.dtype == object or rk.dtype == object else lk,
            rk.astype(object) if lk.dtype == object or rk.dtype == object else rk,
        ])
        _, codes = np.unique(both, return_inverse=True)
        ndv = int(codes.max()) + 1 if len(codes) else 1
        combined_code_l += codes[:nl] * multiplier
        combined_code_r += codes[nl:] * multiplier
        multiplier *= ndv
    return combined_code_l, combined_code_r
