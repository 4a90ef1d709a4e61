"""The database catalog: tables, statistics, synopses, and entry points.

``Database`` is the object users hold. It stores base tables, lazily
computes catalog statistics, owns the synopsis registry used by offline
AQP, and exposes two entry points:

* :meth:`Database.execute` — run a logical plan exactly as given
  (including any sampling clauses it carries), and
* :meth:`Database.sql` — parse/bind/optimize/execute a SQL string. If the
  query carries an ``ERROR WITHIN ... CONFIDENCE ...`` clause the call is
  routed through :class:`repro.core.session.AQPEngine`.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.exceptions import SchemaError
from ..storage.cost import CostParameters, DEFAULT_COST
from ..storage.statistics import TableStats, compute_table_stats
from .executor import ExecutionStats, Executor
from .plan import PlanNode
from .table import DEFAULT_BLOCK_SIZE, Table


class Database:
    """An in-memory database instance."""

    def __init__(self, cost_params: CostParameters = DEFAULT_COST) -> None:
        self._tables: Dict[str, Table] = {}
        self._stats: Dict[str, TableStats] = {}
        self.cost_params = cost_params
        #: registry used by repro.offline: (kind, table, key) -> synopsis
        self.synopses: Dict[Tuple[str, str, str], object] = {}
        # Serving re-entrancy: concurrent queries share one Database, so
        # catalog mutation and lazy-stats computation are serialized.
        # Reentrant because append_rows -> replace_table nests.
        self._catalog_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        data: Union[Table, Mapping[str, Iterable]],
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> Table:
        """Register a table. ``data`` may be a Table or a columns mapping."""
        with self._catalog_lock:
            if name in self._tables:
                raise SchemaError(f"table {name!r} already exists")
            if isinstance(data, Table):
                table = Table(
                    data.columns_dict(), name=name, block_size=data.block_size
                )
            else:
                table = Table(data, name=name, block_size=block_size)
            self._tables[name] = table
            return table

    def drop_table(self, name: str) -> None:
        with self._catalog_lock:
            self._tables.pop(name, None)
            self._stats.pop(name, None)
        self._invalidate_synopses(name)

    def replace_table(self, name: str, table: Table) -> None:
        """Swap a table's contents (used by update/maintenance simulations)."""
        with self._catalog_lock:
            if name not in self._tables:
                raise SchemaError(f"no table {name!r}")
            self._tables[name] = Table(
                table.columns_dict(), name=name, block_size=table.block_size
            )
            self._stats.pop(name, None)
        self._invalidate_synopses(name)

    @staticmethod
    def _invalidate_synopses(name: str) -> None:
        """Evict cached synopses of a table whose content changed.

        The cache is content-addressed (keys embed the table
        fingerprint), so this is a space reclamation, not a correctness
        requirement — stale entries could never be returned for the new
        content anyway.
        """
        from ..storage.synopsis_cache import get_global_cache

        get_global_cache().invalidate_table(name)

    def append_rows(self, name: str, data: Mapping[str, Iterable]) -> None:
        """Append rows to a table (invalidates cached stats)."""
        with self._catalog_lock:
            base = self.table(name)
            extra = Table(data, name=name, block_size=base.block_size)
            self.replace_table(name, Table.concat([base, extra], name=name))

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(
                f"no table {name!r} (have {sorted(self._tables)})"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def stats(self, name: str) -> TableStats:
        """Catalog statistics, computed on first use and cached.

        Computation happens outside the catalog lock (it can be a full
        pass over the table); racing computations of the same table's
        stats produce identical values, and ``setdefault`` keeps exactly
        one. Stats of content that was replaced meanwhile are returned
        to their caller but not cached.
        """
        with self._catalog_lock:
            cached = self._stats.get(name)
        if cached is not None:
            return cached
        table = self.table(name)
        computed = compute_table_stats(table)
        with self._catalog_lock:
            if self._tables.get(name) is not table:
                return computed
            return self._stats.setdefault(name, computed)

    def invalidate_stats(self, name: Optional[str] = None) -> None:
        with self._catalog_lock:
            if name is None:
                self._stats.clear()
            else:
                self._stats.pop(name, None)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: PlanNode,
        seed: Optional[int] = None,
        optimize: bool = True,
        deadline=None,
        budget=None,
        fused: bool = True,
    ) -> Tuple[Table, ExecutionStats]:
        """Optimize (optionally) and run a logical plan.

        ``deadline``/``budget`` bound the execution cooperatively; when
        omitted, the ambient :func:`repro.resilience.deadline_scope` (if
        any) applies, so serving-layer limits reach every plan run on
        this query's behalf.

        ``fused=False`` forces the legacy per-operator materializing
        executor — kept as the differential-testing reference; results
        and accounting are identical either way, only wall-clock differs.
        """
        if optimize:
            from .optimizer import optimize_plan

            plan = optimize_plan(plan, self)
        executor = Executor(
            self,
            seed=seed,
            cost_params=self.cost_params,
            deadline=deadline,
            budget=budget,
            fused=fused,
        )
        return executor.execute(plan)

    def sql(self, query: str, options: Optional[QueryOptions] = None):
        """Run a SQL string.

        Returns a :class:`~repro.core.result.QueryResult` for exact queries
        or an :class:`~repro.core.result.ApproximateResult` when the query
        carries an error specification. ``EXPLAIN <sql>`` returns the
        optimized plan text; ``EXPLAIN ANALYZE <sql>`` executes the query
        under a tracer and returns an
        :class:`~repro.obs.explain.ExplainResult` bundling the answer,
        the span tree, and the metrics delta.

        ``options`` is a :class:`~repro.core.options.QueryOptions`.
        """
        from ..core.session import AQPEngine
        from ..sql.parser import split_explain

        mode, inner = split_explain(query)
        if mode == "explain":
            return self.explain(inner)
        if mode == "analyze":
            from ..obs.explain import run_explain_analyze

            return run_explain_analyze(self, inner, options=options)
        return AQPEngine(self).sql(inner, options=options)

    def explain(self, query: str) -> str:
        """Textual optimized plan for a SQL string."""
        from ..sql.binder import bind_sql
        from .optimizer import optimize_plan

        bound = bind_sql(query, self)
        return optimize_plan(bound.plan, self).explain()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            f"{n}({self._tables[n].num_rows})" for n in self.table_names
        )
        return f"Database({parts})"
