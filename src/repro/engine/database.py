"""The database catalog: tables, statistics, synopses, and entry points.

``Database`` is the object users hold. It stores base tables, keeps
their catalog statistics (per column, on first read, merged on append),
hands appended rows to the synopsis catalog of offline AQP, and exposes
two entry points:

* :meth:`Database.execute` — run a logical plan exactly as given
  (including any sampling clauses it carries), and
* :meth:`Database.sql` — parse/bind/optimize/execute a SQL string. If the
  query carries an ``ERROR WITHIN ... CONFIDENCE ...`` clause the call is
  routed through :class:`repro.core.session.AQPEngine`.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..core.exceptions import SchemaError
from ..storage.statistics import TableStats
from .executor import ExecutionStats, Executor
from .plan import PlanNode
from .table import DEFAULT_BLOCK_SIZE, Table


class Database:
    """An in-memory database instance."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._stats: Dict[str, TableStats] = {}
        # Serving re-entrancy: concurrent queries share one Database, so
        # catalog mutation (appends included, with the statistics and
        # samples they maintain) is serialized.
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
        """Append rows to a table, maintaining what the append changes.

        Column statistics already computed merge the batch
        (:meth:`TableStats.appended`), and the synopsis catalog folds it
        into every sample with an exact append rule
        (:meth:`~repro.offline.catalog.SynopsisCatalog.absorb_append`), so
        neither is recomputed on the next query nor served stale.
        """
        from ..offline.catalog import SynopsisCatalog

        with self._catalog_lock:
            base = self.table(name)
            extra = Table(data, name=name, block_size=base.block_size)
            grown = Table.concat([base, extra], name=name)
            rows_before = base.num_rows
            self._tables[name] = grown
            stats = self._stats.pop(name, None)
            if stats is not None:
                self._stats[name] = stats.appended(grown)
            # Let the old version (and cached synopses of it) go before
            # the samples are redrawn: an append then peaks at the two
            # table versions, not at both plus two generations of samples.
            del base, stats
            self._invalidate_synopses(name)
            SynopsisCatalog.for_database(self).absorb_append(
                name, extra, rows_before
            )

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
        """Catalog statistics of the table's current content.

        Nothing is computed here: a column's statistics are computed when
        the column is first read from the returned :class:`TableStats`
        (outside the catalog lock, as it is a pass over the column), and
        merged rather than dropped by :meth:`append_rows`. A
        ``TableStats`` describes one version of the table, so statistics
        of content replaced meanwhile are returned to their caller but
        never cached for the new content.
        """
        with self._catalog_lock:
            cached = self._stats.get(name)
            if cached is None:
                cached = self._stats[name] = TableStats(self.table(name))
            return cached

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
    ) -> Tuple[Table, ExecutionStats]:
        """Optimize (optionally) and run a logical plan.

        ``deadline``/``budget`` bound the execution cooperatively; when
        omitted, the ambient :func:`repro.resilience.deadline_scope` (if
        any) applies, so serving-layer limits reach every plan run on
        this query's behalf.
        """
        if optimize:
            from .optimizer import optimize_plan

            plan = optimize_plan(plan, self)
        executor = Executor(self, seed=seed, deadline=deadline, budget=budget)
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
        from ..core.session import AQPEngine, run_query
        from ..sql.parser import split_explain

        mode, inner = split_explain(query)
        if mode == "explain":
            return self.explain(inner)
        if mode == "analyze":
            from ..obs.explain import run_explain_analyze

            return run_explain_analyze(self, inner, options=options)
        return run_query(
            inner,
            options,
            door="Database.sql()",
            engine="aqp",
            database=self,
            stage=AQPEngine(self)._stage,
        )

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
