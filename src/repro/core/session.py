"""The AQP engine facade.

:class:`AQPEngine` ties the pieces together: it parses and binds SQL,
routes exact queries straight to the executor, and hands queries that
carry an error specification to the :mod:`~repro.core.advisor`, which
chooses among the approximation techniques registered with the database.

Typical use::

    engine = AQPEngine(db)
    exact = engine.sql("SELECT SUM(price) FROM sales")
    approx = engine.sql(
        "SELECT SUM(price) FROM sales ERROR WITHIN 5% CONFIDENCE 95%"
    )
"""

from __future__ import annotations

from typing import Optional

from ..engine.database import Database
from ..engine.optimizer import optimize_plan
from ..sql.binder import BoundQuery, bind_sql
from .exceptions import UnsupportedQueryError
from .options import (
    QueryOptions,
    effective_spec,
    maybe_trace,
    resolve_options,
)
from .result import QueryResult


def execute_exact(
    database: Database, bound: BoundQuery, seed: Optional[int] = None
) -> QueryResult:
    """Optimize and run a bound query's plan exactly — the one exact path
    behind the session, the advisor's fallback and the ladder's last
    rung. Deadline and budget come from the ambient ``deadline_scope``."""
    plan = optimize_plan(bound.plan, database)
    table, stats = database.execute(plan, seed=seed, optimize=False)
    return QueryResult(table=table, stats=stats, plan_text=plan.explain())


class AQPEngine:
    """Session object wrapping a :class:`~repro.engine.database.Database`."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # ------------------------------------------------------------------
    def sql(self, query: str, options: Optional[QueryOptions] = None):
        """Run a SQL string, exactly or approximately.

        Parameters
        ----------
        query:
            SQL text; may end with ``ERROR WITHIN e% CONFIDENCE c%``.
        options:
            A :class:`~repro.core.options.QueryOptions`. This entry
            point honors ``seed``, ``spec``, ``technique``,
            ``pilot_rate``, ``deadline``, ``budget``, ``tenant`` (span
            label only), and ``trace``; ``entry_rung`` is inert (no
            ladder here — use
            :class:`~repro.resilience.ladder.ResilientEngine` for
            graceful degradation). A blown deadline raises
            ``DeadlineExceeded``.
        """
        from ..obs.metrics import get_metrics
        from ..obs.trace import span
        from ..resilience.deadline import deadline_scope
        from ..tuner.workload import observe_query

        options = resolve_options(options, entry="AQPEngine.sql()")
        seed, technique = options.seed, options.technique
        with maybe_trace(options):
            with span("query", engine="aqp", sql=query.strip()[:200]) as qsp:
                if options.tenant != "default":
                    qsp.set(tenant=options.tenant)
                with deadline_scope(options.deadline, options.budget):
                    bound = bind_sql(query, self.database)
                    spec = effective_spec(options, bound)
                    if spec is None and technique in (None, "exact"):
                        result = execute_exact(self.database, bound, seed)
                    elif spec is None:
                        raise UnsupportedQueryError(
                            "an error specification is required for "
                            "approximate execution"
                        )
                    else:
                        from .advisor import Advisor

                        advisor = Advisor(self.database)
                        result = advisor.run(
                            bound,
                            spec,
                            seed=seed,
                            force_technique=technique,
                            pilot_rate=options.pilot_rate,
                        )
                served = getattr(result, "technique", "exact")
                qsp.set(technique=served, stats=result.stats.to_dict())
                get_metrics().inc(
                    "queries_total", engine="aqp", technique=served
                )
                observe_query(bound, options.replace(spec=spec), result)
                return result
