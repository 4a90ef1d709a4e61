"""The query pipeline and the AQP engine facade.

:func:`run_query` is the one query lifecycle (options, trace, root span,
deadline scope, bind, error contract, accounting); every ``sql()`` front
door — this module's :class:`AQPEngine`, the degradation ladder, the
scatter-gather executor — is a *stage* passed to it.

:class:`AQPEngine`'s stage routes exact queries straight to the executor
and hands queries that carry an error specification to the
:mod:`~repro.core.advisor`, which chooses among the approximation
techniques registered with the database.

Typical use::

    engine = AQPEngine(db)
    exact = engine.sql("SELECT SUM(price) FROM sales")
    approx = engine.sql(
        "SELECT SUM(price) FROM sales ERROR WITHIN 5% CONFIDENCE 95%"
    )
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

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

#: stage labels low-cardinality enough to also label ``queries_total``
#: (the rest — ``degraded``, ``shed_to`` — stay on the span)
_COUNTER_LABELS = ("rung", "mode")


def execute_exact(
    database: Database, bound: BoundQuery, seed: Optional[int] = None
) -> QueryResult:
    """Optimize and run a bound query's plan exactly — the one exact path
    behind the session, the advisor's fallback and the ladder's last
    rung. Deadline and budget come from the ambient ``deadline_scope``."""
    plan = optimize_plan(bound.plan, database)
    table, stats = database.execute(plan, seed=seed, optimize=False)
    return QueryResult(table=table, stats=stats, plan_text=plan.explain())


def run_query(
    query: str,
    options: Optional[QueryOptions],
    *,
    door: str,
    engine: str,
    database,
    stage: Callable[..., Tuple[Any, Dict[str, Any]]],
):
    """The one query lifecycle; every ``sql()`` door is a ``stage`` over it.

    Resolves ``options``, opens the root ``query`` span (``engine``,
    ``sql``, non-default tenant), enters the query's deadline/budget
    scope, binds ``query`` against ``database`` and settles the error
    contract, then runs ``stage(bound, spec, options)`` — everything a
    door does between binding and accounting. The stage returns
    ``(result, labels)``; its labels (``rung``, ``degraded``,
    ``shed_to``, ``mode``) join ``technique`` and ``stats`` on the span,
    the routing ones also label the single ``queries_total`` increment,
    and the answer reaches the tuner's workload log once. A stage that
    raises (a refusal, a blown deadline) skips the accounting: only
    served queries are counted.
    """
    from ..obs.metrics import get_metrics
    from ..obs.trace import span
    from ..resilience.deadline import deadline_scope
    from ..tuner.workload import observe_query

    options = resolve_options(options, entry=door)
    tenant = {} if options.tenant == "default" else {"tenant": options.tenant}
    with maybe_trace(options), span(
        "query", engine=engine, sql=query.strip()[:200], **tenant
    ) as qsp:
        with deadline_scope(options.deadline, options.budget):
            bound = bind_sql(query, database)
            spec = effective_spec(options, bound)
            result, labels = stage(bound, spec, options)
        served = getattr(result, "technique", "exact")
        qsp.set(technique=served, stats=result.stats.to_dict(), **labels)
        get_metrics().inc(
            "queries_total",
            engine=engine,
            technique=served,
            **tenant,
            **{k: labels[k] for k in _COUNTER_LABELS if k in labels},
        )
        observe_query(bound, options.replace(spec=spec), result)
        return result


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
            and metric label), and ``trace``; ``entry_rung`` is inert
            (no ladder here — use
            :class:`~repro.resilience.ladder.ResilientEngine` for
            graceful degradation). A blown deadline raises
            ``DeadlineExceeded``.
        """
        return run_query(
            query,
            options,
            door="AQPEngine.sql()",
            engine="aqp",
            database=self.database,
            stage=self._stage,
        )

    def _stage(self, bound, spec, options):
        """Exact when there is no error contract, else the advisor."""
        if spec is not None:
            from .advisor import Advisor

            result = Advisor(self.database).run(
                bound,
                spec,
                seed=options.seed,
                force_technique=options.technique,
                pilot_rate=options.pilot_rate,
            )
        elif options.technique in (None, "exact"):
            result = execute_exact(self.database, bound, options.seed)
        else:
            raise UnsupportedQueryError(
                "an error specification is required for "
                "approximate execution"
            )
        return result, {}
