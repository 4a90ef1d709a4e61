"""The degradation ladder: every query ends in an answer or a typed refusal.

:class:`ResilientEngine` wraps :class:`~repro.core.session.AQPEngine`'s
machinery with the serving-layer behaviour the survey's middleware
systems (VerdictDB, BlinkDB's driver) all grew in production: when the
requested technique fails — builder exception, stale synopsis, blown
deadline, infeasible spec — the query *falls through an explicit policy
chain* instead of aborting:

1. **requested** — the forced technique, or the advisor's approximate
   preference chain (:data:`~repro.core.advisor.TECHNIQUES`);
2. **stale_synopsis** — a cached synopsis that failed the freshness
   gate, with error bars widened by the staleness drift bound;
3. **cheaper_technique** — query-time sampling that needs no
   precomputation (:data:`~repro.core.advisor.QUERY_TIME_TECHNIQUES`),
   less whatever already refused this query;
4. **partial_ola** — the fixed-stop online-aggregation prefix that fits
   in the remaining deadline, reported with its honest CI;
5. **exact_no_guarantee** — exact execution, dropping the error
   contract entirely (there is an answer, there is no speedup);
6. **refusal** — a typed :class:`~repro.core.exceptions.QueryRefused`
   carrying the full provenance of every rung that was tried.

The ladder is a *stage* of the one query pipeline
(:func:`repro.core.session.run_query`), which binds the query and does
the accounting around it. Every step lands in the result's
``provenance`` list, every degraded answer is announced with a
:class:`DegradedAnswer` warning, and every rung runs under the query's
:class:`Deadline`/:class:`ResourceBudget` through the pipeline's ambient
scope — so the ladder's invariants (terminate by deadline + grace, never
claim a guarantee a degraded answer cannot honor, complete provenance)
hold by construction and are swept by the chaos suite.

**Widening rule** (rung 2). A sample built when the table had ``b`` rows
answers a table that now has ``r`` rows; let ``s = |r - b| / b`` be the
staleness. If growth is append-like (new rows exchangeable with old),
the true aggregate drifts from the synopsis-time target by at most
``≈ s·|value|`` in relative terms, so the ladder reports

    half_width' = half_width · (1 + s) + s · |value|

which covers both the original sampling error (inflated by the same
growth) and the drift. The ``degraded_stale_widened`` audit path
replays this rung against the ladder's exact answer to verify the
widened CIs still cover at the claimed rate.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from ..core.advisor import QUERY_TIME_TECHNIQUES, TECHNIQUES, Advisor
from ..core.errorspec import ErrorSpec
from ..core.exceptions import (
    BudgetExhausted,
    DeadlineExceeded,
    DegradedAnswer,
    InfeasiblePlanError,
    InjectedFault,
    QueryRefused,
    ReproError,
    SynopsisUnavailable,
    UnsupportedQueryError,
)
from ..core.options import LADDER_RUNGS, QueryOptions
from ..core.result import ApproximateResult, claimed_relative_error
from ..core.session import execute_exact, run_query
from ..engine.aggregates import ROWS_COLUMN
from ..engine.executor import ExecutionStats
from ..engine.fused import SliceRelation, prepare_partial_aggregate
from ..engine.kernel_cache import get_kernel_cache
from ..obs.metrics import get_metrics
from ..obs.trace import event, span
from ..offline.catalog import SynopsisCatalog
from ..online.estimation import (
    project_output_with_intervals,
    require_linear_aggregates,
)
from ..online.ola import fixed_stop_snapshot
from ..sql.binder import BoundQuery
from .breaker import CircuitBreaker
from .deadline import current_deadline
from .faults import maybe_fault

__all__ = ["ResilientEngine", "LADDER_RUNGS", "RESHARD_RUNG"]

#: provenance rung used by the scatter-gather executor when an answer is
#: assembled from k-of-n shards with CIs widened for the missing ones —
#: the multi-shard analogue of ``stale_synopsis`` widening (DESIGN.md
#: §2.11). Not part of the single-node fall-through order above.
RESHARD_RUNG = "reshard_degraded"

#: failures worth retrying: injected/environmental, not planner refusals
_TRANSIENT = (InjectedFault, OSError, MemoryError, ConnectionError)

#: cap on the staleness used for widening — past this the synopsis
#: describes a different table and the rung refuses instead of widening
_MAX_WIDEN_STALENESS = 4.0

#: rungs whose transient failures get a second attempt (the
#: synopsis-backed ones)
_RETRYABLE = ("requested", "stale_synopsis")

#: rungs that run past expiry: no deadline check before their attempt —
#: the rung's own batch loop observes the real deadline and, expired,
#: answers from one batch (a bounded read, within the grace allowance)
_RUNS_EXPIRED = ("partial_ola",)

#: provenance ``detail`` of a failed rung, by what it raised (first
#: match; anything that is not a ReproError is "unexpected")
_FAILURE_DETAIL = (
    (DeadlineExceeded, "deadline"),
    (BudgetExhausted, "budget"),
    ((UnsupportedQueryError, InfeasiblePlanError), "not applicable"),
    (SynopsisUnavailable, "synopsis unavailable"),
    (ReproError, ""),
)


def _step(
    rung: str,
    outcome: str,
    detail: str = "",
    error: Optional[BaseException] = None,
    degraded: bool = False,
    technique: str = "",
) -> Dict[str, object]:
    """One provenance record. ``outcome`` ∈ ok|failed|skipped."""
    return {
        "rung": rung,
        "outcome": outcome,
        "detail": detail,
        "error": f"{type(error).__name__}: {error}" if error else "",
        "degraded": degraded,
        "technique": technique,
    }


def _skipped(rung: str, detail: str) -> Dict[str, object]:
    """Provenance record (and trace event) of a rung that was not tried."""
    event("degrade", rung=rung, outcome="skipped", detail=detail)
    return _step(rung, "skipped", detail=detail)


class ResilientEngine:
    """Deadline-bounded, degradation-aware query serving over a Database.

    Parameters
    ----------
    database:
        The :class:`~repro.engine.database.Database` to serve.
    warn_on_degrade:
        Emit a :class:`DegradedAnswer` warning whenever an answer comes
        from below the requested rung.

    Transient failures on the synopsis-backed rungs (requested / stale)
    get a second attempt. Each rung sits behind a :class:`CircuitBreaker`:
    after repeated transient failures the rung is skipped outright (the
    ladder moves on) until its cooldown half-opens it.
    """

    def __init__(self, database, warn_on_degrade: bool = True) -> None:
        self.database = database
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self.warn_on_degrade = warn_on_degrade

    # ------------------------------------------------------------------
    def breaker(self, rung: str) -> CircuitBreaker:
        with self._breakers_lock:
            if rung not in self.breakers:
                self.breakers[rung] = CircuitBreaker(name=f"ladder.{rung}")
            return self.breakers[rung]

    # ------------------------------------------------------------------
    def sql(self, query: str, options: Optional[QueryOptions] = None):
        """Serve one query through the degradation ladder.

        Returns a :class:`QueryResult` or :class:`ApproximateResult`
        whose ``provenance`` records every rung tried; raises
        :class:`QueryRefused` (with the same provenance) only when every
        rung failed or the deadline left nothing runnable.

        ``options`` is a :class:`~repro.core.options.QueryOptions`.
        ``options.entry_rung`` starts the fall-through at a lower rung
        than ``requested`` — the overload controller's lever: under load
        the serving layer shrinks the entry rung *fleet-wide* so
        accuracy degrades before availability does. Rungs skipped this
        way are recorded in provenance with ``shed_to=<rung>`` so a
        degraded answer is always distinguishable from a failed one. An
        ``entry_rung`` that does not apply to this query (e.g. a
        spec-less query whose only rung is exact) is ignored rather
        than refused: shedding must never make a query less servable.
        """
        return run_query(
            query,
            options,
            door="ResilientEngine.sql()",
            engine="ladder",
            database=self.database,
            stage=self._stage,
        )

    def _stage(self, bound: BoundQuery, spec, options: QueryOptions):
        """The rung loop: the first rung that answers serves the query."""
        deadline, entry_rung = options.deadline, options.entry_rung
        technique = options.technique
        if technique not in (None, "exact") and technique not in TECHNIQUES:
            # Refused up front: a misspelt technique would otherwise fail
            # the requested rung and be served by a lower one.
            raise UnsupportedQueryError(f"unknown technique {technique!r}")
        labels: Dict[str, object] = {}
        provenance: List[Dict[str, object]] = []
        rungs = self._build_rungs(bound, spec, options)
        rung_names = [name for name, _ in rungs]
        if entry_rung in rung_names and rung_names.index(entry_rung) > 0:
            shed_index = rung_names.index(entry_rung)
            for name in rung_names[:shed_index]:
                step = _skipped(name, f"shed_to={entry_rung}")
                step["shed_to"] = entry_rung
                provenance.append(step)
            rungs = rungs[shed_index:]
            get_metrics().inc(
                "queries_shed_total", engine="ladder", shed_to=entry_rung
            )
            labels["shed_to"] = entry_rung
        for name, fn in rungs:
            if (
                deadline is not None
                and deadline.expired
                and name not in _RUNS_EXPIRED
            ):
                provenance.append(_skipped(name, "deadline expired"))
                continue
            try:
                with span("degrade", rung=name) as rsp:
                    result = self._attempt(name, fn)
                    rsp.set(outcome="ok")
            except Exception as exc:  # refusal, fault or bug: degrade, don't die
                detail = next(
                    (d for kinds, d in _FAILURE_DETAIL if isinstance(exc, kinds)),
                    "unexpected",
                )
                provenance.append(_step(name, "failed", detail=detail, error=exc))
                continue
            # Only the first rung of the full ladder can answer with no
            # step behind it; anything later is a degraded answer.
            degraded = len(provenance) > 0
            provenance.append(
                _step(
                    name,
                    "ok",
                    degraded=degraded,
                    technique=getattr(result, "technique", "exact"),
                    detail=self._describe(result),
                )
            )
            result.provenance = provenance
            if degraded and self.warn_on_degrade:
                warnings.warn(
                    DegradedAnswer(
                        f"query served from degraded rung {name!r}: "
                        f"{provenance[-1]['detail']}"
                    ),
                    stacklevel=4,  # the caller of sql(), past run_query
                )
            labels.update(rung=name, degraded=degraded)
            return result, labels
        get_metrics().inc("queries_refused_total", engine="ladder")
        raise QueryRefused(
            "every rung of the degradation ladder failed: "
            + "; ".join(f"{p['rung']}={p['outcome']}" for p in provenance),
            provenance=provenance,
        )

    # ------------------------------------------------------------------
    def _attempt(self, name: str, fn: Callable[[], object]):
        """Run one rung behind its breaker, twice if it is retryable.

        Before each attempt the ambient deadline is checked (except on
        rungs that run expired) and the breaker asked; an open breaker
        raises :class:`SynopsisUnavailable` — the ladder's cue to move
        on. A transient failure (the fault hook runs inside, so injected
        rung failures count) feeds the breaker. :class:`DeadlineExceeded`
        is never retried, but it re-opens a half-open breaker: a probe
        that blew the deadline has not demonstrated recovery. Any other
        error propagates without touching the breaker.
        """
        breaker = self.breaker(name)
        deadline = None if name in _RUNS_EXPIRED else current_deadline()
        attempts = 2 if name in _RETRYABLE else 1
        for attempt in range(attempts):
            if attempt:
                event(
                    "retry",
                    site=name,
                    attempt=attempt,
                    error=f"{type(last).__name__}: {last}",
                )
                get_metrics().inc("retry_attempts_total", site=name)
            if deadline is not None:
                deadline.check(site=f"retry:{name}")
            if not breaker.allow():
                raise SynopsisUnavailable(
                    f"circuit open for {name}; not retrying"
                )
            try:
                maybe_fault(f"ladder.{name}")
                result = fn()
            except DeadlineExceeded:
                if breaker.state == "half_open":
                    breaker.reopen()
                raise
            except _TRANSIENT as exc:
                breaker.record_failure()
                if attempt + 1 == attempts:
                    raise
                last = exc
            else:
                breaker.record_success()
                return result

    @staticmethod
    def _describe(result) -> str:
        if isinstance(result, ApproximateResult):
            return (
                f"technique={result.technique} spec={result.spec} "
                f"scanned={result.fraction_scanned:.2%}"
            )
        return "exact answer"

    # ------------------------------------------------------------------
    def _build_rungs(
        self, bound: BoundQuery, spec: Optional[ErrorSpec], options: QueryOptions
    ):
        """``(name, fn)`` per rung, in fall-through order; each runs
        under the query's ambient deadline/budget scope."""
        seed = options.seed

        def exact():
            return execute_exact(self.database, bound, seed)

        if spec is None:
            # No error contract: exact is the requested rung, the ladder
            # only protects termination (deadline/budget + refusal).
            return [("exact_no_guarantee", exact)]
        #: techniques that refused this query; not asked again (same
        #: bound query, same seed, same refusal)
        refused: Set[str] = set()
        return [
            (
                "requested",
                lambda: self._run_requested(bound, spec, options, refused),
            ),
            ("stale_synopsis", lambda: self._run_stale(bound, spec, seed)),
            (
                "cheaper_technique",
                lambda: self._run_cheaper(bound, spec, options, refused),
            ),
            ("partial_ola", lambda: self._run_partial_ola(bound, spec, options)),
            ("exact_no_guarantee", exact),
        ]

    # ------------------------------------------------------------------
    # Rung implementations
    # ------------------------------------------------------------------
    def _run_requested(self, bound, spec, options, refused):
        advisor = Advisor(self.database)
        if options.technique is not None:
            return advisor.run(
                bound,
                spec,
                seed=options.seed,
                force_technique=options.technique,
                pilot_rate=options.pilot_rate,
            )
        # The advisor's preference chain *without* its silent exact
        # fallback: exact-with-no-guarantee is an explicit lower rung
        # here, not an invisible default.
        return advisor.first_answer(
            TECHNIQUES,
            bound,
            spec,
            options.seed,
            options.pilot_rate,
            refused,
            "no approximate technique can honor the requested spec",
        )

    def _run_stale(self, bound, spec, seed):
        from ..offline.rewriter import OfflineRewriter

        catalog = SynopsisCatalog.for_database(self.database)
        if not catalog.samples and not catalog.join_synopses:
            raise SynopsisUnavailable("no synopses exist, stale or otherwise")
        marker = maybe_fault("sample.metadata")
        if marker == "corrupt":
            raise SynopsisUnavailable(
                "sample metadata failed validation (corrupted)"
            )
        self._validate_samples(catalog, bound)
        staleness = self._staleness_for(catalog, bound)
        if staleness > _MAX_WIDEN_STALENESS:
            raise SynopsisUnavailable(
                f"synopsis staleness {staleness:.2f} beyond the widening cap"
            )
        # Relax only the width gate — confidence (and its union-bound
        # split) stays the user's, so widened CIs keep their coverage.
        relaxed = replace(spec, relative_error=0.9)
        with catalog.allow_stale():
            result = OfflineRewriter(self.database).run(
                bound, relaxed, seed=seed
            )
        return self._widen(result, spec, staleness)

    def _run_cheaper(self, bound, spec, options, refused):
        # The requested rung already failed with the forced technique.
        return Advisor(self.database).first_answer(
            [t for t in QUERY_TIME_TECHNIQUES if t != options.technique],
            bound,
            spec,
            options.seed,
            options.pilot_rate,
            refused,
            "no cheaper technique is applicable",
        )

    def _run_partial_ola(self, bound, spec, options):
        deadline, budget = options.deadline, options.budget
        if len(bound.tables) != 1:
            raise UnsupportedQueryError("partial OLA serves single-table queries")
        if bound.group_keys:
            raise UnsupportedQueryError("partial OLA does not serve GROUP BY")
        require_linear_aggregates(
            bound,
            "partial OLA serves aggregate queries",
            "partial OLA cannot serve {func}",
        )
        target = bound.tables[0]
        base = self.database.table(target.name)
        if base.num_rows == 0:
            raise UnsupportedQueryError("empty table")
        qualified = SliceRelation(
            base, 0, base.num_rows,
            {c: f"{target.alias}.{c}" for c in base.column_names},
        )
        moments, _matched = fixed_stop_snapshot(
            prepare_partial_aggregate(bound, get_kernel_cache()),
            qualified,
            seed=options.seed,
            batch_size=max(512, base.num_rows // 50),
            deadline=deadline,
        )
        rows_seen = int(moments[ROWS_COLUMN][0])
        if budget is not None:
            budget.charge(rows=rows_seen, site="partial_ola")
        table, ci_low, ci_high = project_output_with_intervals(bound, spec, moments)
        stats = ExecutionStats()
        stats.rows_scanned = rows_seen
        stats.agg_input_rows = rows_seen
        stats.rows_output = table.num_rows
        fraction_seen = rows_seen / base.num_rows
        return ApproximateResult(
            table=table,
            stats=stats,
            spec=replace(
                spec,
                relative_error=claimed_relative_error(
                    spec.relative_error, table, ci_low, ci_high
                ),
            ),
            technique="partial_ola",
            ci_low=ci_low,
            ci_high=ci_high,
            fraction_scanned=fraction_seen,
            approx_cost=float(rows_seen),
            exact_cost=float(base.num_rows),
            diagnostics={
                "rows_seen": rows_seen,
                "fraction_seen": fraction_seen,
                "stopped_by": "deadline" if deadline is not None else "fixed_fraction",
            },
        )

    # ------------------------------------------------------------------
    # Stale-synopsis helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_samples(catalog: SynopsisCatalog, bound: BoundQuery) -> None:
        """Reject synopses with corrupted metadata before answering."""
        names = {t.name for t in bound.tables}
        for entry in catalog.samples:
            if entry.table not in names:
                continue
            weights = np.asarray(entry.sample.weights, dtype=np.float64)
            if weights.size and (
                not np.all(np.isfinite(weights)) or np.any(weights <= 0)
            ):
                raise SynopsisUnavailable(
                    f"sample of {entry.table!r} carries invalid HT weights"
                )
            if entry.built_at_rows < 0:
                raise SynopsisUnavailable(
                    f"sample of {entry.table!r} has negative built_at_rows"
                )

    def _staleness_for(
        self, catalog: SynopsisCatalog, bound: BoundQuery
    ) -> float:
        """Worst staleness among synopses that could answer ``bound``."""
        names = {t.name for t in bound.tables}
        worst = 0.0
        found = False
        for entry in catalog.samples:
            if entry.table in names:
                found = True
                worst = max(worst, entry.staleness(self.database))
        for syn in catalog.join_synopses:
            if syn.fact_table in names:
                found = True
                current = self.database.table(syn.fact_table).num_rows
                built = max(syn.built_at_rows, 1)
                worst = max(worst, abs(current - built) / built)
        if not found:
            raise SynopsisUnavailable(
                "no synopsis covers the query's tables"
            )
        return worst

    @staticmethod
    def _widen(
        result: ApproximateResult, spec: ErrorSpec, staleness: float
    ) -> ApproximateResult:
        """Apply the staleness drift bound to every CI (see module doc)."""
        s = min(max(staleness, 0.0), _MAX_WIDEN_STALENESS)
        for alias in list(result.ci_low):
            values = np.asarray(result.table[alias], dtype=np.float64)
            low = np.asarray(result.ci_low[alias], dtype=np.float64)
            high = np.asarray(result.ci_high[alias], dtype=np.float64)
            half = (high - low) / 2.0
            center = (high + low) / 2.0
            new_half = half * (1.0 + s) + s * np.abs(values)
            result.ci_low[alias] = center - new_half
            result.ci_high[alias] = center + new_half
        result.technique = f"{result.technique}_stale"
        result.spec = replace(
            spec,
            relative_error=min(
                0.99, spec.relative_error * (1.0 + s) + s
            ),
        )
        result.diagnostics = dict(result.diagnostics)
        result.diagnostics.update(
            {"staleness": s, "widen_rule": "half*(1+s) + s*|value|"}
        )
        return result
