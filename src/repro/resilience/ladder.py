"""The degradation ladder: every query ends in an answer or a typed refusal.

:class:`ResilientEngine` wraps :class:`~repro.core.session.AQPEngine`'s
machinery with the serving-layer behaviour the survey's middleware
systems (VerdictDB, BlinkDB's driver) all grew in production: when the
requested technique fails — builder exception, stale synopsis, blown
deadline, infeasible spec — the query *falls through an explicit policy
chain* instead of aborting:

1. **requested** — the forced technique, or the advisor's approximate
   preference chain (offline → pilot → quickr);
2. **stale_synopsis** — a cached synopsis that failed the freshness
   gate, with error bars widened by the staleness drift bound;
3. **cheaper_technique** — query-time sampling that needs no
   precomputation (quickr, then pilot);
4. **partial_ola** — whatever online-aggregation snapshot fits in the
   remaining deadline, reported with its honest CI;
5. **exact_no_guarantee** — exact execution, dropping the error
   contract entirely (there is an answer, there is no speedup);
6. **refusal** — a typed :class:`~repro.core.exceptions.QueryRefused`
   carrying the full provenance of every rung that was tried.

Every step lands in the result's ``provenance`` list, every degraded
answer is announced with a :class:`DegradedAnswer` warning, and every
rung runs under the query's :class:`Deadline`/:class:`ResourceBudget`
through the ambient scope — so the ladder's invariants (terminate by
deadline + grace, never claim a guarantee a degraded answer cannot
honor, complete provenance) hold by construction and are swept by the
chaos suite.

**Widening rule** (rung 2). A sample built when the table had ``b`` rows
answers a table that now has ``r`` rows; let ``s = |r - b| / b`` be the
staleness. If growth is append-like (new rows exchangeable with old),
the true aggregate drifts from the synopsis-time target by at most
``≈ s·|value|`` in relative terms, so the ladder reports

    half_width' = half_width · (1 + s) + s · |value|

which covers both the original sampling error (inflated by the same
growth) and the drift. The ``degraded_stale_widened`` audit path
replays this rung against an exact oracle to verify the widened CIs
still cover at the claimed rate.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import replace
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.advisor import Advisor
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
from ..core.options import (
    QueryOptions,
    effective_spec,
    maybe_trace,
    resolve_options,
)
from ..core.result import ApproximateResult
from ..core.session import execute_exact
from ..engine.executor import ExecutionStats
from ..engine.fused import SliceRelation, prepare_partial_aggregate
from ..engine.kernel_cache import get_kernel_cache
from ..engine.table import Table
from ..obs.metrics import get_metrics
from ..obs.trace import event, span
from ..offline.catalog import SynopsisCatalog
from ..online.ola import fixed_stop_snapshot
from ..sql.binder import BoundQuery, bind_sql
from .deadline import Deadline, ResourceBudget, deadline_scope
from .faults import maybe_fault
from .retry import CircuitBreaker, RetryPolicy

__all__ = ["ResilientEngine", "LADDER_RUNGS", "RESHARD_RUNG"]

#: rung names in fall-through order (documentation + provenance schema)
LADDER_RUNGS = (
    "requested",
    "stale_synopsis",
    "cheaper_technique",
    "partial_ola",
    "exact_no_guarantee",
)

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


class ResilientEngine:
    """Deadline-bounded, degradation-aware query serving over a Database.

    Parameters
    ----------
    database:
        The :class:`~repro.engine.database.Database` to serve.
    retry:
        Policy for transient failures on the synopsis-backed rungs
        (requested / stale). Defaults to 2 attempts with seeded jitter.
    breaker_threshold / breaker_cooldown:
        Per-rung circuit breakers: after this many consecutive transient
        failures a rung is skipped outright (the ladder moves on) until
        the cooldown half-opens it.
    warn_on_degrade:
        Emit a :class:`DegradedAnswer` warning whenever an answer comes
        from below the requested rung.
    """

    def __init__(
        self,
        database,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: int = 2,
        warn_on_degrade: bool = True,
    ) -> None:
        self.database = database
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(max_attempts=2, seed=0, retry_on=_TRANSIENT)
        )
        self._one_shot = RetryPolicy(
            max_attempts=1, jitter=0.0, seed=0, retry_on=_TRANSIENT
        )
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self.warn_on_degrade = warn_on_degrade

    # ------------------------------------------------------------------
    def breaker(self, rung: str) -> CircuitBreaker:
        with self._breakers_lock:
            if rung not in self.breakers:
                self.breakers[rung] = CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    cooldown=self._breaker_cooldown,
                    name=f"ladder.{rung}",
                )
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
        from ..tuner.workload import observe_query

        options = resolve_options(options, entry="ResilientEngine.sql()")
        seed, technique = options.seed, options.technique
        pilot_rate = options.pilot_rate
        deadline, budget = options.deadline, options.budget
        entry_rung = options.entry_rung
        if entry_rung is not None and entry_rung not in LADDER_RUNGS:
            raise ValueError(
                f"unknown entry rung {entry_rung!r} (expected one of "
                f"{LADDER_RUNGS})"
            )
        with maybe_trace(options), span(
            "query", engine="ladder", sql=query.strip()[:200]
        ) as qsp:
            with deadline_scope(deadline, budget):
                bound = bind_sql(query, self.database)
            spec = effective_spec(options, bound)
            provenance: List[Dict[str, object]] = []
            rungs = self._build_rungs(
                bound, spec, seed, technique, pilot_rate, deadline, budget
            )
            rung_names = [r[0] for r in rungs]
            if entry_rung in rung_names and rung_names.index(entry_rung) > 0:
                shed_index = rung_names.index(entry_rung)
                for name, *_ in rungs[:shed_index]:
                    step = _step(
                        name, "skipped", detail=f"shed_to={entry_rung}"
                    )
                    step["shed_to"] = entry_rung
                    provenance.append(step)
                    event(
                        "degrade",
                        rung=name,
                        outcome="skipped",
                        detail=f"shed_to={entry_rung}",
                    )
                rungs = rungs[shed_index:]
                get_metrics().inc(
                    "queries_shed_total", engine="ladder", shed_to=entry_rung
                )
                qsp.set(shed_to=entry_rung)
            for name, fn, retryable, cheap_when_expired, degrades in rungs:
                if (
                    deadline is not None
                    and deadline.expired
                    and not cheap_when_expired
                ):
                    provenance.append(
                        _step(name, "skipped", detail="deadline expired")
                    )
                    event(
                        "degrade",
                        rung=name,
                        outcome="skipped",
                        detail="deadline expired",
                    )
                    continue
                def _guarded(name=name, fn=fn):
                    # The fault hook runs inside the retry/breaker wrapper so
                    # injected rung failures are retried like any transient
                    # error and feed the rung's circuit breaker.
                    maybe_fault(f"ladder.{name}")
                    return fn()

                try:
                    with span("degrade", rung=name) as rsp:
                        result = self._attempt(
                            name,
                            _guarded,
                            retryable,
                            deadline,
                            cheap_when_expired,
                        )
                        rsp.set(outcome="ok")
                except DeadlineExceeded as exc:
                    provenance.append(
                        _step(name, "failed", detail="deadline", error=exc)
                    )
                    continue
                except BudgetExhausted as exc:
                    provenance.append(
                        _step(name, "failed", detail="budget", error=exc)
                    )
                    continue
                except (UnsupportedQueryError, InfeasiblePlanError) as exc:
                    provenance.append(
                        _step(name, "failed", detail="not applicable", error=exc)
                    )
                    continue
                except SynopsisUnavailable as exc:
                    provenance.append(
                        _step(name, "failed", detail="synopsis unavailable", error=exc)
                    )
                    continue
                except ReproError as exc:
                    provenance.append(_step(name, "failed", error=exc))
                    continue
                except Exception as exc:  # a bug or injected chaos: degrade, don't die
                    provenance.append(
                        _step(name, "failed", detail="unexpected", error=exc)
                    )
                    continue
                degraded = degrades and len(provenance) > 0
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
                served_technique = str(provenance[-1]["technique"])
                qsp.set(
                    rung=name,
                    technique=served_technique,
                    degraded=degraded,
                    stats=result.stats.to_dict(),
                )
                get_metrics().inc(
                    "queries_total",
                    engine="ladder",
                    rung=name,
                    technique=served_technique,
                )
                if degraded and self.warn_on_degrade:
                    warnings.warn(
                        DegradedAnswer(
                            f"query served from degraded rung {name!r}: "
                            f"{provenance[-1]['detail']}"
                        ),
                        stacklevel=2,
                    )
                observe_query(bound, options.replace(spec=spec), result)
                return result
            get_metrics().inc("queries_refused_total", engine="ladder")
            raise QueryRefused(
                "every rung of the degradation ladder failed: "
                + "; ".join(
                    f"{p['rung']}={p['outcome']}" for p in provenance
                ),
                provenance=provenance,
            )

    # ------------------------------------------------------------------
    def _attempt(
        self,
        name: str,
        fn: Callable[[], object],
        retryable: bool,
        deadline: Optional[Deadline],
        cheap_when_expired: bool = False,
    ):
        policy = self.retry if retryable else self._one_shot
        # Cheap rungs must still run after expiry (that is their point),
        # so the pre-attempt deadline check is suppressed — the rung's
        # own loop observes the deadline and stops gracefully.
        return policy.call(
            fn,
            site=name,
            deadline=None if cheap_when_expired else deadline,
            breaker=self.breaker(name),
        )

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
        self,
        bound: BoundQuery,
        spec: Optional[ErrorSpec],
        seed: Optional[int],
        technique: Optional[str],
        pilot_rate: float,
        deadline: Optional[Deadline],
        budget: Optional[ResourceBudget],
    ):
        """(name, fn, retryable, cheap_when_expired, degrades) tuples."""
        if spec is None:
            # No error contract: exact is the requested rung, the ladder
            # only protects termination (deadline/budget + refusal).
            return [
                (
                    "exact_no_guarantee",
                    lambda: self._run_exact(bound, seed, deadline, budget),
                    False,
                    False,
                    False,
                ),
            ]
        return [
            (
                "requested",
                lambda: self._run_requested(
                    bound, spec, seed, technique, pilot_rate, deadline, budget
                ),
                True,
                False,
                False,
            ),
            (
                "stale_synopsis",
                lambda: self._run_stale(bound, spec, seed, deadline, budget),
                True,
                False,
                True,
            ),
            (
                "cheaper_technique",
                lambda: self._run_cheaper(
                    bound, spec, seed, technique, pilot_rate, deadline, budget
                ),
                False,
                False,
                True,
            ),
            (
                "partial_ola",
                lambda: self._run_partial_ola(
                    bound, spec, seed, deadline, budget
                ),
                False,
                True,  # cheap: snapshots are O(1) once built
                True,
            ),
            (
                "exact_no_guarantee",
                lambda: self._run_exact(bound, seed, deadline, budget),
                False,
                False,
                True,
            ),
        ]

    # ------------------------------------------------------------------
    # Rung implementations
    # ------------------------------------------------------------------
    def _run_requested(
        self, bound, spec, seed, technique, pilot_rate, deadline, budget
    ):
        advisor = Advisor(self.database)
        with deadline_scope(deadline, budget):
            if technique is not None:
                return advisor.run(
                    bound,
                    spec,
                    seed=seed,
                    force_technique=technique,
                    pilot_rate=pilot_rate,
                )
            # The advisor's preference chain *without* its silent exact
            # fallback: exact-with-no-guarantee is an explicit lower
            # rung here, not an invisible default.
            last: Optional[BaseException] = None
            for t in ("offline_sample", "pilot", "quickr"):
                try:
                    return advisor.run(
                        bound,
                        spec,
                        seed=seed,
                        force_technique=t,
                        pilot_rate=pilot_rate,
                    )
                except (UnsupportedQueryError, InfeasiblePlanError) as exc:
                    last = exc
            raise InfeasiblePlanError(
                "no approximate technique can honor the requested spec"
            ) from last

    def _run_stale(self, bound, spec, seed, deadline, budget):
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
        with deadline_scope(deadline, budget):
            with catalog.allow_stale():
                result = OfflineRewriter(self.database).run(
                    bound, relaxed, seed=seed
                )
        return self._widen(result, spec, staleness)

    def _run_cheaper(
        self, bound, spec, seed, technique, pilot_rate, deadline, budget
    ):
        advisor = Advisor(self.database)
        last: Optional[BaseException] = None
        with deadline_scope(deadline, budget):
            for t in ("quickr", "pilot"):
                if t == technique:
                    continue  # already failed as the requested rung
                try:
                    return advisor.run(
                        bound,
                        spec,
                        seed=seed,
                        force_technique=t,
                        pilot_rate=pilot_rate,
                    )
                except (UnsupportedQueryError, InfeasiblePlanError) as exc:
                    last = exc
        raise InfeasiblePlanError("no cheaper technique is applicable") from last

    def _run_partial_ola(self, bound, spec, seed, deadline, budget):
        if len(bound.tables) != 1:
            raise UnsupportedQueryError("partial OLA serves single-table queries")
        if bound.group_keys:
            raise UnsupportedQueryError("partial OLA does not serve GROUP BY")
        if len(bound.aggregates) != 1:
            raise UnsupportedQueryError("partial OLA serves one aggregate")
        agg = bound.aggregates[0]
        if agg.func not in ("sum", "avg", "count"):
            raise UnsupportedQueryError(
                f"partial OLA cannot serve {agg.func.upper()}"
            )
        if len(bound.output_aliases) != 1:
            raise UnsupportedQueryError(
                "partial OLA serves bare aggregate outputs"
            )
        target = bound.tables[0]
        base = self.database.table(target.name)
        if base.num_rows == 0:
            raise UnsupportedQueryError("empty table")
        qualified = SliceRelation(
            base, 0, base.num_rows,
            {c: f"{target.alias}.{c}" for c in base.column_names},
        )
        _ola, snap = fixed_stop_snapshot(
            prepare_partial_aggregate(bound, get_kernel_cache()),
            qualified,
            agg=agg.func,
            confidence=spec.confidence,
            seed=seed,
            batch_size=max(512, base.num_rows // 50),
            deadline=deadline,
        )
        if budget is not None:
            budget.charge(rows=snap.rows_seen, site="partial_ola")
        alias = bound.output_aliases[0]
        stats = ExecutionStats()
        stats.rows_scanned = snap.rows_seen
        stats.agg_input_rows = snap.rows_seen
        stats.rows_output = 1
        achieved = snap.relative_half_width
        claimed = replace(
            spec,
            relative_error=min(
                0.99,
                max(
                    spec.relative_error,
                    achieved if math.isfinite(achieved) else 0.99,
                ),
            ),
        )
        return ApproximateResult(
            table=Table({alias: np.array([snap.value])}, name="aggregate"),
            stats=stats,
            spec=claimed,
            technique="partial_ola",
            ci_low={alias: np.array([snap.ci_low])},
            ci_high={alias: np.array([snap.ci_high])},
            fraction_scanned=snap.fraction_seen,
            approx_cost=float(snap.rows_seen),
            exact_cost=float(base.num_rows),
            diagnostics={
                "rows_seen": snap.rows_seen,
                "fraction_seen": snap.fraction_seen,
                "stopped_by": "deadline" if deadline is not None else "fixed_fraction",
            },
        )

    def _run_exact(self, bound, seed, deadline, budget):
        with deadline_scope(deadline, budget):
            return execute_exact(self.database, bound, seed)

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
