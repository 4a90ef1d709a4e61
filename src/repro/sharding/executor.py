"""Scatter-gather execution over a :class:`ShardedTable`.

This module scatters and gathers; it does not execute. Every shard
hands back a *moment table* (:mod:`repro.online.estimation`): per group,
each SUM/COUNT piece ``p`` of the query (``AVG`` is SUM + COUNT), its
variance ``p__var`` for sampled techniques, and the rows behind it,
``__rows``. An exact shard folds the query's kernels — compiled *once*
(:func:`~repro.engine.fused.prepare_partial_aggregate`, through the
kernel cache) — over its shard, or block by block when a deadline,
budget, hedge carve-out or fault injector needs block boundaries; an
``ola`` shard hands back the moment table of one fixed-stop prefix of
its whole blocks (:func:`~repro.online.ola.fixed_stop_snapshot`,
``__rows`` counting the blocks it sampled, none for a census); a
``sample`` shard
folds the HT moments of its catalog sample. Shards run one after another in
the calling thread (on a thread pool when the query has a deadline).
Gathering is :func:`~.merge.merge_partial_tables` (concatenate,
regroup, add) for blocks and shards alike, then the intervals every
sampled answer gets: :func:`~repro.online.estimation.piece_intervals`
(its t rule reads the merged rows), the missing-shard widening added to
each piece, and :func:`~repro.online.estimation.combine_intervals`. The
serving contract — the whole point of this module — is that the answer
stays *honest* while the substrate fails:

* **Deadlines** — workers share the query's cooperative
  :class:`~repro.resilience.deadline.Deadline` (explicit or ambient via
  ``deadline_scope``) and check it at block boundaries; a shard that
  cannot finish fails *typed*, it does not wedge the query.
* **Hedging** — the primary attempt on a shard is abandoned at a block
  boundary once it has consumed :data:`HEDGE_FRACTION` of the remaining
  deadline (the straggler carve-out), and a second, hedged attempt runs
  at the ``shard.<i>.hedge`` fault site. Deterministic under a
  :class:`ManualClock`: "slow" faults advance the clock, the worker
  observes the elapsed time cooperatively.
* **Per-shard circuit breakers** — a flapping shard is skipped outright
  (status ``breaker_open``) after repeated failures until its cooldown
  half-opens it.
* **Quorum + honest widening** — the answer is assembled from the k
  shards that served. Missing shards contribute their *catalog
  statistics* instead of their data: ``SUM`` widens by the missing
  shards' subset-sum envelope ``[Σ negative, Σ positive]``, ``COUNT`` by
  ``[0, Σ rows]``, ``AVG`` by interval division of the two — so the
  reported CI deterministically contains every answer the lost data
  could have produced, on top of the served shards' own sampling error.
  The point estimate transfers the served shards' observed selectivity
  onto the missing rows. Below :data:`MIN_COVERAGE` (row-weighted
  fraction of shards served) the query is refused with full provenance.
* **Provenance** — one ``scatter_gather`` step per shard records its
  fate (``served`` / ``served_hedged`` / ``failed`` / ``breaker_open``,
  plus any abandoned attempts), and a summary step under the
  ``reshard_degraded`` rung carries the coverage; degraded answers set
  the same ``degraded`` flag the ladder uses, so ``result.is_degraded``
  behaves identically.

Widening is only possible for bare-column aggregates (the catalog holds
per-column envelopes, not per-expression ones); an expression aggregate
with a missing shard refuses rather than guesses.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec
from ..core.exceptions import (
    BudgetExhausted,
    DeadlineExceeded,
    QueryRefused,
    ReproError,
    SynopsisUnavailable,
    UnsupportedQueryError,
)
from ..core.options import QueryOptions
from ..core.result import ApproximateResult, QueryResult, claimed_relative_error
from ..core.session import run_query
from ..engine.aggregates import ROWS_COLUMN, AggregateSpec
from ..engine.executor import ExecutionStats
from ..engine.expressions import Column
from ..engine.fused import (
    MaskedRelation,
    PreparedChain,
    SliceRelation,
    apply_steps,
    filter_mask,
    prepare_partial_aggregate,
    run_prepared_aggregate,
)
from ..engine.kernel_cache import get_kernel_cache
from ..engine.table import Table
from ..obs.metrics import get_metrics
from ..obs.trace import current_span, current_tracer, event, span
from ..online.estimation import (
    combine_intervals,
    fold_moments,
    moment_kernels,
    piece_intervals,
)
from ..online.ola import exact_unless_sampled, fixed_stop_snapshot
from ..resilience.deadline import (
    Deadline,
    ResourceBudget,
    current_budget,
    current_deadline,
)
from ..resilience.faults import get_injector, maybe_fault, shard_site
from ..resilience.ladder import RESHARD_RUNG
from ..resilience.breaker import CircuitBreaker
from ..sql.binder import BoundQuery
from .merge import merge_partial_tables
from .table import ShardedTable, Shard

__all__ = ["ScatterGatherExecutor", "ShardOutcome", "SCATTER_RUNG"]

#: provenance rung name for the per-shard fan-out steps
SCATTER_RUNG = "scatter_gather"

#: Row-weighted coverage floor: an answer assembled from less of the
#: table than this is refused (:class:`QueryRefused`).
MIN_COVERAGE = 0.5
#: Straggler policy: under a deadline, the primary attempt on a shard
#: may use this fraction of the deadline remaining at its start before
#: it is abandoned for one hedged retry (which also fires after a failed
#: primary, hedged retries being cheaper than losing the shard).
HEDGE_FRACTION = 0.5

#: the per-shard techniques ``QueryOptions.technique`` may name;
#: ``"offline_sample"`` (the engine-wide spelling) means ``"sample"`` here
_TECHNIQUES = ("exact", "ola", "sample")

#: The one partial column beside a moment table's: a sampled shard's
#: (estimated) matched-row count, which the selectivity transfer reads
#: (an exact partial's ``__rows`` *is* its matched count).
_MATCHED = "__matched"


class _StragglerAbandoned(ReproError):
    """Internal: a primary shard attempt gave way to its hedge."""


@dataclass(frozen=True)
class _ShardQuery:
    """One bound query as every shard worker sees it."""

    bound: BoundQuery
    #: the query's partial-aggregate kernels (compiled once, read-only,
    #: so sharing them across the worker pool is safe)
    prepared: PreparedChain
    #: the HT moment kernels a ``sample`` shard folds its sample with
    #: (built once per query, like ``prepared``); ``None`` otherwise
    sample_kernels: Optional[PreparedChain]
    #: shard column name -> the alias-qualified name the kernels read
    rename: Dict[str, str]
    technique: str
    spec: Optional[ErrorSpec]
    seed: Optional[int]
    deadline: Optional[Deadline]
    budget: Optional[ResourceBudget]

    @property
    def key_aliases(self) -> Tuple[str, ...]:
        return self.prepared.aggregate.key_aliases

    @property
    def confidence(self) -> float:
        return self.spec.confidence if self.spec is not None else 0.95

    def view(self, table: Table, start: int = 0, stop: Optional[int] = None):
        """Zero-copy row range of ``table`` under the query's column names."""
        stop = table.num_rows if stop is None else stop
        return SliceRelation(table, start, stop, self.rename)

    def fold(self, table: Table, start: int, stop: int) -> Table:
        """The exact moment table of one row range."""
        rel = apply_steps(self.prepared.steps, self.view(table, start, stop))
        return run_prepared_aggregate(self.prepared, rel)


@dataclass
class ShardOutcome:
    """One shard's fate under one query."""

    shard_id: int
    status: str  # served | served_hedged | failed | breaker_open
    #: the shard's moment table (see ``_MATCHED``)
    partial: Optional[Table] = None
    #: rows actually read (work accounting)
    rows_scanned: int = 0
    detail: str = ""
    error: str = ""
    #: fates of earlier attempts ("abandoned" / "failed")
    attempts: Tuple[str, ...] = ()
    elapsed: float = 0.0

    @property
    def served(self) -> bool:
        return self.status in ("served", "served_hedged")


@dataclass
class _Widen:
    """Aggregated missing-shard envelope for one aggregate."""

    neg: float = 0.0
    pos: float = 0.0
    total: float = 0.0
    rows: int = 0


def _fmt_error(exc: Optional[BaseException]) -> str:
    return f"{type(exc).__name__}: {exc}" if exc else ""


class ScatterGatherExecutor:
    """Partition-tolerant aggregate serving over a :class:`ShardedTable`.

    Parameters
    ----------
    sharded:
        The shard substrate to serve from.
    max_workers:
        Thread-pool width for queries under a deadline; ``1`` runs
        their shards sequentially too (what the deterministic chaos
        sweeps use). A query without a deadline always runs its shards
        sequentially in the calling thread (see ``_scatter``).

    ``technique="sample"`` reads the per-shard samples that
    :meth:`ShardedTable.build_shard_samples` registers in the binder
    database's catalog. Every shard gets a primary and one hedged
    attempt, behind its own :class:`CircuitBreaker`.
    """

    def __init__(
        self,
        sharded: ShardedTable,
        max_workers: Optional[int] = None,
    ) -> None:
        self.sharded = sharded
        self.max_workers = max_workers
        self.breakers: Dict[int, CircuitBreaker] = {}
        # breaker() is called from pool worker threads; guard the
        # check-then-insert (the breakers themselves carry their own lock).
        self._breakers_lock = threading.Lock()

    # ------------------------------------------------------------------
    def breaker(self, shard_id: int) -> CircuitBreaker:
        with self._breakers_lock:
            if shard_id not in self.breakers:
                self.breakers[shard_id] = CircuitBreaker(name=f"shard.{shard_id}")
            return self.breakers[shard_id]

    # ------------------------------------------------------------------
    def sql(self, query: str, options: Optional[QueryOptions] = None):
        """Serve one aggregate query from the shards.

        ``options.technique`` picks the per-shard technique: ``"exact"``
        (the default) scans the shard, ``"ola"`` runs a fixed-stop
        online-aggregation snapshot per shard, ``"sample"`` (or
        ``"offline_sample"``) answers from registered per-shard samples.
        Returns :class:`QueryResult` (exact, full coverage, no spec) or
        :class:`ApproximateResult`; raises :class:`QueryRefused` below
        the coverage floor or when a missing shard cannot be honestly
        widened.

        ``options.tenant`` labels the query span and work metrics so a
        multi-tenant serving layer can attribute shard work; the
        tenant's deadline/budget arrive through the ambient
        ``deadline_scope`` (or ``options``) either way.
        """
        return run_query(
            query,
            options,
            door="ScatterGatherExecutor.sql()",
            engine="scatter_gather",
            database=self.sharded.binder_database(),
            stage=self._stage,
        )

    def _stage(self, bound: BoundQuery, spec, options: QueryOptions):
        """Check, scatter the query's kernels over the shards, gather."""
        technique = options.technique or "exact"
        if technique == "offline_sample":
            technique = "sample"
        self._check_supported(bound, technique)
        alias = bound.tables[0].alias
        q = _ShardQuery(
            bound=bound,
            prepared=prepare_partial_aggregate(bound, get_kernel_cache()),
            sample_kernels=moment_kernels(bound) if technique == "sample" else None,
            rename={c: f"{alias}.{c}" for c in self.sharded.column_names},
            technique=technique,
            spec=spec,
            seed=options.seed,
            deadline=current_deadline(),
            budget=current_budget(),
        )
        return self._gather(q, self._scatter(q)), {"mode": technique}

    # ------------------------------------------------------------------
    # Support checks
    # ------------------------------------------------------------------
    def _check_supported(self, bound: BoundQuery, technique: str) -> None:
        if technique not in _TECHNIQUES:
            raise UnsupportedQueryError(
                f"unknown shard technique {technique!r}"
            )
        if len(bound.tables) != 1:
            raise UnsupportedQueryError(
                "scatter-gather serves single-table queries"
            )
        if bound.tables[0].name != self.sharded.name:
            raise UnsupportedQueryError(
                f"query targets {bound.tables[0].name!r}, this executor "
                f"serves {self.sharded.name!r}"
            )
        if not bound.is_aggregate or not bound.aggregates:
            raise UnsupportedQueryError(
                "scatter-gather serves aggregate queries"
            )
        if bound.having is not None or bound.order_by or bound.limit is not None:
            raise UnsupportedQueryError(
                "HAVING/ORDER BY/LIMIT are not supported over shards"
            )
        aliases = {alias for _, alias in bound.group_keys}
        aliases.update(a.alias for a in bound.aggregates)
        for expr, _out_alias in bound.output_items:
            if not (isinstance(expr, Column) and expr.name in aliases):
                raise UnsupportedQueryError(
                    "scatter-gather serves plain key/aggregate outputs"
                )
        for agg in bound.aggregates:
            if agg.distinct:
                raise UnsupportedQueryError(
                    "DISTINCT aggregates do not merge across shards"
                )
            if agg.func not in ("sum", "count", "avg"):
                raise UnsupportedQueryError(
                    f"{agg.func.upper()} is not mergeable across shards"
                )
        if technique != "exact" and bound.group_keys:
            raise UnsupportedQueryError(
                f"{technique} shards do not serve GROUP BY: a uniform "
                "prefix or sample cannot protect groups"
            )

    @staticmethod
    def _bare_column(bound: BoundQuery, agg: AggregateSpec) -> Optional[str]:
        """The raw column a bare-column aggregate reads, else ``None``."""
        if agg.argument is None:
            return None
        if isinstance(agg.argument, Column):
            name = agg.argument.name
            prefix = bound.tables[0].alias + "."
            return name[len(prefix):] if name.startswith(prefix) else name
        return None

    # ------------------------------------------------------------------
    # Scatter
    # ------------------------------------------------------------------
    def _scatter(self, q: _ShardQuery) -> List[ShardOutcome]:
        shards = self.sharded.shards
        workers = self.max_workers or min(len(shards), 8)
        # ThreadPoolExecutor workers do not inherit contextvars: capture
        # the ambient trace scope here and re-root it per shard.
        tracer = current_tracer()
        parent = current_span()

        def run(shard: Shard) -> ShardOutcome:
            return self._run_shard(shard, q, tracer=tracer, parent=parent)

        # Under a deadline, concurrent shards keep one straggler from
        # spending the others' time. Without one every shard runs to the
        # end anyway, and the pool only overlaps numpy calls that release
        # the GIL: on 8 shards of 250k rows and 2 cores, ola and sample
        # shards ran slower pooled than in turn, and pooled latency moved
        # with the other core's load (a one-core CPU hog cost 26% of
        # throughput pooled, 4% sequential).
        if workers <= 1 or len(shards) == 1 or q.deadline is None:
            return [run(s) for s in shards]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, shards))

    def _run_shard(
        self, shard: Shard, q: _ShardQuery, tracer=None, parent=None
    ) -> ShardOutcome:
        # The span re-roots the ambient trace scope inside the worker
        # thread, so hedge/ola/fault events below land in this subtree.
        with span(
            f"shard.{shard.shard_id}", tracer=tracer, parent=parent
        ) as sp:
            outcome = self._shard_attempts(shard, q)
            sp.set(
                shard_status=outcome.status,
                attempts=list(outcome.attempts),
                rows_scanned=outcome.rows_scanned,
            )
            if not outcome.served:
                sp.fail(outcome.error or outcome.detail)
            return outcome

    def _shard_attempts(self, shard: Shard, q: _ShardQuery) -> ShardOutcome:
        deadline = q.deadline
        clock = deadline.clock if deadline is not None else time.monotonic
        start = clock()
        breaker = self.breaker(shard.shard_id)
        if not breaker.allow():
            return ShardOutcome(
                shard.shard_id,
                "breaker_open",
                detail="circuit open; shard skipped",
                elapsed=0.0,
            )
        attempts: List[str] = []
        last: Optional[BaseException] = None
        detail = ""
        for attempt in range(2):
            if deadline is not None and deadline.expired:
                last = last or DeadlineExceeded(
                    f"deadline expired before shard {shard.shard_id} attempt",
                    site=shard_site(shard.shard_id, "exec"),
                )
                detail = "deadline"
                break
            if attempt > 0:
                event("hedge", shard=shard.shard_id, attempt=attempt)
                get_metrics().inc(
                    "shard_hedges_total", shard=str(shard.shard_id)
                )
            give_way = None
            if attempt == 0 and deadline is not None:
                give_way = self._straggler_check(
                    shard.shard_id,
                    clock,
                    max(deadline.remaining(), 0.0) * HEDGE_FRACTION,
                )
            try:
                # Every attempt passes the shard's "exec" hazard (a killed
                # shard fails primary and hedge alike); hedged attempts
                # additionally pass "hedge" for hedge-targeted faults.
                marker = maybe_fault(shard_site(shard.shard_id, "exec"))
                if attempt > 0:
                    marker = (
                        maybe_fault(shard_site(shard.shard_id, "hedge"))
                        or marker
                    )
                if marker == "corrupt":
                    raise SynopsisUnavailable(
                        f"shard {shard.shard_id} failed checksum validation"
                    )
                partial, rows_scanned = self._execute_partial(
                    shard, q, give_way
                )
            except _StragglerAbandoned as exc:
                # Not a health signal — the shard was slow, not broken —
                # so the breaker is not fed; the hedge attempt follows.
                attempts.append("abandoned")
                last = exc
                detail = "straggler"
                continue
            except (DeadlineExceeded, BudgetExhausted) as exc:
                breaker.record_failure()
                return ShardOutcome(
                    shard.shard_id,
                    "failed",
                    detail=(
                        "deadline"
                        if isinstance(exc, DeadlineExceeded)
                        else "budget"
                    ),
                    error=_fmt_error(exc),
                    attempts=tuple(attempts),
                    elapsed=clock() - start,
                )
            except Exception as exc:  # injected faults, corruption, bugs
                breaker.record_failure()
                attempts.append("failed")
                last = exc
                detail = "error"
                continue
            breaker.record_success()
            return ShardOutcome(
                shard.shard_id,
                "served_hedged" if attempt > 0 else "served",
                partial=partial,
                rows_scanned=rows_scanned,
                attempts=tuple(attempts),
                elapsed=clock() - start,
            )
        return ShardOutcome(
            shard.shard_id,
            "failed",
            detail=detail or "error",
            error=_fmt_error(last),
            attempts=tuple(attempts),
            elapsed=clock() - start,
        )

    @staticmethod
    def _straggler_check(
        shard_id: int, clock, carve_out: float
    ) -> Callable[[], None]:
        """A block-boundary check that abandons the primary attempt once
        it has used its share of the deadline (the hedge follows)."""
        attempt_start = clock()

        def give_way() -> None:
            used = clock() - attempt_start
            if used > carve_out:
                raise _StragglerAbandoned(
                    f"shard {shard_id} primary attempt abandoned after "
                    f"{used:.3f}s (carve-out {carve_out:.3f}s)"
                )

        return give_way

    def _execute_partial(
        self,
        shard: Shard,
        q: _ShardQuery,
        give_way: Optional[Callable[[], None]],
    ) -> Tuple[Table, int]:
        """``(partial table, rows read)`` for one attempt on one shard."""
        with span(
            "scan",
            table=self.sharded.name,
            shard=shard.shard_id,
            mode=q.technique,
        ) as sp:
            blocks = shard.table.num_blocks
            if q.technique == "exact":
                partial, rows = self._exact_partial(shard, q, give_way)
            elif q.technique == "ola":
                partial, rows = self._ola_partial(shard, q, give_way)
                # whole blocks, the tail's included
                blocks = -(-rows // shard.table.block_size)
            else:
                partial, rows = self._sample_partial(shard, q)
                blocks = 0
            sp.set(rows_scanned=rows, blocks_scanned=blocks)
            return partial, rows

    # ------------------------------------------------------------------
    # Per-shard techniques
    # ------------------------------------------------------------------
    def _exact_partial(
        self,
        shard: Shard,
        q: _ShardQuery,
        give_way: Optional[Callable[[], None]],
    ) -> Tuple[Table, int]:
        table = shard.table
        whole_shard = (
            q.deadline is None
            and q.budget is None
            and give_way is None
            and get_injector() is None
        )
        if whole_shard or table.num_rows == 0:
            return q.fold(table, 0, table.num_rows), table.num_rows
        # Something wants block boundaries: fold block by block and merge
        # the block partials exactly as the gather merges shard partials.
        site = shard_site(shard.shard_id, "scan")
        blocks: List[Table] = []
        for b in range(table.num_blocks):
            if give_way is not None:
                give_way()
            maybe_fault(site)
            if q.deadline is not None:
                q.deadline.check(site=site)
            start, stop = table.block_bounds(b)
            if q.budget is not None:
                q.budget.charge(rows=stop - start, blocks=1, site=site)
            blocks.append(q.fold(table, start, stop))
        return merge_partial_tables(blocks, q.key_aliases), table.num_rows

    def _ola_partial(
        self,
        shard: Shard,
        q: _ShardQuery,
        give_way: Optional[Callable[[], None]],
    ) -> Tuple[Table, int]:
        table = shard.table
        site = shard_site(shard.shard_id, "scan")

        def on_step() -> None:
            maybe_fault(site)
            if give_way is not None:
                give_way()

        moments, matched, n = fixed_stop_snapshot(
            q.prepared,
            q.view(table),
            seed=[q.seed if q.seed is not None else 0, shard.shard_id],
            batch_size=max(256, table.num_rows // 20),
            block_size=table.block_size,
            deadline=q.deadline,
            on_step=on_step,
        )
        if q.budget is not None:
            q.budget.charge(rows=n, site=site)
        return moments.with_column(_MATCHED, np.array([matched])), n

    def _sample_partial(
        self, shard: Shard, q: _ShardQuery
    ) -> Tuple[Table, int]:
        from ..offline.catalog import SynopsisCatalog

        catalog = SynopsisCatalog.for_database(self.sharded.binder_database())
        entry = catalog.find_sample(
            self.sharded.name, require_fresh=False, shard=shard.shard_id
        )
        if entry is None:
            raise SynopsisUnavailable(
                f"no sample registered for shard {shard.shard_id}"
            )
        marker = maybe_fault(shard_site(shard.shard_id, "scan"))
        if marker == "corrupt":
            raise SynopsisUnavailable(
                f"shard {shard.shard_id} sample failed validation"
            )
        sample = entry.sample
        rel, weights = q.view(sample.table), sample.weights
        mask = filter_mask(q.prepared, rel)
        if mask is not None:
            rel, weights = MaskedRelation(rel, mask), weights[mask]
        moments = fold_moments(q.sample_kernels, rel, weights)
        return (
            moments.with_column(_MATCHED, np.array([weights.sum()])),
            sample.num_rows,
        )

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def _gather(self, q: _ShardQuery, outcomes: List[ShardOutcome]):
        provenance: List[Dict[str, object]] = []
        for o in outcomes:
            get_metrics().inc("shard_outcomes_total", status=o.status)
            provenance.append(
                {
                    "rung": SCATTER_RUNG,
                    "shard": o.shard_id,
                    "outcome": (
                        "ok"
                        if o.served
                        else ("skipped" if o.status == "breaker_open" else "failed")
                    ),
                    "status": o.status,
                    "detail": o.detail,
                    "error": o.error,
                    "attempts": list(o.attempts),
                    "degraded": False,
                    "technique": q.technique,
                }
            )
        served = [o for o in outcomes if o.served]
        missing_ids = [o.shard_id for o in outcomes if not o.served]
        total_rows = self.sharded.total_rows
        served_rows = self.sharded.rows_in([o.shard_id for o in served])
        coverage = served_rows / total_rows if total_rows else 0.0
        summary = {
            "rung": RESHARD_RUNG if missing_ids else SCATTER_RUNG,
            "outcome": "ok",
            "detail": (
                f"coverage {coverage:.2%} "
                f"({len(served)}/{len(outcomes)} shards)"
            ),
            "error": "",
            "degraded": bool(missing_ids),
            "technique": q.technique,
            "coverage": coverage,
            "shards_served": [o.shard_id for o in served],
            "shards_missing": missing_ids,
            "hedged": [o.shard_id for o in served if o.status == "served_hedged"],
        }
        provenance.append(summary)
        refusal = None
        if not served or coverage < MIN_COVERAGE:
            summary["detail"] = (
                f"coverage {coverage:.2%} below floor {MIN_COVERAGE:.2%}"
            )
            refusal = f"scatter-gather quorum failed: {summary['detail']}"
        else:
            widens, unboundable = self._widening(q.bound, missing_ids)
            if unboundable is not None:
                summary["detail"] = unboundable
                refusal = f"cannot widen for missing shards: {unboundable}"
        if refusal is not None:
            summary["outcome"] = "failed"
            get_metrics().inc(
                "queries_refused_total", engine="scatter_gather"
            )
            raise QueryRefused(refusal, provenance=provenance)
        return self._assemble(
            q, served, served_rows, widens, coverage, provenance
        )

    def _widening(
        self, bound: BoundQuery, missing_ids: List[int]
    ) -> Tuple[Dict[str, _Widen], Optional[str]]:
        """Aggregate the missing shards' envelopes per aggregate alias.

        Returns ``(widens, None)`` or ``({}, reason)`` when some missing
        shard cannot be honestly bounded for some aggregate.
        """
        widens: Dict[str, _Widen] = {
            agg.alias: _Widen() for agg in bound.aggregates
        }
        if not missing_ids:
            return widens, None
        for agg in bound.aggregates:
            w = widens[agg.alias]
            column = self._bare_column(bound, agg)
            for sid in missing_ids:
                stats = self.sharded.shards[sid].stats
                w.rows += stats.rows
                if agg.func == "count":
                    continue
                if column is None:
                    return {}, (
                        f"aggregate {agg.alias!r} is not a bare column; "
                        f"no catalog envelope for missing shard {sid}"
                    )
                bounds = stats.sum_envelope(column)
                if bounds is None:
                    return {}, (
                        f"no envelope for column {column!r} in missing "
                        f"shard {sid}"
                    )
                w.neg += bounds.negative
                w.pos += bounds.positive
                w.total += bounds.total
        return widens, None

    def _assemble(
        self,
        q: _ShardQuery,
        served: List[ShardOutcome],
        served_rows: int,
        widens: Dict[str, _Widen],
        coverage: float,
        provenance: List[Dict[str, object]],
    ):
        bound, technique, spec = q.bound, q.technique, q.spec
        merged = merge_partial_tables(
            [o.partial for o in served], q.key_aliases
        )
        if technique == "ola":
            merged = exact_unless_sampled(merged)
        matched = float(
            merged[ROWS_COLUMN if technique == "exact" else _MATCHED].sum()
        )
        sel = min(max(matched / served_rows, 0.0), 1.0) if served_rows else 0.0
        degraded = any(w.rows or w.neg or w.pos for w in widens.values())

        # Per-group selectivity of the lost rows is unknowable, so a
        # group keeps its served value and widens by the *full*
        # missing-shard envelope — conservative for every group. A
        # count is never negative, so its low end is clipped at 0.
        share = 0.0 if bound.group_keys else sel
        pieces = piece_intervals(bound, merged, q.confidence)
        for agg in bound.aggregates:
            w = widens[agg.alias]
            s = pieces.get(f"{agg.alias}__sum")
            if s is not None:
                center = min(max(share * w.total, w.neg), w.pos)
                s.value, s.low, s.high = (
                    s.value + center, s.low + w.neg, s.high + w.pos
                )
            c = pieces.get(f"{agg.alias}__count")
            if c is not None:
                c.value, c.low, c.high = (
                    c.value + share * w.rows,
                    np.maximum(c.low, 0.0),
                    c.high + w.rows,
                )
        cells = combine_intervals(bound, pieces)

        columns: Dict[str, np.ndarray] = {}
        ci_low: Dict[str, np.ndarray] = {}
        ci_high: Dict[str, np.ndarray] = {}
        for expr, out_alias in bound.output_items:
            cell = cells.get(expr.name)  # validated Column in _check_supported
            if cell is None:
                columns[out_alias] = merged[expr.name]
            else:
                columns[out_alias] = cell.value
                ci_low[out_alias] = cell.low
                ci_high[out_alias] = cell.high

        scanned = sum(o.rows_scanned for o in served)
        stats = ExecutionStats()
        stats.rows_scanned = scanned
        stats.agg_input_rows = scanned
        stats.rows_output = merged.num_rows
        table = Table(columns, name="aggregate")
        total_rows = self.sharded.total_rows
        if technique == "exact" and not degraded and spec is None:
            return QueryResult(
                table=table, stats=stats, provenance=provenance
            )
        asked = spec.relative_error if spec is not None else 0.05
        return ApproximateResult(
            table=table,
            stats=stats,
            spec=ErrorSpec(
                relative_error=claimed_relative_error(
                    asked, table, ci_low, ci_high
                ),
                confidence=q.confidence,
            ),
            technique=f"scatter_gather_{technique}",
            ci_low=ci_low,
            ci_high=ci_high,
            fraction_scanned=scanned / total_rows if total_rows else 0.0,
            approx_cost=float(scanned),
            exact_cost=float(total_rows),
            diagnostics={
                "mode": technique,
                "coverage": coverage,
                "shards_served": len(served),
                "shards_total": self.sharded.num_shards,
                "selectivity_estimate": sel,
                "widen_rule": "sum:[Σneg,Σpos] count:[0,rows] avg:interval-ratio",
                "groups_possibly_missing": bool(
                    bound.group_keys
                    and any(w.rows for w in widens.values())
                ),
            },
            provenance=provenance,
        )
