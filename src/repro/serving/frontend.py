"""The concurrent serving front door.

:class:`ServingFrontend` turns the library into a service: many client
threads submit SQL concurrently, a bounded admission queue absorbs
bursts, per-tenant token buckets meter cost, and an
:class:`~repro.serving.overload.OverloadController` sheds *accuracy*
(by shrinking the resilience ladder's entry rung fleet-wide) before it
sheds *work*. The pipeline per query:

1. **admission** (caller thread): estimate the query's cost from the
   catalog (full-scan bound), charge the tenant's token bucket, and
   reserve a queue slot — either step can fail with a typed
   :class:`~repro.core.exceptions.QueryRejected` (``reason="budget"`` /
   ``"overload"``) *before any work happens*;
2. **queueing**: entries are ordered by (priority class, seeded
   tie-break, sequence) — interactive beats batch, ties broken by a
   splitmix64 draw keyed on the query id so two runs of the same
   workload drain in the same order regardless of submission jitter;
3. **service** (worker thread): a query that waited past the configured
   ``queue_deadline_s`` is rejected typed (``reason="queue_deadline"``)
   instead of running doomed; otherwise it runs through the
   :class:`~repro.resilience.ladder.ResilientEngine` under the ambient
   deadline/budget scope (which also reaches scatter-gather shards) and
   inside a :func:`~repro.resilience.faults.query_scope`, so fault
   injection stays deterministic per query no matter the interleaving;
4. **settlement**: the admission charge is reconciled against the
   measured :class:`~repro.engine.executor.ExecutionStats` actuals, and
   the query's fate (deadline miss? refusal?) feeds the overload
   controller's sliding window.

Every submitted query therefore ends in exactly one of: an answer
(possibly from a shed rung, with ``shed_to`` provenance), a typed
:class:`~repro.core.exceptions.QueryRefused`, or a typed
:class:`QueryRejected` — the invariant the concurrent chaos suite
sweeps. With no overload, no budgets, and no faults, the frontend is a
pass-through: answers are bitwise-identical to the unwrapped
:class:`~repro.engine.database.Database` path.
"""

from __future__ import annotations

import threading
import time
import zlib
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from ..core.exceptions import QueryRejected, QueryRefused, ReproError
from ..core.options import PRIORITY_CLASSES, QueryOptions, resolve_options
from ..engine.database import Database
from ..obs.metrics import get_metrics
from ..obs.trace import span
from ..resilience.faults import query_scope, splitmix64
from ..resilience.ladder import ResilientEngine
from ..storage.cost import scan_cost
from .budgets import TenantBudgets
from .overload import OverloadController

__all__ = ["ServingFrontend", "QueryTicket", "PRIORITY_CLASSES"]


class QueryTicket:
    """Handle for one submitted query; fulfilled by a worker thread."""

    def __init__(
        self, query_id: int, tenant: str, priority: str, query: str
    ) -> None:
        self.query_id = query_id
        self.tenant = tenant
        self.priority = priority
        self.query = query
        #: seconds spent in the admission queue (set at dequeue)
        self.queue_wait: Optional[float] = None
        #: entry rung the overload controller imposed, if any
        self.shed_to: Optional[str] = None
        #: "ok" | "refused" | "rejected" once done
        self.outcome: Optional[str] = None
        self._result: object = None
        self._error: Optional[BaseException] = None
        self._done = threading.Event()

    # ------------------------------------------------------------------
    def _fulfill(self, result: object) -> None:
        self._result = result
        self.outcome = "ok"
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        if isinstance(error, QueryRejected):
            self.outcome = "rejected"
        elif isinstance(error, QueryRefused):
            self.outcome = "refused"
        else:
            self.outcome = "refused"  # typed ReproError ~= refusal
        self._done.set()

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query {self.query_id} not finished within {timeout}s"
            )
        return self._error

    def result(self, timeout: Optional[float] = None):
        """Block for the answer; re-raises typed refusals/rejections."""
        error = self.exception(timeout)
        if error is not None:
            raise error
        return self._result


class _QueueEntry:
    """One queued query plus everything its service needs."""

    __slots__ = (
        "ticket",
        "sort_key",
        "enqueued_at",
        "estimate",
        "options",
        "no_shed",
    )

    def __init__(self, ticket: QueryTicket, sort_key: tuple) -> None:
        self.ticket = ticket
        self.sort_key = sort_key

    def __lt__(self, other: "_QueueEntry") -> bool:
        return self.sort_key < other.sort_key


class ServingFrontend:
    """Thread-safe admission-controlled serving over a Database.

    Parameters
    ----------
    database:
        The :class:`Database` to serve (wrapped in a
        :class:`ResilientEngine` that does not warn on degraded answers,
        unless ``engine`` is given).
    engine:
        A prebuilt :class:`ResilientEngine` to serve through instead.
    workers:
        Service threads draining the admission queue.
    max_queue:
        Bound on queued (admitted, not yet running) queries; submissions
        beyond it are rejected typed with ``reason="overload"``.
    queue_deadline_s:
        If set, a query that *waited* longer than this is rejected at
        dequeue (``reason="queue_deadline"``) instead of running: under
        sustained overload the queue sheds its tail deterministically
        rather than serving every query late.
    budgets:
        Per-tenant :class:`TenantBudgets`; defaults to unlimited.
    controller:
        The :class:`OverloadController`; defaults to one sized to
        ``max_queue``. Pass ``None`` explicitly configured controllers
        for different thresholds.
    seed:
        Seed for queue tie-breaking and derived query ids.
    clock:
        Time source for queue waits and bucket refills (tests inject a
        manual clock).
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        engine: Optional[ResilientEngine] = None,
        workers: int = 4,
        max_queue: int = 64,
        queue_deadline_s: Optional[float] = None,
        budgets: Optional[TenantBudgets] = None,
        controller: Optional[OverloadController] = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if database is None and engine is None:
            raise ValueError("pass a database or a prebuilt engine")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.engine = engine or ResilientEngine(database, warn_on_degrade=False)
        self.database: Database = self.engine.database
        self.workers = workers
        self.max_queue = max_queue
        self.queue_deadline_s = queue_deadline_s
        self.budgets = budgets or TenantBudgets(clock=clock)
        self.controller = controller or OverloadController(max_queue)
        self.seed = seed
        self.clock = clock

        self._queue: List[_QueueEntry] = []
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._seq = 0
        self._in_flight = 0
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work and join the workers.

        Queued-but-unserved queries are rejected typed so no ticket is
        left hanging.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            doomed = list(self._queue)
            self._queue.clear()
            self._work_ready.notify_all()
            self._idle.notify_all()
        for entry in doomed:
            entry.ticket._fail(
                QueryRejected(
                    "serving frontend closed before this query ran",
                    reason="overload",
                    tenant=entry.ticket.tenant,
                )
            )
        for thread in self._threads:
            thread.join(timeout=timeout)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and nothing is in flight."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._queue or self._in_flight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    # ------------------------------------------------------------------
    # Admission (caller thread)
    # ------------------------------------------------------------------
    def estimate_cost(self, query: str) -> float:
        """A-priori cost estimate: the full-scan bound over the query's
        tables, in simulated cost units.

        Deliberately the *exact* plan's scan cost, not the approximate
        one: admission meters what the query could cost if every
        approximation fell through, and reconciliation refunds the
        difference afterwards. Unparseable queries estimate 0 (they will
        fail typed at execution; admission is not the SQL front-end).
        """
        from ..sql.binder import bind_sql

        try:
            bound = bind_sql(query, self.database)
        except ReproError:
            return 0.0
        total = 0.0
        for bt in bound.tables:
            table = self.database.table(bt.name)
            total += scan_cost(table.num_blocks, table.num_rows).total
        return total

    def submit(
        self,
        query: str,
        options: Optional[QueryOptions] = None,
        query_id: Optional[int] = None,
        no_shed: bool = False,
    ) -> QueryTicket:
        """Admit one query; returns a :class:`QueryTicket` immediately.

        ``options`` is a :class:`~repro.core.options.QueryOptions`
        (tenant and priority live there). An unknown keyword is a
        :class:`TypeError` right here in the caller's thread — never a
        late ticket exception inside a worker.

        Raises :class:`QueryRejected` *synchronously* when the tenant's
        budget has no room (``reason="budget"``) or the admission queue
        is full (``reason="overload"``) — rejection costs nothing, which
        is the point. ``no_shed=True`` exempts this query from the
        overload controller's entry-rung override (operator escape
        hatch; it still pays admission).
        """
        options = resolve_options(options, entry="ServingFrontend.submit()")
        tenant, priority = options.tenant, options.priority
        metrics = get_metrics()
        with self._lock:
            if self._closed:
                raise QueryRejected(
                    "serving frontend is closed", reason="overload",
                    tenant=tenant,
                )
            seq = self._seq
            self._seq += 1
        if query_id is None:
            query_id = splitmix64(self.seed, zlib.crc32(tenant.encode()), seq)
        ticket = QueryTicket(query_id, tenant, priority, query)
        with span(
            "admission", tenant=tenant, priority=priority, outcome="pending"
        ) as asp:
            estimate = self.estimate_cost(query)
            if not self.budgets.admit(tenant, estimate):
                asp.set(outcome="rejected:budget")
                metrics.inc(
                    "queries_rejected_total", reason="budget", tenant=tenant
                )
                raise QueryRejected(
                    f"tenant {tenant!r} budget cannot cover estimated cost "
                    f"{estimate:.1f} (available "
                    f"{self.budgets.available(tenant):.1f})",
                    reason="budget",
                    tenant=tenant,
                )
            entry = _QueueEntry(
                ticket,
                sort_key=(
                    PRIORITY_CLASSES[priority],
                    splitmix64(self.seed, query_id),
                    seq,
                ),
            )
            entry.enqueued_at = self.clock()
            entry.estimate = estimate
            entry.options = options
            entry.no_shed = no_shed
            with self._lock:
                if self._closed or len(self._queue) >= self.max_queue:
                    depth = len(self._queue)
                    overloaded = True
                else:
                    heappush(self._queue, entry)
                    depth = len(self._queue)
                    overloaded = False
                    self._work_ready.notify()
            if overloaded:
                # Give the admission charge back: the query never ran.
                self.budgets.reconcile(tenant, estimate, 0.0)
                self.controller.note_queue_depth(depth)
                asp.set(outcome="rejected:overload", queue_depth=depth)
                metrics.inc(
                    "queries_rejected_total", reason="overload", tenant=tenant
                )
                raise QueryRejected(
                    f"admission queue full ({depth}/{self.max_queue})",
                    reason="overload",
                    tenant=tenant,
                )
            self.controller.note_queue_depth(depth)
            asp.set(outcome="enqueued", queue_depth=depth)
            metrics.inc(
                "queries_admitted_total", tenant=tenant, priority=priority
            )
        return ticket

    def sql(
        self,
        query: str,
        options: Optional[QueryOptions] = None,
        timeout: Optional[float] = None,
    ):
        """Blocking convenience: submit + wait for the answer."""
        return self.submit(query, options=options).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Service (worker threads)
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._work_ready.wait()
                if self._closed and not self._queue:
                    return
                entry = heappop(self._queue)
                self._in_flight += 1
                depth = len(self._queue)
            self.controller.note_queue_depth(depth)
            try:
                self._serve(entry)
            finally:
                with self._lock:
                    self._in_flight -= 1
                    self._idle.notify_all()

    def _serve(self, entry: _QueueEntry) -> None:
        metrics = get_metrics()
        ticket = entry.ticket
        wait = max(self.clock() - entry.enqueued_at, 0.0)
        ticket.queue_wait = wait
        metrics.observe(
            "admission_wait_seconds", wait, tenant=ticket.tenant
        )
        if self.queue_deadline_s is not None and wait > self.queue_deadline_s:
            # Waited too long already: running now would only miss its
            # deadline and push everyone behind it later. Shed typed.
            self.budgets.reconcile(ticket.tenant, entry.estimate, 0.0)
            self.controller.record_outcome(deadline_missed=True)
            metrics.inc(
                "queries_rejected_total",
                reason="queue_deadline",
                tenant=ticket.tenant,
            )
            ticket._fail(
                QueryRejected(
                    f"queued {wait:.3f}s, past the queue deadline "
                    f"{self.queue_deadline_s:.3f}s",
                    reason="queue_deadline",
                    tenant=ticket.tenant,
                )
            )
            return
        entry_rung = None if entry.no_shed else self.controller.entry_rung()
        ticket.shed_to = entry_rung
        options = entry.options.replace(entry_rung=entry_rung)
        deadline = options.deadline
        result = None
        error: Optional[BaseException] = None
        try:
            # The engine's query pipeline scopes options.deadline/budget.
            with query_scope(ticket.query_id):
                result = self.engine.sql(ticket.query, options=options)
        except ReproError as exc:
            error = exc
        except Exception as exc:  # noqa: BLE001 — never hang a ticket
            error = exc
        # Settlement: measured actuals replace the a-priori estimate.
        if result is not None:
            actual = result.stats.simulated_cost().total
            self.budgets.reconcile(ticket.tenant, entry.estimate, actual)
        missed = bool(
            (deadline is not None and deadline.expired)
            or isinstance(error, QueryRefused)
        )
        self.controller.record_outcome(deadline_missed=missed)
        if error is not None:
            ticket._fail(error)
        else:
            ticket._fulfill(result)

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """Serving-layer health: queue, shed level, budgets."""
        with self._lock:
            depth = len(self._queue)
            in_flight = self._in_flight
        return {
            "queue_depth": depth,
            "queue_capacity": self.max_queue,
            "in_flight": in_flight,
            "shed_level": self.controller.level,
            "miss_rate": round(self.controller.miss_rate(), 4),
            "budgets": self.budgets.snapshot(),
        }
