"""Per-tenant token-bucket cost budgets.

A serving layer in front of a shared engine needs an answer to "who may
spend how much, and when": one tenant's dashboard refresh storm must not
starve everyone else. The classic mechanism is a token bucket per
tenant, denominated here in the engine's own *simulated cost units*
(:mod:`repro.storage.cost`) so the currency is the thing the paper
actually trades — work — rather than a query count:

* admission charges the **optimizer's a-priori estimate** of the query
  (a full-scan bound over the referenced tables: what the query would
  cost if approximation saved nothing);
* completion **reconciles** the charge against the
  :class:`~repro.engine.executor.ExecutionStats` actuals — a query that
  an offline sample answered for 2% of the estimate gets 98% of its
  tokens back, so approximate answers genuinely stretch a tenant's
  budget, exactly the economics AQP promises.

Buckets refill continuously at ``refill_rate`` cost-units/second against
an injectable clock (tests use a
:class:`~repro.resilience.deadline.ManualClock`), and reconciliation may
drive a bucket *negative* (the work already happened; the debt delays
the tenant's next admission instead of pretending the spend away).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

__all__ = ["TokenBucket", "TenantBudgets"]


class TokenBucket:
    """A continuously-refilling token bucket (thread-safe).

    Parameters
    ----------
    capacity:
        Maximum tokens the bucket holds (burst allowance), in simulated
        cost units.
    refill_rate:
        Tokens regained per second of ``clock`` time.
    clock:
        Monotonic time source; defaults to ``time.monotonic``.
    initial:
        Starting fill; defaults to a full bucket.
    """

    def __init__(
        self,
        capacity: float,
        refill_rate: float,
        clock: Callable[[], float] = time.monotonic,
        initial: Optional[float] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if refill_rate < 0:
            raise ValueError("refill_rate must be >= 0")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self.clock = clock
        self._tokens = self.capacity if initial is None else float(initial)
        self._last_refill = clock()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _refill_locked(self) -> None:
        now = self.clock()
        elapsed = max(now - self._last_refill, 0.0)
        self._last_refill = now
        if elapsed and self.refill_rate:
            self._tokens = min(
                self.capacity, self._tokens + elapsed * self.refill_rate
            )

    def available(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens

    def try_charge(self, cost: float) -> bool:
        """Atomically take ``cost`` tokens; False (and no change) if short.

        A charge is admitted when the *whole* estimate fits: partial
        admission would let a large query squeeze in on a sliver of
        budget and push its real cost onto everyone else's latency.
        """
        if cost < 0:
            raise ValueError("cost must be >= 0")
        with self._lock:
            self._refill_locked()
            if self._tokens < cost:
                return False
            self._tokens -= cost
            return True

    def settle(self, delta: float) -> None:
        """Apply a reconciliation: positive gives tokens back, negative
        charges extra. May drive the bucket negative (carried debt);
        credits are capped at capacity."""
        with self._lock:
            self._refill_locked()
            self._tokens = min(self.capacity, self._tokens + float(delta))


class _TenantState:
    __slots__ = ("bucket", "admitted", "rejected", "charged", "refunded")

    def __init__(self, bucket: TokenBucket) -> None:
        self.bucket = bucket
        self.admitted = 0
        self.rejected = 0
        self.charged = 0.0
        self.refunded = 0.0


class TenantBudgets:
    """Registry of per-tenant buckets with charge/reconcile accounting.

    Tenants get buckets through :meth:`configure`; an unconfigured
    tenant is unlimited (admission always succeeds), so wrapping a
    Database in a frontend changes nothing until budgets are asked for.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self._tenants: Dict[str, _TenantState] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def configure(
        self,
        tenant: str,
        capacity: float,
        refill_rate: float = 0.0,
        initial: Optional[float] = None,
    ) -> TokenBucket:
        """Install (or replace) a tenant's bucket."""
        bucket = TokenBucket(
            capacity, refill_rate, clock=self.clock, initial=initial
        )
        with self._lock:
            self._tenants[tenant] = _TenantState(bucket)
        return bucket

    def _state(self, tenant: str) -> Optional[_TenantState]:
        """The tenant's accounting, or ``None`` for an unlimited tenant."""
        with self._lock:
            return self._tenants.get(tenant)

    # ------------------------------------------------------------------
    def admit(self, tenant: str, estimate: float) -> bool:
        """Charge the a-priori ``estimate``; False == reject (no change)."""
        state = self._state(tenant)
        if state is None:
            return True
        if state.bucket.try_charge(estimate):
            with self._lock:
                state.admitted += 1
                state.charged += estimate
            return True
        with self._lock:
            state.rejected += 1
        return False

    def reconcile(self, tenant: str, estimate: float, actual: float) -> None:
        """Settle the difference between the admission charge and the
        measured actual cost (refund when approximation under-ran the
        estimate, extra charge when execution overshot it)."""
        state = self._state(tenant)
        if state is None:
            return
        delta = float(estimate) - float(actual)
        state.bucket.settle(delta)
        with self._lock:
            if delta > 0:
                state.refunded += delta
            else:
                state.charged += -delta

    def available(self, tenant: str) -> float:
        state = self._state(tenant)
        return float("inf") if state is None else state.bucket.available()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant accounting for metrics/benchmark reports."""
        with self._lock:
            tenants = dict(self._tenants)
        return {
            name: {
                "available": state.bucket.available(),
                "capacity": state.bucket.capacity,
                "admitted": state.admitted,
                "rejected": state.rejected,
                "charged": round(state.charged, 4),
                "refunded": round(state.refunded, 4),
            }
            for name, state in sorted(tenants.items())
        }
