"""Deterministic retry/backoff and circuit breaking.

Synopsis builds and cache fills are the two operations in this engine
that can *transiently* fail (in production: an object store hiccup, a
maintenance job holding a lock; here: whatever the fault injector
decides). The policy is the classic pair:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic jitter (seeded, so a chaos schedule replays exactly);
* :class:`CircuitBreaker` — after enough consecutive failures the
  breaker opens and callers skip the operation outright (the ladder
  moves to its next rung) instead of hammering a flapping builder; after
  a cooldown it half-opens and lets one probe through.

Both are hand-rolled: no external dependency, no wall-clock sleeping by
default. Backoff "sleeps" go through an injectable ``sleeper`` so tests
use a :class:`~repro.resilience.deadline.ManualClock` and real callers
may pass ``time.sleep``.
"""

from __future__ import annotations

import threading
import zlib
from typing import Callable, List, Optional, TypeVar

import numpy as np

from ..core.exceptions import DeadlineExceeded, SynopsisUnavailable
from ..obs.metrics import get_metrics
from ..obs.trace import event
from .deadline import Deadline, current_deadline
from .faults import current_query_id, splitmix_uniform

__all__ = ["RetryPolicy", "CircuitBreaker"]

T = TypeVar("T")


class RetryPolicy:
    """Bounded retries with seeded exponential backoff.

    Parameters
    ----------
    max_attempts:
        Total tries, including the first (so ``1`` disables retrying).
    base_delay / multiplier / max_delay:
        Backoff schedule: attempt ``k`` (0-based) waits
        ``min(base_delay * multiplier**k, max_delay)`` scaled by jitter.
    jitter:
        Fractional jitter width; the delay is scaled by a factor drawn
        uniformly from ``[1 - jitter, 1 + jitter]``. With a ``seed`` the
        draw is a *pure function* of ``(seed, site, ambient query id,
        attempt)`` — not a shared stream — so two policies with the same
        seed back off identically **and** concurrent queries cannot
        reorder each other's draws (one policy instance is safely shared
        across serving threads). With ``seed=None`` a stateful
        process-local RNG is used (non-reproducible by construction).
    sleeper:
        Callable receiving each delay. Defaults to a no-op that only
        records (simulated time); pass ``time.sleep`` for real waits or
        a ``ManualClock.advance`` for deterministic chaos time.
    retry_on:
        Exception classes that are considered transient. Anything else
        (notably :class:`DeadlineExceeded`) propagates immediately.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.01,
        multiplier: float = 2.0,
        max_delay: float = 1.0,
        jitter: float = 0.1,
        seed: Optional[int] = None,
        sleeper: Optional[Callable[[float], None]] = None,
        retry_on: tuple = (Exception,),
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed
        self.retry_on = retry_on
        self._rng = np.random.default_rng(seed)
        self._sleeper = sleeper
        #: simulated/real delays actually waited, for tests & provenance
        self.delays: List[float] = []

    # ------------------------------------------------------------------
    def backoff(self, attempt: int, site: str = "") -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        raw = min(
            self.base_delay * (self.multiplier ** attempt), self.max_delay
        )
        if self.jitter > 0:
            if self.seed is not None:
                query_id = current_query_id()
                u = splitmix_uniform(
                    self.seed,
                    zlib.crc32(site.encode("utf-8")),
                    query_id if query_id is not None else 0,
                    attempt,
                )
            else:
                u = float(self._rng.random())
            raw *= (1.0 - self.jitter) + 2.0 * self.jitter * u
        return raw

    def call(
        self,
        fn: Callable[[], T],
        site: str = "",
        deadline: Optional[Deadline] = None,
        breaker: Optional["CircuitBreaker"] = None,
    ) -> T:
        """Run ``fn`` under the policy; raise the last error when beaten.

        A ``breaker`` is consulted before every attempt and fed every
        outcome; an open breaker raises :class:`SynopsisUnavailable`
        without calling ``fn`` — the caller's cue to degrade. A
        ``deadline`` (explicit, else the ambient one) is checked between
        attempts, and backoff sleeps are capped at its remaining time, so
        retries never push a query past its time budget.

        :class:`DeadlineExceeded` from inside ``fn`` propagates without
        consuming a retry — but it still re-opens a half-open breaker: a
        probe that blew the deadline has not demonstrated recovery, and
        leaving the breaker ``half_open`` would hand the next caller a
        free probe against an operation we know nothing new about.
        """
        if deadline is None:
            deadline = current_deadline()
        last: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if attempt > 0:
                # Retries (not first attempts) are span-worthy: they mark
                # the transient failures the trace should surface.
                event(
                    "retry",
                    site=site or "operation",
                    attempt=attempt,
                    error=f"{type(last).__name__}: {last}" if last else "",
                )
                get_metrics().inc(
                    "retry_attempts_total", site=site or "operation"
                )
            if deadline is not None:
                deadline.check(site=f"retry:{site}")
            if breaker is not None and not breaker.allow():
                raise SynopsisUnavailable(
                    f"circuit open for {site or 'operation'}; not retrying"
                )
            try:
                result = fn()
            except DeadlineExceeded:
                # Never retry past a deadline checkpoint — but an aborted
                # half-open probe must not leave the breaker half-open.
                if breaker is not None and breaker.state == "half_open":
                    breaker.reopen()
                raise
            except self.retry_on as exc:
                last = exc
                if breaker is not None:
                    breaker.record_failure()
                if attempt + 1 < self.max_attempts:
                    delay = self.backoff(attempt, site=site)
                    if deadline is not None:
                        delay = min(delay, max(deadline.remaining(), 0.0))
                    self.delays.append(delay)
                    if self._sleeper is not None and delay > 0:
                        self._sleeper(delay)
                continue
            if breaker is not None:
                breaker.record_success()
            return result
        assert last is not None
        raise last


class CircuitBreaker:
    """A counting (not wall-clock) circuit breaker.

    State machine: ``closed`` → (``failure_threshold`` consecutive
    failures) → ``open`` → (``cooldown`` rejected ``allow()`` calls) →
    ``half_open`` → one probe; success closes, failure re-opens.

    Counting cooldowns instead of timing them keeps chaos runs
    deterministic: the breaker's behaviour is a pure function of the
    call sequence. State transitions are taken under a lock so breakers
    shared across serving threads (the ladder's per-rung breakers, the
    scatter-gather executor's per-shard breakers) count exactly.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: int = 2,
        name: str = "",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        #: label for the breaker's state-flip metrics ("anon" if unset)
        self.name = name
        self.state = "closed"
        self.consecutive_failures = 0
        self._rejections_while_open = 0
        #: lifetime counters for reports
        self.total_failures = 0
        self.total_successes = 0
        self.times_opened = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _flip(self, to: str) -> None:
        """Transition + the state-flip metric (no-op when already there)."""
        if self.state == to:
            return
        self.state = to
        get_metrics().inc(
            "breaker_transitions_total",
            breaker=self.name or "anon",
            to=to,
        )

    def allow(self) -> bool:
        """May the protected operation run right now?"""
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                self._rejections_while_open += 1
                if self._rejections_while_open >= self.cooldown:
                    self._flip("half_open")
                return False
            # half_open: let exactly one probe through
            return True

    def record_success(self) -> None:
        with self._lock:
            self.total_successes += 1
            self.consecutive_failures = 0
            self._flip("closed")

    def record_failure(self) -> None:
        with self._lock:
            self.total_failures += 1
            self.consecutive_failures += 1
            if self.state == "half_open" or (
                self.consecutive_failures >= self.failure_threshold
            ):
                self._flip("open")
                self.times_opened += 1
                self._rejections_while_open = 0

    def reopen(self) -> None:
        """Re-open without recording an ordinary failure.

        For probes that were *aborted* (e.g. by a deadline) rather than
        observed to fail: the operation's health is unknown, so the
        breaker returns to ``open`` and the cooldown restarts, but the
        failure counters — which describe the protected operation, not
        the caller's time budget — are untouched.
        """
        with self._lock:
            self._flip("open")
            self.times_opened += 1
            self._rejections_while_open = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CircuitBreaker({self.state}, "
            f"failures={self.consecutive_failures})"
        )
