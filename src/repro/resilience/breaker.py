"""Counting circuit breakers for the ladder's rungs and the shards.

After enough consecutive failures a :class:`CircuitBreaker` opens and
callers skip the operation outright (the ladder moves to its next rung,
the scatter-gather executor answers without the shard) instead of
hammering a flapping one; after a cooldown it half-opens and lets one
probe through. Hand-rolled: no external dependency, no wall clock.
"""

from __future__ import annotations

import threading

from ..obs.metrics import get_metrics

__all__ = ["CircuitBreaker"]


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
