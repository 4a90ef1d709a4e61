"""Adaptive overload control: shed accuracy, not queries.

The paper's contract is accuracy-for-resources; under overload a system
that honors it should *spend the accuracy budget first* and drop work
only at the very front door. This controller implements that policy as
a small, deterministic state machine over two pressure signals:

* **queue pressure** — admission-queue depth as a fraction of capacity,
  reported by the frontend on every enqueue/dequeue;
* **deadline-miss rate** — the fraction of recently served queries that
  blew their deadline or were refused, over a fixed sliding window.

The output is a **shed level** 0–3 mapping onto the resilience ladder's
entry rung:

====== =====================  =============================================
level  entry rung             meaning
====== =====================  =============================================
0      requested              normal serving, ladder unchanged
1      stale_synopsis         skip fresh-synopsis work, widen bars instead
2      cheaper_technique      skip synopsis rungs, sample at query time
3      partial_ola            serve whatever snapshot fits the deadline
====== =====================  =============================================

Stepping **up** is immediate (one level per evaluation) whenever either
signal crosses its threshold; stepping **down** requires
``recovery_patience`` consecutive calm evaluations (hysteresis, so the
level does not flap around the threshold). Every decision is a pure
function of the observation sequence — no wall clock, no RNG — which
keeps overload tests deterministic.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Optional

from ..core.options import LADDER_RUNGS
from ..obs.metrics import get_metrics

__all__ = ["OverloadController"]

#: shed level -> ladder entry rung (level 0 = no override)
SHED_RUNGS = LADDER_RUNGS[:4]


class OverloadController:
    """Maps queue pressure + deadline misses to a ladder entry rung."""

    def __init__(
        self,
        queue_capacity: int,
        shed_up_at: float = 0.75,
        shed_down_at: float = 0.25,
        miss_rate_threshold: float = 0.25,
        window: int = 32,
        recovery_patience: int = 8,
        max_level: int = 3,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if not (0.0 <= shed_down_at <= shed_up_at <= 1.0):
            raise ValueError("need 0 <= shed_down_at <= shed_up_at <= 1")
        if not (0 <= max_level < len(SHED_RUNGS)):
            raise ValueError(f"max_level must be in [0, {len(SHED_RUNGS) - 1}]")
        self.queue_capacity = queue_capacity
        self.shed_up_at = shed_up_at
        self.shed_down_at = shed_down_at
        self.miss_rate_threshold = miss_rate_threshold
        self.max_level = max_level
        self.recovery_patience = recovery_patience
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._level = 0
        self._calm_streak = 0
        self._depth = 0
        self._lock = threading.Lock()
        #: lifetime decision counters (reports/tests)
        self.steps_up = 0
        self.steps_down = 0

    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    def entry_rung(self) -> Optional[str]:
        """The ladder entry-rung override for the next admitted query.

        ``None`` at level 0: the ladder must run exactly as if no
        controller existed, which is what keeps no-overload serving
        bitwise-identical to the unwrapped engine.
        """
        with self._lock:
            return None if self._level == 0 else SHED_RUNGS[self._level]

    def miss_rate(self) -> float:
        with self._lock:
            return self._miss_rate_locked()

    def _miss_rate_locked(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    # ------------------------------------------------------------------
    def note_queue_depth(self, depth: int) -> None:
        """Report the admission queue's depth (called on enqueue/dequeue)."""
        with self._lock:
            self._depth = int(depth)
            self._evaluate_locked()
        get_metrics().set_gauge("serving_queue_depth", depth)

    def record_outcome(self, deadline_missed: bool) -> None:
        """Report one served query's fate into the sliding window."""
        with self._lock:
            self._outcomes.append(bool(deadline_missed))
            self._evaluate_locked()

    # ------------------------------------------------------------------
    def _evaluate_locked(self) -> None:
        pressure = self._depth / self.queue_capacity
        miss_rate = self._miss_rate_locked()
        hot = (
            pressure >= self.shed_up_at
            or miss_rate >= self.miss_rate_threshold
        )
        calm = (
            pressure <= self.shed_down_at
            and miss_rate <= self.miss_rate_threshold / 2.0
        )
        if hot:
            self._calm_streak = 0
            if self._level < self.max_level:
                self._level += 1
                self.steps_up += 1
                self._announce_locked("up")
        elif calm and self._level > 0:
            self._calm_streak += 1
            if self._calm_streak >= self.recovery_patience:
                self._level -= 1
                self._calm_streak = 0
                self.steps_down += 1
                self._announce_locked("down")
        else:
            self._calm_streak = 0

    def _announce_locked(self, direction: str) -> None:
        metrics = get_metrics()
        metrics.set_gauge("serving_shed_level", self._level)
        metrics.inc("shed_level_changes_total", direction=direction)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OverloadController(level={self.level}, "
            f"depth={self._depth}/{self.queue_capacity}, "
            f"miss_rate={self.miss_rate():.2f})"
        )
