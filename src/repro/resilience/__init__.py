"""Resilient query serving: deadlines, degradation, breakers, chaos.

The paper's survey is about what AQP techniques *trade away*; this
package is about what a deployment must survive *around* them: synopses
that are stale, missing, or mid-rebuild, estimators that blow their
deadline, and queries the planner cannot serve at the requested error.
Four pieces:

* :mod:`~repro.resilience.deadline` — cooperative :class:`Deadline` /
  :class:`ResourceBudget` objects threaded through the executor, the
  OLA/ripple loops, and synopsis builds;
* :mod:`~repro.resilience.ladder` — :class:`ResilientEngine`, the
  degradation ladder that turns any failure into the best answer the
  remaining budget allows (or a typed refusal with full provenance);
* :mod:`~repro.resilience.breaker` — counting circuit breakers for the
  ladder's rungs and the scatter-gather executor's shards;
* :mod:`~repro.resilience.faults` — the seeded fault-injection harness
  the chaos suite drives.
"""

from .breaker import CircuitBreaker
from .deadline import (
    Deadline,
    ManualClock,
    ResourceBudget,
    current_budget,
    current_deadline,
    deadline_scope,
)
from .faults import (
    FaultInjector,
    FaultSpec,
    corrupt_shard,
    inject,
    install_injector,
    kill_shard,
    maybe_fault,
    shard_site,
    slow_shard,
)
from .ladder import LADDER_RUNGS, RESHARD_RUNG, ResilientEngine

__all__ = [
    "Deadline",
    "ManualClock",
    "ResourceBudget",
    "deadline_scope",
    "current_deadline",
    "current_budget",
    "FaultInjector",
    "FaultSpec",
    "inject",
    "install_injector",
    "maybe_fault",
    "shard_site",
    "kill_shard",
    "slow_shard",
    "corrupt_shard",
    "ResilientEngine",
    "LADDER_RUNGS",
    "RESHARD_RUNG",
    "CircuitBreaker",
]
