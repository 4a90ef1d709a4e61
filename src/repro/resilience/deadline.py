"""Cooperative deadlines and resource budgets.

Nothing in this engine preempts anything: a :class:`Deadline` is a shared
object that long-running loops *check* at natural boundaries (plan
operators, scans, OLA/ripple batches, synopsis builds). A check either
passes or raises :class:`~repro.core.exceptions.DeadlineExceeded` with
the name of the site that fired, so a query can never run unbounded but
also never stops mid-block with inconsistent state.

Two clock styles are supported:

* the default ``time.monotonic`` for real deployments, and
* :class:`ManualClock` for tests and the chaos harness, where only
  injected "slow" faults advance time — making every deadline scenario
  deterministic under a seed.

:class:`ResourceBudget` is the same idea for work instead of wall-clock:
rows/blocks charged past the budget raise
:class:`~repro.core.exceptions.BudgetExhausted`.

Deadlines travel two ways: explicitly (every executor/OLA entry point
takes a ``deadline=`` parameter) and ambiently via :func:`deadline_scope`
— a context manager the serving layer uses so that planner code paths it
does not control (advisor → rewriter → executor) still observe the
query's deadline through :func:`current_deadline`.
"""

from __future__ import annotations

import contextlib
import time
from contextvars import ContextVar
from typing import Callable, Iterator, Optional, Tuple

from ..core.exceptions import BudgetExhausted, DeadlineExceeded

__all__ = [
    "ManualClock",
    "Deadline",
    "ResourceBudget",
    "deadline_scope",
    "current_deadline",
    "current_budget",
    "resolve_deadline",
    "resolve_budget",
]


class ManualClock:
    """A clock that only moves when told to — the chaos tests' timebase."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("clocks do not run backwards")
        self._now += float(seconds)


class Deadline:
    """A point in time past which cooperative checkpoints raise.

    Parameters
    ----------
    seconds:
        Time allowed from construction (or the explicit ``start``).
    clock:
        Monotonic time source; defaults to ``time.monotonic``. Pass a
        :class:`ManualClock` for deterministic tests.
    grace_fraction:
        How far past the deadline the serving layer may run while
        *unwinding* (finishing the current block, recording provenance,
        taking the final snapshot). The chaos suite asserts total time
        stays within ``seconds * (1 + grace_fraction)``.
    """

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
        grace_fraction: float = 0.10,
        start: Optional[float] = None,
    ) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be positive")
        if grace_fraction < 0:
            raise ValueError("grace_fraction must be >= 0")
        self.seconds = float(seconds)
        self.clock = clock
        self.grace_fraction = float(grace_fraction)
        self.started_at = clock() if start is None else float(start)
        #: checkpoint sites that observed expiry (diagnostics)
        self.fired_sites: list = []

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self.clock() - self.started_at

    def remaining(self) -> float:
        return self.seconds - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    @property
    def grace_seconds(self) -> float:
        return self.seconds * self.grace_fraction

    def within_grace(self) -> bool:
        """Still inside deadline + grace (the unwind allowance)."""
        return self.elapsed() <= self.seconds + self.grace_seconds

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired:
            self.fired_sites.append(site)
            from ..obs.metrics import get_metrics

            get_metrics().inc(
                "deadline_misses_total", site=site or "unknown"
            )
            raise DeadlineExceeded(
                f"deadline of {self.seconds:.3f}s exceeded after "
                f"{self.elapsed():.3f}s"
                + (f" at {site}" if site else ""),
                site=site,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Deadline({self.seconds}s, remaining={self.remaining():.3f}s)"
        )


class ResourceBudget:
    """Caps on rows/blocks a query may touch, charged cooperatively.

    ``None`` for either cap means unlimited. Like deadlines, budgets are
    checked at block boundaries, so a single charge may overshoot by at
    most one block's worth of rows.
    """

    def __init__(
        self,
        max_rows: Optional[int] = None,
        max_blocks: Optional[int] = None,
    ) -> None:
        if max_rows is not None and max_rows < 0:
            raise ValueError("max_rows must be >= 0")
        if max_blocks is not None and max_blocks < 0:
            raise ValueError("max_blocks must be >= 0")
        self.max_rows = max_rows
        self.max_blocks = max_blocks
        self.rows_charged = 0
        self.blocks_charged = 0

    # ------------------------------------------------------------------
    def charge(self, rows: int = 0, blocks: int = 0, site: str = "") -> None:
        self.rows_charged += int(rows)
        self.blocks_charged += int(blocks)
        if self.max_rows is not None and self.rows_charged > self.max_rows:
            raise BudgetExhausted(
                f"row budget of {self.max_rows} exhausted "
                f"({self.rows_charged} charged)"
                + (f" at {site}" if site else ""),
                resource="rows",
            )
        if (
            self.max_blocks is not None
            and self.blocks_charged > self.max_blocks
        ):
            raise BudgetExhausted(
                f"block budget of {self.max_blocks} exhausted "
                f"({self.blocks_charged} charged)"
                + (f" at {site}" if site else ""),
                resource="blocks",
            )

    def remaining_rows(self) -> Optional[int]:
        if self.max_rows is None:
            return None
        return max(self.max_rows - self.rows_charged, 0)


# ----------------------------------------------------------------------
# Ambient (contextvar) propagation
# ----------------------------------------------------------------------

_SCOPE: ContextVar[Tuple[Optional[Deadline], Optional[ResourceBudget]]] = (
    ContextVar("repro_deadline_scope", default=(None, None))
)


@contextlib.contextmanager
def deadline_scope(
    deadline: Optional[Deadline], budget: Optional[ResourceBudget] = None
) -> Iterator[None]:
    """Make ``deadline``/``budget`` ambient for the enclosed code.

    The executor and the online loops fall back to the ambient scope
    when not handed an explicit deadline, so the serving layer can bound
    *every* code path of a query — including planner internals it never
    sees — with one ``with`` block.

    ``None`` arguments inherit from any enclosing scope rather than
    clearing it, so a nested ``deadline_scope(None, budget)`` tightens
    the budget without losing the outer deadline.
    """
    prev_deadline, prev_budget = _SCOPE.get()
    token = _SCOPE.set(
        (
            deadline if deadline is not None else prev_deadline,
            budget if budget is not None else prev_budget,
        )
    )
    try:
        yield
    finally:
        _SCOPE.reset(token)


def current_deadline() -> Optional[Deadline]:
    return _SCOPE.get()[0]


def current_budget() -> Optional[ResourceBudget]:
    return _SCOPE.get()[1]


def resolve_deadline(explicit: Optional[Deadline]) -> Optional[Deadline]:
    """Explicit parameter if given, else the ambient scope's deadline."""
    return explicit if explicit is not None else current_deadline()


def resolve_budget(explicit: Optional[ResourceBudget]) -> Optional[ResourceBudget]:
    """Explicit parameter if given, else the ambient scope's budget."""
    return explicit if explicit is not None else current_budget()
