"""The technique advisor.

Given a bound query and an error spec, the advisor walks the technique
registry in preference order, checks *applicability* (can this technique
answer this query at all?) and *profitability* (will it beat exact
execution?), and runs the first that passes — falling back to exact
execution when nothing does, exactly the behaviour the survey says every
deployable AQP system needs.

Preference order encodes the paper's guidance:

1. an **offline synopsis** that already covers the query (fastest, but
   only if one was precomputed and is fresh);
2. the **pilot** two-stage online planner (a-priori guarantees, no
   precomputation);
3. **Quickr-style** query-time sampling (a-posteriori errors, still one
   pass at most);
4. **exact** execution.
"""

from __future__ import annotations

import math
from typing import Optional

from ..sql.binder import BoundQuery
from .errorspec import ErrorSpec
from .exceptions import InfeasiblePlanError, UnsupportedQueryError
from .result import ApproximateResult
from .session import execute_exact


class Advisor:
    """Chooses and runs an execution technique for one query."""

    def __init__(self, database) -> None:
        self.database = database

    # ------------------------------------------------------------------
    def run(
        self,
        bound: BoundQuery,
        spec: ErrorSpec,
        seed: Optional[int] = None,
        force_technique: Optional[str] = None,
        pilot_rate: float = 0.01,
    ):
        """Execute ``bound`` under ``spec``; returns an
        :class:`~repro.core.result.ApproximateResult` or, on fallback, a
        :class:`~repro.core.result.QueryResult`."""
        if force_technique == "exact":
            return execute_exact(self.database, bound, seed)
        if force_technique is not None:
            runner = {
                "pilot": self._try_pilot,
                "quickr": self._try_quickr,
                "offline_sample": self._try_offline,
            }.get(force_technique)
            if runner is None:
                raise UnsupportedQueryError(
                    f"unknown technique {force_technique!r}"
                )
            result = runner(bound, spec, seed, pilot_rate)
            if result is None:
                raise InfeasiblePlanError(
                    f"technique {force_technique!r} is not applicable/"
                    "profitable for this query"
                )
            return result
        for runner in (self._try_offline, self._try_pilot, self._try_quickr):
            result = runner(bound, spec, seed, pilot_rate)
            if result is not None:
                return result
        return execute_exact(self.database, bound, seed)

    # ------------------------------------------------------------------
    def _try_offline(
        self,
        bound: BoundQuery,
        spec: ErrorSpec,
        seed: Optional[int],
        pilot_rate: float,
    ) -> Optional[ApproximateResult]:
        from ..offline.rewriter import OfflineRewriter

        try:
            return OfflineRewriter(self.database).run(bound, spec, seed=seed)
        except (UnsupportedQueryError, InfeasiblePlanError):
            return None

    def _try_pilot(
        self,
        bound: BoundQuery,
        spec: ErrorSpec,
        seed: Optional[int],
        pilot_rate: float,
    ) -> Optional[ApproximateResult]:
        from ..online.pilot import PilotPlanner

        try:
            planner = PilotPlanner(
                self.database, pilot_rate=pilot_rate, seed=seed
            )
            return planner.run(bound, spec)
        except (UnsupportedQueryError, InfeasiblePlanError):
            return None

    def _try_quickr(
        self,
        bound: BoundQuery,
        spec: ErrorSpec,
        seed: Optional[int],
        pilot_rate: float,
    ) -> Optional[ApproximateResult]:
        from ..online.quickr import QuickrPlanner

        try:
            return QuickrPlanner(self.database, seed=seed).run(bound, spec)
        except (UnsupportedQueryError, InfeasiblePlanError):
            return None
