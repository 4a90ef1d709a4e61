"""The technique advisor.

Given a bound query and an error spec, the advisor walks a fixed
preference order — the :data:`TECHNIQUES` registry — and returns the
first answer. A technique *refuses* with :class:`UnsupportedQueryError`
(it cannot answer this query at all) or :class:`InfeasiblePlanError`
(not profitably under this spec); when every one refuses the advisor
falls back to exact execution, exactly the behaviour the survey says
every deployable AQP system needs. The order encodes the paper's
guidance:

1. an **offline synopsis** that already covers the query (fastest, but
   only if one was precomputed and is fresh);
2. the **pilot** two-stage online planner (a-priori guarantees, no
   precomputation);
3. **Quickr-style** query-time sampling (a-posteriori errors, still one
   pass at most);
4. **exact** execution.

:meth:`Advisor.first_answer` is the one place a chain is walked:
:meth:`Advisor.run` puts the exact fallback behind it, the degradation
ladder's ``requested`` rung does not, and its ``cheaper_technique`` rung
walks :data:`QUERY_TIME_TECHNIQUES`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from ..obs.metrics import get_metrics
from ..offline.rewriter import OfflineRewriter
from ..online.pilot import PilotPlanner
from ..online.quickr import QuickrPlanner
from ..sql.binder import BoundQuery
from .errorspec import ErrorSpec
from .exceptions import InfeasiblePlanError, UnsupportedQueryError
from .result import ApproximateResult
from .session import execute_exact

#: technique name -> ``planner(database, seed, pilot_rate)``, whose
#: ``run(bound, spec)`` answers or refuses; in preference order
TECHNIQUES = {
    "offline_sample": lambda db, seed, pilot_rate: OfflineRewriter(db),
    "pilot": lambda db, seed, pilot_rate: PilotPlanner(
        db, pilot_rate=pilot_rate, seed=seed
    ),
    "quickr": lambda db, seed, pilot_rate: QuickrPlanner(db, seed=seed),
}

#: the techniques that need nothing precomputed, least set-up first —
#: what is left to try once the requested technique has failed
QUERY_TIME_TECHNIQUES = ("quickr", "pilot")


class Advisor:
    """Chooses and runs an execution technique for one query."""

    def __init__(self, database) -> None:
        self.database = database

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
            return self.first_answer(
                (force_technique,), bound, spec, seed, pilot_rate, set(),
                f"technique {force_technique!r} is not applicable/"
                "profitable for this query",
            )
        try:
            return self.first_answer(
                TECHNIQUES, bound, spec, seed, pilot_rate, set(),
                "every approximate technique refused",
            )
        except InfeasiblePlanError:
            return execute_exact(self.database, bound, seed)

    def first_answer(
        self,
        names: Iterable[str],
        bound: BoundQuery,
        spec: ErrorSpec,
        seed: Optional[int],
        pilot_rate: float,
        refused: Set[str],
        reason: str,
    ) -> ApproximateResult:
        """Try ``names`` in order and return the first answer; raise
        :class:`InfeasiblePlanError` (``reason``) from the last refusal
        when none answers.

        A refusal is a function of the bound query, the spec and the
        seed, so callers that walk several chains for one query share a
        ``refused`` set: names in it are skipped, names that refuse are
        added. Any other failure (a fault, a deadline) propagates and
        leaves the technique eligible.
        """
        last: Optional[BaseException] = None
        try:
            for name in names:
                if name in refused:
                    continue
                planner = TECHNIQUES.get(name)
                if planner is None:
                    raise UnsupportedQueryError(f"unknown technique {name!r}")
                try:
                    return planner(self.database, seed, pilot_rate).run(bound, spec)
                except (UnsupportedQueryError, InfeasiblePlanError) as exc:
                    get_metrics().inc("technique_refusals_total", technique=name)
                    last = exc
                    refused.add(name)
            raise InfeasiblePlanError(reason) from last
        finally:
            # The refusal's traceback holds this frame; left in ``last``
            # it would keep itself, and every frame of the refusing
            # planner, alive until a full garbage collection.
            last = None
