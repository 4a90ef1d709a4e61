"""The unified per-query options object shared by every ``sql()`` front door.

The system grew five query entry points — :meth:`AQPEngine.sql`,
:meth:`Database.sql`, :meth:`ResilientEngine.sql`,
:meth:`ScatterGatherExecutor.sql`, and :meth:`ServingFrontend.submit` —
each with its own drifting keyword list. :class:`QueryOptions` collapses
them onto one dataclass: every entry point accepts ``options=`` carrying
the same fields, so a query's *intent* (seed, error contract, technique,
deadline, tenant, ...) has exactly one spelling no matter which door it
walks through. That uniformity is what makes workload fingerprints
comparable across front doors — the :mod:`repro.tuner` reads the same
object everywhere.

The entry points take no other per-query keywords, so a misspelt one is
Python's own :class:`TypeError` at the call site, in the caller's thread
— never a late ticket exception inside a serving worker.

Fields an entry point cannot honor are accepted but inert (documented
per entry point) — passing ``entry_rung`` to the exact
:meth:`Database.sql` path is not an error, the same way passing a
``deadline`` to a query that finishes early is not. A value no entry
point could honor (a ``pilot_rate`` outside (0, 1], an unknown
``entry_rung`` or ``priority``) is refused by every door alike, before
binding.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from .errorspec import ErrorSpec
from .exceptions import UnsupportedQueryError

__all__ = [
    "LADDER_RUNGS",
    "PRIORITY_CLASSES",
    "QueryOptions",
    "QUERY_OPTION_FIELDS",
    "resolve_options",
    "effective_spec",
    "maybe_trace",
]

#: degradation-ladder rung names in fall-through order (documentation,
#: provenance schema, and the values ``entry_rung`` may take)
LADDER_RUNGS = (
    "requested",
    "stale_synopsis",
    "cheaper_technique",
    "partial_ola",
    "exact_no_guarantee",
)

#: admission priority classes in service order (lower value served
#: first); the values ``priority`` may take
PRIORITY_CLASSES: Dict[str, int] = {"interactive": 0, "batch": 1}


@dataclass(frozen=True)
class QueryOptions:
    """Everything a caller may ask of one query, in one object.

    Parameters
    ----------
    seed:
        RNG seed for any sampling this query performs (reproducibility).
    spec:
        Error contract (:class:`~repro.core.errorspec.ErrorSpec`);
        overrides / replaces an ``ERROR WITHIN`` SQL clause.
    technique:
        Force one technique (``"exact"``, ``"pilot"``, ``"quickr"``,
        ``"offline_sample"``) instead of letting the advisor choose. The
        scatter-gather executor additionally understands ``"ola"`` and
        ``"sample"`` (its per-shard modes).
    pilot_rate:
        Stage-1 sampling rate for pilot-style online planners, in (0, 1].
    deadline / budget:
        Cooperative :class:`~repro.resilience.deadline.Deadline` /
        :class:`~repro.resilience.deadline.ResourceBudget` bounding the
        query.
    entry_rung:
        Start the degradation ladder at this rung of
        :data:`LADDER_RUNGS` (overload shedding / operator override);
        inert on entry points without a ladder.
    tenant / priority:
        Multi-tenant attribution and admission-queue class. Outside the
        serving frontend these only label spans/metrics/fingerprints.
    trace:
        When true and no ambient tracer is active, run the query under a
        fresh :class:`~repro.obs.trace.Tracer` (reachable afterwards via
        :func:`maybe_trace`'s yielded handle).
    """

    seed: Optional[int] = None
    spec: Optional[ErrorSpec] = None
    technique: Optional[str] = None
    pilot_rate: float = 0.01
    deadline: Optional[object] = None
    budget: Optional[object] = None
    entry_rung: Optional[str] = None
    tenant: str = "default"
    priority: str = "interactive"
    trace: bool = False

    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "QueryOptions":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ish view (spec flattened; deadline/budget by repr)."""
        return {
            "seed": self.seed,
            "spec": (
                {
                    "relative_error": self.spec.relative_error,
                    "confidence": self.spec.confidence,
                }
                if self.spec is not None
                else None
            ),
            "technique": self.technique,
            "pilot_rate": self.pilot_rate,
            "deadline": repr(self.deadline) if self.deadline else None,
            "budget": repr(self.budget) if self.budget else None,
            "entry_rung": self.entry_rung,
            "tenant": self.tenant,
            "priority": self.priority,
            "trace": self.trace,
        }


#: the canonical field list every ``sql()`` entry point accepts
QUERY_OPTION_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(QueryOptions)
)


def resolve_options(
    options: Optional[QueryOptions] = None, entry: str = "sql()"
) -> QueryOptions:
    """``options`` itself, or the defaults when the caller passed none.

    Raises :class:`UnsupportedQueryError` naming ``entry`` for a value no
    door can honor, so every door refuses it the same way.
    """
    if options is None:
        return QueryOptions()
    if not isinstance(options, QueryOptions):
        raise TypeError(
            f"{entry}: options must be a QueryOptions, "
            f"got {type(options).__name__}"
        )
    if not 0.0 < options.pilot_rate <= 1.0:
        raise UnsupportedQueryError(
            f"{entry}: pilot_rate must be in (0, 1], "
            f"got {options.pilot_rate!r}"
        )
    if options.entry_rung is not None and options.entry_rung not in LADDER_RUNGS:
        raise UnsupportedQueryError(
            f"{entry}: unknown entry rung {options.entry_rung!r} "
            f"(expected one of {LADDER_RUNGS})"
        )
    if options.priority not in PRIORITY_CLASSES:
        raise UnsupportedQueryError(
            f"{entry}: unknown priority {options.priority!r} "
            f"(expected one of {sorted(PRIORITY_CLASSES)})"
        )
    return options


def effective_spec(options: QueryOptions, bound) -> Optional[ErrorSpec]:
    """The error contract a bound query runs under: ``options.spec``,
    else the query's own ``ERROR WITHIN`` clause, else none."""
    if options.spec is None and bound.error_spec is not None:
        return ErrorSpec(
            relative_error=bound.error_spec.relative_error,
            confidence=bound.error_spec.confidence,
        )
    return options.spec


@contextlib.contextmanager
def maybe_trace(options: QueryOptions) -> Iterator[Optional[object]]:
    """Honor ``options.trace``: ensure a tracer is active for the body.

    Yields the tracer that will record the query's spans — the ambient
    one if tracing is already on, a fresh one if ``trace=True`` turned
    it on for this query, or ``None`` when tracing stays off.
    """
    from ..obs.trace import Tracer, current_tracer, trace_scope

    ambient = current_tracer()
    if not options.trace or ambient is not None:
        yield ambient
        return
    tracer = Tracer()
    with trace_scope(tracer):
        yield tracer
