"""One runner for every audited ``sql()`` door.

A :class:`DoorRow` is data: the door, the SQL, the
:class:`~repro.core.options.QueryOptions` (technique or ``entry_rung``,
spec), a per-trial fixture that builds or installs what the trial reads
(and undoes it afterwards), and the kind of answer the trial needs.
:func:`door_trial` sends each query through the door, takes the truth
from the same door's ``technique="exact"`` twin — run outside any fault
injection — and scores the answer with one rule set (:func:`score`):

* joint coverage — every exact group is answered, no other group is,
  and every cell's interval holds its exact value, its edges compared
  at ``rel_tol=1e-9`` so summation order cannot read as a miss (a fully
  kept stratum answers with zero width; a missing shard's envelope can
  end exactly at the truth);
* ``error_met`` — when the options carry a spec, every cell's relative
  error is within its ε;
* :class:`QueryRefused`, :class:`InfeasiblePlanError` and
  :class:`UnsupportedQueryError` are refusals, as is an answer that is
  not approximate or not of the kind the row needs: refusing is the
  contract-honouring response and does not count against coverage.

A trial's hit is joint coverage, or ``error_met`` for a ``"spec"``
claim. To audit one's own query, build a row whose fixture yields the
database and pass it to :func:`repro.audit.runner.audit_one`.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager, List, Optional, Tuple

from ..core.exceptions import (
    InfeasiblePlanError,
    QueryRefused,
    UnsupportedQueryError,
)
from ..core.options import QueryOptions
from ..offline.catalog import SynopsisCatalog
from ..resilience.faults import FaultInjector, inject
from ..resilience.ladder import ResilientEngine
from ..serving import ServingFrontend
from ..sharding import ScatterGatherExecutor

#: door name -> context manager over the fixture's source that yields an
#: object with ``sql(query, options=...)``
DOORS = {
    "Database.sql": nullcontext,
    "ResilientEngine.sql": lambda db: nullcontext(
        ResilientEngine(db, warn_on_degrade=False)
    ),
    "ScatterGatherExecutor.sql": lambda sharded: nullcontext(
        ScatterGatherExecutor(sharded, max_workers=1)
    ),
    "ServingFrontend.sql": lambda db: ServingFrontend(db, workers=1),
}

REFUSALS = (QueryRefused, InfeasiblePlanError, UnsupportedQueryError)


@dataclass
class TrialResult:
    """Outcome of one seeded trial of one audited path."""

    value: float
    exact: float
    hit: bool
    ci_low: float = math.nan
    ci_high: float = math.nan
    #: True when the technique honestly refused (no covering synopsis /
    #: infeasible plan) instead of answering; refusals do not count
    #: against coverage — refusing is the contract-honoring response.
    refused: bool = False
    #: every cell within the spec's ε (None when no spec was asked)
    error_met: Optional[bool] = None

    @property
    def relative_error(self) -> float:
        if self.refused:
            return 0.0
        return _relative_error(self.value, self.exact)

    @property
    def relative_half_width(self) -> float:
        if not (math.isfinite(self.ci_low) and math.isfinite(self.ci_high)):
            return math.nan
        if self.exact == 0:
            return math.inf
        return (self.ci_high - self.ci_low) / 2.0 / abs(self.exact)


REFUSED = TrialResult(math.nan, math.nan, hit=False, refused=True)


def _relative_error(value: float, exact: float) -> float:
    if exact == 0:
        return 0.0 if value == 0 else math.inf
    return abs(value - exact) / abs(exact)


@dataclass
class DoorRow:
    """One audited (door, entry, query) combination, as data."""

    name: str
    door: str  # a key of DOORS
    #: the registry entry, ladder rung or shard technique the row serves
    entry: str
    sql: Tuple[str, ...]
    #: ``(ctx, seed) -> context manager`` yielding the door's source (a
    #: Database, or a ShardedTable for the scatter-gather door); it
    #: undoes on exit whatever it installed in shared state
    fixture: Callable[..., ContextManager]
    options: QueryOptions = QueryOptions()
    family: str = "engine"
    claim: str = "ci"
    claimed_coverage: Optional[float] = 0.95
    description: str = ""
    #: what a trial needs of the answer: ``approximate`` (any approximate
    #: answer), ``fresh`` (served by the forced technique, not degraded,
    #: no catalog sample stale — else a miss), ``degraded`` or
    #: ``not_degraded`` (else a refusal, so a fault that failed to land
    #: cannot pass the row by accident)
    answer: str = "approximate"
    #: trial seeds cycle through ``sql`` instead of running every query
    cycle: bool = False
    #: ``seed -> [FaultSpec]`` injected around the answer, never the twin
    faults: Optional[Callable[[int], list]] = None
    expected_failure: bool = False
    heavy: bool = False

    def run(self, ctx, seed: int) -> TrialResult:
        return door_trial(self, ctx, seed)


def door_trial(row: DoorRow, ctx, seed: int) -> TrialResult:
    """One seeded trial of ``row``: every query must hit (the reported
    value and interval are the last query's)."""
    options = row.options.replace(seed=seed)
    sqls = (row.sql[seed % len(row.sql)],) if row.cycle else row.sql
    faults = row.faults(seed) if row.faults else None
    outcomes: List[TrialResult] = []
    try:
        with row.fixture(ctx, seed) as source, DOORS[row.door](source) as door:
            for sql in sqls:
                with inject(FaultInjector(faults)) if faults else nullcontext():
                    result = door.sql(sql, options=options)
                if _refused(row, result):
                    return REFUSED
                twin = door.sql(sql, options=QueryOptions(technique="exact"))
                trial = score(result, twin, options.spec, row.claim)
                if row.answer == "fresh" and not _fresh(result, options, source):
                    trial.hit = False
                outcomes.append(trial)
    except REFUSALS:
        return REFUSED
    last = outcomes[-1]
    last.hit = all(o.hit for o in outcomes)
    if options.spec is not None:
        last.error_met = all(o.error_met for o in outcomes)
    return last


def _refused(row: DoorRow, result) -> bool:
    if not getattr(result, "is_approximate", False):
        return True
    if row.answer in ("degraded", "not_degraded"):
        return result.is_degraded != (row.answer == "degraded")
    return False


def _fresh(result, options: QueryOptions, database) -> bool:
    return (
        result.technique == options.technique
        and not result.is_degraded
        and all(
            e.staleness(database) == 0
            for e in SynopsisCatalog.for_database(database).samples
        )
    )


def _keyed_rows(table, keys):
    """``{group key tuple: row index}`` over the key columns."""
    columns = [table[k].tolist() for k in keys]
    return {tuple(c[i] for c in columns): i for i in range(table.num_rows)}


def score(result, twin, spec=None, claim: str = "ci") -> TrialResult:
    """Score an approximate ``result`` against its exact ``twin``.

    Cells are the columns that carry an interval; the others are group
    keys. A one-row answer reports its first cell's value and interval;
    a grouped answer reports the first aggregate's total over the groups
    it shares with the twin, against the twin's total, and no interval.
    """
    aliases = list(result.ci_low)
    keys = [c for c in result.table.column_names if c not in aliases]
    answered = _keyed_rows(result.table, keys)
    exact = _keyed_rows(twin.table, keys)
    covered = met = answered.keys() == exact.keys()
    value = 0.0
    for key, row in answered.items():
        if key not in exact:
            continue
        for alias in aliases:
            cell = result.estimate(alias, row)
            truth = float(twin.table[alias][exact[key]])
            covered &= cell.covers(truth) or any(
                math.isclose(edge, truth, rel_tol=1e-9)
                for edge in (cell.ci_low, cell.ci_high)
            )
            if spec is not None:
                met &= _relative_error(cell.value, truth) <= spec.relative_error
        value += result.estimate(aliases[0], row).value
    total = float(sum(float(v) for v in twin.table[aliases[0]]))
    error_met = met if spec is not None else None
    hit = error_met if claim == "spec" else covered
    if result.table.num_rows == 1 and twin.table.num_rows == 1:
        cell = result.estimate(aliases[0], 0)
        return TrialResult(
            cell.value, total, hit, cell.ci_low, cell.ci_high,
            error_met=error_met,
        )
    return TrialResult(value, total, hit, error_met=error_met)
