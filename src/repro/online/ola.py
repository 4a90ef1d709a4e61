"""Online aggregation (Hellerstein, Haas, Wang 1997).

Instead of one answer after a long wait, OLA streams rows in random order
and keeps a running estimate with a shrinking confidence interval; the
user stops when the interval is tight enough. The trade the survey
emphasizes: the interval is only valid *at a fixed stopping time* — if
the user stops the moment the CI first looks good ("peeking"), realized
coverage drops below nominal, which experiment E13 measures.

Snapshots come from running moments (Σv, Σv², Σm) advanced over the new
rows only, so a stream of snapshots costs one pass over what it read.
The fixed-stop path (:func:`fixed_stop_snapshot`) knows where it stops
before it reads, draws just that many rows as a random ordered subset
and evaluates the query over them alone: it reads 30% of the relation
(all of it under a deadline) plus the filter's columns, which it scans
once for the matched-row count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ..core.errorspec import z_value
from ..core.exceptions import PlanError
from ..engine.fused import LazyRelation, filter_mask
from ..engine.table import Table
from ..estimators.closed_form import (
    Estimate,
    ratio_from_sums,
    srs_sum_from_sums,
)
from ..obs.trace import event


@dataclass
class OLASnapshot:
    """State of a running aggregate after ``rows_seen`` rows."""

    rows_seen: int
    fraction_seen: float
    value: float
    ci_low: float
    ci_high: float

    @property
    def relative_half_width(self) -> float:
        if self.value == 0:
            return math.inf
        return (self.ci_high - self.ci_low) / 2.0 / abs(self.value)

    def covers(self, truth: float) -> bool:
        """Does the running interval contain the exact answer? Only a
        valid coverage statement at a *fixed* stopping time (see module
        docstring on peeking)."""
        return self.ci_low <= truth <= self.ci_high


class OnlineAggregator:
    """Progressive SUM/AVG/COUNT over a table read in random order.

    The random order is the statistical heart of OLA: every prefix of a
    uniformly random order — a permutation, or a random ordered subset —
    is an SRS of the table, so SRS estimators apply at every step.
    ``mask_column``-style filtering is handled by passing a boolean
    predicate mask. Snapshots advance running moments held on the
    aggregator, so one aggregator serves one thread.
    """

    def __init__(
        self,
        table: Table,
        value_column: Optional[str],
        agg: str = "sum",
        predicate_mask: Optional[np.ndarray] = None,
        confidence: float = 0.95,
        seed: Optional[int] = None,
    ) -> None:
        if value_column is None and agg in ("sum", "avg"):
            raise PlanError(f"{agg} requires a value column")
        n = table.num_rows
        values = (
            np.asarray(table[value_column], dtype=np.float64)
            if value_column is not None
            else np.ones(n)
        )
        mask = (
            np.asarray(predicate_mask, dtype=bool)
            if predicate_mask is not None
            else np.ones(n, dtype=bool)
        )
        order = np.random.default_rng(seed).permutation(n)
        self.table = table
        self._init_state(
            values[order], mask[order], n, float(np.count_nonzero(mask)),
            agg, confidence,
        )

    @classmethod
    def from_read_order(
        cls,
        values: np.ndarray,
        matches: np.ndarray,
        population: int,
        matched_rows: float,
        agg: str = "sum",
        confidence: float = 0.95,
    ) -> "OnlineAggregator":
        """Build an aggregator from rows already in random read order.

        ``values`` and ``matches`` (the predicate mask) cover the rows
        that will be read, which may be fewer than ``population``;
        ``matched_rows`` counts the predicate's matches in the whole
        population. :func:`fixed_stop_snapshot` enters here.
        """
        self = cls.__new__(cls)
        self.table = None
        self._init_state(
            values, matches, population, matched_rows, agg, confidence
        )
        return self

    def _init_state(
        self,
        values: np.ndarray,
        matches: np.ndarray,
        population: int,
        matched_rows: float,
        agg: str,
        confidence: float,
    ) -> None:
        if agg not in ("sum", "avg", "count"):
            raise PlanError(f"OLA supports sum/avg/count, not {agg!r}")
        self.agg = agg
        self.confidence = confidence
        # The scalar estimators only ever need Σy, Σy², Σm, Σm² and Σy·m
        # of the prefix; with values zeroed outside the predicate and 0/1
        # matches, Σv, Σv² and Σm provide all five.
        self._values = np.where(
            matches, np.asarray(values, dtype=np.float64), 0.0
        )
        self._matches = matches
        self._population = population
        self._matched_rows = matched_rows
        self._seen = 0
        self._sums = (0.0, 0.0, 0.0)

    # ------------------------------------------------------------------
    @property
    def matched_rows(self) -> float:
        """Rows of the whole population that pass the predicate."""
        return self._matched_rows

    def _moments(self, n: int) -> Tuple[float, float, float]:
        """Σv, Σv² and Σm of the first ``n`` rows read, advanced over the
        rows since the previous snapshot (from zero when ``n`` is behind
        it)."""
        start, (sum_v, sum_v2, sum_m) = self._seen, self._sums
        if n < start:
            start, sum_v, sum_v2, sum_m = 0, 0.0, 0.0, 0.0
        new = self._values[start:n]
        self._sums = (
            sum_v + float(np.sum(new)),
            sum_v2 + float(np.dot(new, new)),
            sum_m + float(np.count_nonzero(self._matches[start:n])),
        )
        self._seen = n
        return self._sums

    def estimate(self, rows_seen: int, agg: Optional[str] = None) -> Estimate:
        """Estimate, with its variance, from the first ``rows_seen`` rows
        of the read order.

        ``agg`` overrides the aggregator's own function: the running
        moments serve SUM, COUNT and AVG alike, so one read order yields
        mutually consistent pieces (an AVG merged across shards needs
        SUM and COUNT from the *same* prefix).
        """
        agg = agg or self.agg
        n = min(max(rows_seen, 1), len(self._values))
        sum_v, sum_v2, sum_m = self._moments(n)
        if agg == "sum":
            return srs_sum_from_sums(n, self._population, sum_v, sum_v2)
        if agg == "count":
            # matches are 0/1 so Σm² = Σm
            return srs_sum_from_sums(n, self._population, sum_m, sum_m)
        # avg over matching rows: ratio estimator; values are zeroed
        # outside the predicate, so Σv·m = Σv.
        return ratio_from_sums(n, sum_v, sum_m, sum_v2, sum_m, sum_v)

    def snapshot(self, rows_seen: int, agg: Optional[str] = None) -> OLASnapshot:
        """:meth:`estimate` as a running answer: its interval at the
        aggregator's confidence."""
        est = self.estimate(rows_seen, agg)
        n = est.sample_size
        if n == 0:
            return OLASnapshot(0, 0.0, math.nan, -math.inf, math.inf)
        lo, hi = est.ci(self.confidence)
        return OLASnapshot(
            rows_seen=n,
            fraction_seen=n / self._population,
            value=est.value,
            ci_low=lo,
            ci_high=hi,
        )

    def run(
        self,
        batch_size: int = 1000,
        target_relative_error: Optional[float] = None,
        max_fraction: float = 1.0,
        deadline=None,
    ) -> Iterator[OLASnapshot]:
        """Yield snapshots batch by batch; stop at the target CI width (if
        given), after ``max_fraction`` of the table, or when ``deadline``
        expires.

        The deadline is checked at batch boundaries and *stops* the
        stream instead of raising: whatever snapshot was last yielded is
        the progressive answer, with its honest fixed-stop CI — exactly
        the graceful behaviour the degradation ladder's partial-OLA rung
        relies on. When no explicit deadline is passed, the ambient
        :func:`repro.resilience.deadline_scope` one (if any) applies.
        """
        from ..resilience.deadline import resolve_deadline

        deadline = resolve_deadline(deadline)
        limit = int(self._population * max_fraction)
        seen = 0
        while seen < limit:
            if deadline is not None and deadline.expired:
                return
            seen = min(seen + batch_size, limit)
            snap = self.snapshot(seen)
            yield snap
            if (
                target_relative_error is not None
                and snap.relative_half_width <= target_relative_error
            ):
                return

    def run_to_target(
        self,
        target_relative_error: float,
        batch_size: int = 1000,
        deadline=None,
    ) -> OLASnapshot:
        """Convenience: iterate until the CI meets the target (or data or
        time ends). Under a tight deadline this *returns the latest
        snapshot* — possibly the first batch's — rather than raising."""
        last: Optional[OLASnapshot] = None
        for snap in self.run(
            batch_size=batch_size,
            target_relative_error=target_relative_error,
            deadline=deadline,
        ):
            last = snap
        if last is None:
            # Deadline expired before the first batch: one minimal batch
            # of reads is still within the grace allowance.
            last = self.snapshot(min(batch_size, self._population))
        return last


def fixed_stop_snapshot(
    prepared,
    relation,
    agg: str,
    confidence: float,
    seed: Optional[int],
    batch_size: int,
    deadline=None,
    on_step: Optional[Callable[[], None]] = None,
) -> Tuple[OnlineAggregator, OLASnapshot]:
    """Fixed-stop OLA answer to a bound scalar aggregate over ``relation``.

    ``prepared`` is the query's partial-aggregate chain
    (:func:`~repro.engine.fused.prepare_partial_aggregate`): its filter
    gives the predicate mask, its first piece the input vector (all
    ones for ``COUNT``). Stopping is data-independent — the deadline
    (external) or a fixed 30% of the rows, never "stop when the CI first
    looks good", which would forfeit coverage (the peeking fallacy) — so
    the returned snapshot's CI is honest.

    Because the stop is known before reading, the read order is drawn as
    a uniformly random ordered subset of just the rows the run can reach
    (at least one batch, which the expired-deadline answer reads), and
    the input vector is computed over those rows only. The filter alone
    runs over the whole relation, for the matched-row count
    (``matched_rows``) that transfers selectivity to missing shards.

    ``on_step`` runs after every batch (fault sites, straggler checks)
    and may raise to abandon the attempt. The aggregator comes back too,
    for callers that need further components from the same prefix.
    """
    n = relation.num_rows
    max_fraction = 1.0 if deadline is not None else 0.30
    reach = max(int(n * max_fraction), min(batch_size, n))
    rows = np.random.default_rng(seed).choice(n, reach, replace=False)
    drawn = LazyRelation(
        {
            name: (lambda name=name: relation[name][rows])
            for name in relation.column_names
        },
        reach,
    )
    mask = filter_mask(prepared, relation)
    if mask is None:
        matches, matched = np.ones(reach, dtype=bool), float(n)
    else:
        matches, matched = mask[rows], float(np.count_nonzero(mask))
    input_fn = prepared.aggregate.input_fns[0]
    ola = OnlineAggregator.from_read_order(
        input_fn(drawn) if input_fn is not None else np.ones(reach),
        matches,
        population=n,
        matched_rows=matched,
        agg=agg,
        confidence=confidence,
    )
    snap = None
    for snap in ola.run(
        batch_size=batch_size, max_fraction=max_fraction, deadline=deadline
    ):
        event("ola_step", rows_seen=snap.rows_seen, fraction=snap.fraction_seen)
        if on_step is not None:
            on_step()
    if snap is None:
        # Deadline already expired: answer from one minimal batch.
        snap = ola.snapshot(min(batch_size, n))
    return ola, snap


def peeking_coverage(
    population: np.ndarray,
    target_relative_error: float,
    confidence: float = 0.95,
    num_trials: int = 200,
    batch_size: int = 200,
    seed: int = 0,
) -> float:
    """Empirical coverage when stopping at the *first* time the CI looks
    good — the peeking fallacy. Returns the fraction of trials whose final
    interval contains the true sum; expect it below ``confidence``."""
    rng = np.random.default_rng(seed)
    table = Table({"v": population})
    truth = float(np.sum(population))
    hits = 0
    for trial in range(num_trials):
        ola = OnlineAggregator(
            table, "v", agg="sum", confidence=confidence,
            seed=int(rng.integers(2**31)),
        )
        snap = ola.run_to_target(target_relative_error, batch_size=batch_size)
        if snap.ci_low <= truth <= snap.ci_high:
            hits += 1
    return hits / num_trials
