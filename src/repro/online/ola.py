"""Online aggregation (Hellerstein, Haas, Wang 1997).

Instead of one answer after a long wait, OLA streams rows in random order
and keeps a running estimate with a shrinking confidence interval; the
user stops when the interval is tight enough. The trade the survey
emphasizes: the interval is only valid *at a fixed stopping time* — if
the user stops the moment the CI first looks good ("peeking"), realized
coverage drops below nominal, which experiment E13 measures.

:class:`OnlineAggregator` is that progressive stream, for the library,
E13 and the audit: snapshots come from running moments (Σv, Σv², Σm)
advanced over the new rows only, so a stream of snapshots costs one pass
over what it read.

The ``sql()`` doors (the sharded ``ola`` technique, the ladder's
``partial_ola`` rung) read one answer at a stop fixed before reading,
so they need no stream: :func:`fixed_stop_snapshot` draws just the rows
it can reach as a random ordered subset and returns the *moment table*
(:mod:`repro.online.estimation`) of the prefix it read — 30% of the
relation, all of it under a deadline — plus the filter's matched-row
count over the whole relation. Its intervals come from the same
functions as every other sampled answer's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ..core.exceptions import PlanError
from ..engine.aggregates import ROWS_COLUMN
from ..engine.fused import LazyRelation, filter_mask
from ..engine.table import Table
from ..estimators.closed_form import Estimate, ratio_from_sums
from ..obs.trace import event
from .estimation import VARIANCE_SUFFIX, srs_totals


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
    uniformly random permutation is an SRS of the table, so SRS
    estimators apply at every step. ``mask_column``-style filtering is
    handled by passing a boolean predicate mask. Snapshots advance
    running moments held on the aggregator, so one aggregator serves one
    thread.
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
        if agg not in ("sum", "avg", "count"):
            raise PlanError(f"OLA supports sum/avg/count, not {agg!r}")
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
        self.agg = agg
        self.confidence = confidence
        # The scalar estimators only ever need Σy, Σy², Σm, Σm² and Σy·m
        # of the prefix; with values zeroed outside the predicate and 0/1
        # matches, Σv, Σv² and Σm provide all five.
        self._matches = mask[order]
        self._values = np.where(self._matches, values[order], 0.0)
        self._population = n
        self._seen = 0
        self._sums = (0.0, 0.0, 0.0)

    # ------------------------------------------------------------------
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

    def estimate(self, rows_seen: int) -> Estimate:
        """Estimate, with its variance, from the first ``rows_seen`` rows
        of the read order."""
        n = min(max(rows_seen, 1), len(self._values))
        sum_v, sum_v2, sum_m = self._moments(n)
        if self.agg == "avg":
            # avg over matching rows: ratio estimator; values are zeroed
            # outside the predicate, so Σv·m = Σv.
            return ratio_from_sums(n, sum_v, sum_m, sum_v2, sum_m, sum_v)
        # matches are 0/1, so a COUNT's Σm² is Σm
        sum_t, sum_t2 = (sum_v, sum_v2) if self.agg == "sum" else (sum_m, sum_m)
        total, variance = srs_totals(sum_t, sum_t2, n, self._population)
        return Estimate(float(total), float(variance), n, estimator="srs_sum")

    def snapshot(self, rows_seen: int) -> OLASnapshot:
        """:meth:`estimate` as a running answer: its interval at the
        aggregator's confidence."""
        est = self.estimate(rows_seen)
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
    seed: Optional[int],
    batch_size: int,
    deadline=None,
    on_step: Optional[Callable[[], None]] = None,
) -> Tuple[Table, float]:
    """Fixed-stop OLA answer to a bound scalar aggregate over ``relation``:
    ``(moment table, matched rows)``.

    ``prepared`` is the query's partial-aggregate chain
    (:func:`~repro.engine.fused.prepare_partial_aggregate`): its filter
    gives the predicate match, its pieces' inputs the values (one per
    matched row for a COUNT piece). Stopping is data-independent — the
    deadline (external) or a fixed 30% of the rows, never "stop when the
    CI first looks good", which would forfeit coverage (the peeking
    fallacy) — so the prefix read is an SRS of the relation and its
    intervals are honest.

    The read order is a uniformly random ordered subset of just the rows
    the run can reach (at least one batch, which the expired-deadline
    answer reads). The batches only pace the run: the deadline is checked
    before each one, and each ends with an ``ola_step`` event and
    ``on_step`` (fault sites, straggler checks), which may raise to
    abandon the attempt. After the loop, one pass over the prefix takes
    each piece's ``Σt`` and ``Σt²`` (``t`` = its input times the
    predicate match), and :func:`~repro.online.estimation.srs_totals`
    turns them into the piece's total and ``__var``; ``__rows`` is the
    prefix length. Only the filter runs over the whole relation, for the
    matched-row count that transfers selectivity to missing shards.

    A relation with no rows answers an exact zero table (totals and
    ``__var`` 0, ``__rows`` 0, no matched rows), as an exact shard's
    would, so it adds nothing to a gather.
    """
    from ..resilience.deadline import resolve_deadline

    n = relation.num_rows
    limit = int(n * (1.0 if deadline is not None else 0.30))
    reach = max(limit, min(batch_size, n))
    rows = np.random.default_rng(seed).choice(n, reach, replace=False)
    deadline = resolve_deadline(deadline)
    seen = 0
    while seen < limit and not (deadline is not None and deadline.expired):
        seen = min(seen + batch_size, limit)
        event("ola_step", rows_seen=seen, fraction=seen / n)
        if on_step is not None:
            on_step()
    # Deadline already expired: answer from one minimal batch.
    seen = seen or min(batch_size, n)
    prefix = rows[:seen]
    drawn = LazyRelation(
        {
            name: (lambda name=name: relation[name][prefix])
            for name in relation.column_names
        },
        seen,
    )
    mask = filter_mask(prepared, relation)
    if mask is None:
        matches, matched = None, float(n)
    else:
        matches, matched = mask[prefix], float(np.count_nonzero(mask))
    cols = {}
    for spec, input_fn in zip(prepared.aggregate.specs, prepared.aggregate.input_fns):
        if spec.alias == ROWS_COLUMN:
            continue
        if spec.func == "count":
            t = np.ones(seen) if matches is None else matches.astype(np.float64)
        else:
            t = np.asarray(input_fn(drawn), dtype=np.float64)
            if matches is not None:
                t = np.where(matches, t, 0.0)
            t = np.broadcast_to(t, seen)
        total, variance = srs_totals(np.sum(t), np.dot(t, t), seen, n)
        cols[spec.alias] = np.array([total])
        cols[spec.alias + VARIANCE_SUFFIX] = np.array([variance])
    cols[ROWS_COLUMN] = np.array([seen])
    return Table(cols, name="aggregate"), matched


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
