"""Online aggregation (Hellerstein, Haas, Wang 1997).

Instead of one answer after a long wait, OLA streams rows in random order
and keeps a running estimate with a shrinking confidence interval; the
user stops when the interval is tight enough. The trade the survey
emphasizes: the interval is only valid *at a fixed stopping time* — if
the user stops the moment the CI first looks good ("peeking"), realized
coverage drops below nominal, which experiment E13 measures.

:class:`OnlineAggregator` is that progressive stream, for the library,
E13 and the audit: cumulative sums of ``t`` and ``t²`` over the read
order give every prefix's moments in one pass, and the row-level SRS
reductions of :mod:`repro.online.estimation` turn a prefix into its
estimate.

The ``sql()`` doors (the sharded ``ola`` technique, the ladder's
``partial_ola`` rung) read one answer at a stop fixed before reading,
so they need no stream. :func:`fixed_stop_snapshot` reads a uniformly
random ordered subset of the relation's whole *blocks* — 30% of them,
all of them under a deadline — as contiguous slices, the read order of
a block store (row-level sampling still touches every block; a block
prefix skips the rest), and returns the *moment table*
(:mod:`repro.online.estimation`) of that prefix: an SRS of blocks, as
the pilot's block sample is, plus a partial tail block read whole. Its
intervals come from the same functions as every other sampled answer's.
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
from ..estimators.closed_form import Estimate
from ..obs.trace import event
from .estimation import VARIANCE_SUFFIX, ratio_moments, srs_totals


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
    handled by passing a boolean predicate mask.
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
        order = np.random.default_rng(seed).permutation(n)
        self.table, self.agg, self.confidence = table, agg, confidence
        self._population = n
        # Per prefix of the read order, Σv and Σv² (SUM), Σm (COUNT: t is m,
        # Σt² = Σt) or all three (AVG: Σv·m = Σv) of values v zeroed outside
        # the predicate and 0/1 matches m.
        matches = np.ones(n, dtype=bool) if predicate_mask is None else predicate_mask
        matches = np.asarray(matches, dtype=bool)[order]
        v = np.ones(n) if value_column is None else table[value_column]
        v = np.where(matches, np.asarray(v, dtype=np.float64)[order], 0.0)
        needed = {"sum": (v, v * v), "count": (matches,), "avg": (v, v * v, matches)}
        self._prefix = [
            np.concatenate([[0.0], np.cumsum(column, dtype=np.float64)])
            for column in needed[agg]
        ]

    # ------------------------------------------------------------------
    def estimate(self, rows_seen: int) -> Estimate:
        """Estimate, with its variance, from the first ``rows_seen`` rows
        of the read order."""
        n = min(max(rows_seen, 1), self._population)
        big_n = self._population
        sums = [float(column[n]) for column in self._prefix]
        if self.agg == "avg":
            sum_v, sum_v2, sum_m = sums
            value, variance = ratio_moments(
                *srs_totals(sum_v, sum_v2, n, big_n),
                *srs_totals(sum_m, sum_m, n, big_n),
                srs_totals(sum_v, sum_v, n, big_n, sum_m)[1],
            )
        else:
            value, variance = srs_totals(*(sums if self.agg == "sum" else sums * 2), n, big_n)
        return Estimate(float(value), float(variance), n)

    def snapshot(self, rows_seen: int) -> OLASnapshot:
        """:meth:`estimate` as a running answer: its interval at the
        aggregator's confidence."""
        est = self.estimate(rows_seen)
        n = est.sample_size
        if n == 0:
            return OLASnapshot(0, 0.0, math.nan, -math.inf, math.inf)
        return OLASnapshot(n, n / self._population, est.value, *est.ci(self.confidence))

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


#: The fixed stop: the share of a relation's full blocks a fixed-stop
#: answer reads when no deadline paces it.
FIXED_STOP_FRACTION = 0.30

#: Fewest full blocks a fixed-stop answer samples from. Below it a 30%
#: prefix has too few possible draws for its t interval to cover (four
#: full blocks admit six two-block prefixes), so the relation is read
#: whole.
MIN_SAMPLED_BLOCKS = 14

#: Fewest blocks a sampled answer reads, deadline or not: the fixed stop
#: of :data:`MIN_SAMPLED_BLOCKS`. Two blocks would leave t one degree of
#: freedom (12.7 at 95%), an interval wider than any claim an
#: :class:`~repro.core.errorspec.ErrorSpec` can state; four leave three
#: (3.18).
MIN_PREFIX_BLOCKS = int(MIN_SAMPLED_BLOCKS * FIXED_STOP_FRACTION)


def fixed_stop_snapshot(
    prepared,
    relation,
    seed,
    batch_size: int,
    block_size: int,
    deadline=None,
    on_step: Optional[Callable[[], None]] = None,
) -> Tuple[Table, float, int]:
    """Fixed-stop OLA answer to a bound scalar aggregate over ``relation``:
    ``(moment table, matched rows, rows read)``.

    ``prepared`` is the query's partial-aggregate chain
    (:func:`~repro.engine.fused.prepare_partial_aggregate`): its filter
    gives the predicate match, its pieces' inputs the values (one per
    matched row for a COUNT piece). ``block_size`` is the rows per block
    of the table under ``relation``, and ``seed`` anything
    :func:`numpy.random.default_rng` takes. Stopping is
    data-independent — the deadline (external) or a fixed 30% of the
    blocks, never "stop when the CI first looks good", which would
    forfeit coverage (the peeking fallacy) — so the prefix read is an
    SRS of blocks and its intervals are honest.

    The ``B = n // block_size`` full blocks are read in a uniformly
    random order, each as one contiguous slice: the filter and the
    inputs run over the prefix only, with no whole-relation pass and no
    row gather. A partial tail block is a take-all stratum: it is always
    read whole and added exactly, and the SRS runs over the equal-size
    full blocks alone (a short tail drawn as an ordinary unit biases the
    total). The batches (``batch_size`` rows rounded up to whole blocks,
    at least :data:`MIN_PREFIX_BLOCKS`) only pace the run: the deadline
    is checked before each one, and each ends with an ``ola_step`` event
    and ``on_step`` (fault sites, straggler checks), which may raise to
    abandon the attempt; an expired deadline still reads one batch. Then
    each piece's per-block sums ``Σt_b`` (``t`` = its input times the
    predicate match) go to :func:`~repro.online.estimation.srs_totals`
    with the ``m`` blocks read and ``B``, for the piece's total and
    ``__var``, and the tail's exact sum is added to the total.
    ``__rows`` is ``m``, the sampled units, so the t rule of
    :func:`~repro.online.estimation.piece_intervals` reads the SRS's
    degrees of freedom, also after a shard gather adds every shard's;
    the rows read (``m·block_size`` plus the tail) are returned beside
    the table, for budgets and statistics. The
    matched rows are the prefix's estimate of the relation's (exact
    without a filter), as a ``sample`` shard's ``Σw`` is; the shard
    gather reads them only to centre a missing shard's widening.

    A relation with fewer than :data:`MIN_SAMPLED_BLOCKS` full blocks is
    read whole, under any deadline: a census, whose totals are exact
    with ``__var`` 0 and ``__rows`` 0 — it samples no unit, so it adds
    no degrees of freedom to a gather's t rule, and
    :func:`exact_unless_sampled` gives a table that sampled no block
    zero width. A variance is never estimated from fewer than
    :data:`MIN_PREFIX_BLOCKS` blocks. The guarantee audit's smoke-scale
    ``exp_t`` shards (about 3 400 rows: six full 512-row blocks each)
    are census answers; at full scale (about 7 500 rows, 14 blocks) they
    are SRS answers from four blocks. A relation with no rows answers an
    exact zero table, as an exact shard's would, so it adds nothing to a
    gather.

    Clustered data widens these intervals honestly: when blocks are
    internally alike and differ from each other, the between-block
    variance the SRS measures is large — the design effect
    ``benchmarks/bench_a01_block_variance.py`` measures — and the
    interval says so instead of losing coverage.
    """
    from ..resilience.deadline import resolve_deadline

    n = relation.num_rows
    full, tail = divmod(n, block_size)
    census = full < MIN_SAMPLED_BLOCKS
    batch = max(MIN_PREFIX_BLOCKS, -(-batch_size // block_size))
    if census:
        # paced like any read, but read whole whatever the deadline
        limit = full + (tail > 0)
    else:
        limit = full if deadline is not None else int(full * FIXED_STOP_FRACTION)
    deadline = resolve_deadline(deadline)
    seen = 0
    while seen < limit and not (deadline is not None and deadline.expired):
        seen = min(seen + batch, limit)
        rows = min(seen * block_size, n)
        event("ola_step", rows_seen=rows, fraction=rows / n)
        if on_step is not None:
            on_step()
    if census:
        return _estimate(prepared, relation, 0, full, block_size)
    # the first blocks of a random order (one batch at least), read as
    # slices in ascending order, which does not change the estimate
    m = max(seen, min(batch, limit))
    order = np.random.default_rng(seed).permutation(full)[:m]
    starts = (np.sort(order) * block_size).tolist()
    tail_start = full * block_size

    def read(name: str) -> np.ndarray:
        column = relation[name]
        return np.concatenate(
            [column[s:s + block_size] for s in starts] + [column[tail_start:]]
        )

    prefix = LazyRelation(
        {name: (lambda name=name: read(name)) for name in relation.column_names},
        m * block_size + tail,
    )
    return _estimate(prepared, prefix, m, full, block_size)


def _estimate(
    prepared, rel, m: int, full: int, block_size: int
) -> Tuple[Table, float, int]:
    """``(moment table, matched rows, rows read)`` of ``rel``: its first
    ``m`` blocks an SRS of the ``full`` full blocks, the rows after them
    added whole (the tail, or every row of a census, ``m`` = 0)."""
    n = rel.num_rows
    mask = filter_mask(prepared, rel)
    counts = _block_sums(None, mask, m, block_size, n)
    cols = {}
    for spec, input_fn in zip(prepared.aggregate.specs, prepared.aggregate.input_fns):
        if spec.alias == ROWS_COLUMN:
            continue
        t_b, rest = (
            counts
            if spec.func == "count"
            else _block_sums(input_fn(rel), mask, m, block_size, n)
        )
        total, variance = (
            srs_totals(t_b.sum(), t_b @ t_b, m, full) if m else (0.0, 0.0)
        )
        cols[spec.alias] = np.array([total + rest])
        cols[spec.alias + VARIANCE_SUFFIX] = np.array([variance])
    cols[ROWS_COLUMN] = np.array([m])
    t_b, rest = counts
    matched = (full * t_b.sum() / m if m else 0.0) + rest
    return Table(cols, name="aggregate"), float(matched), n


def exact_unless_sampled(moments: Table) -> Table:
    """A fixed-stop moment table (one relation's, or a gather's merge of
    several) as the exact partial it is when it sampled no block — every
    relation behind it a census or empty: without its ``__var`` columns,
    so :func:`~repro.online.estimation.piece_intervals` gives it zero
    width whatever its size. A table that sampled blocks is returned as
    it is."""
    if moments[ROWS_COLUMN].any():
        return moments
    return Table(
        {
            name: moments[name]
            for name in moments.column_names
            if not name.endswith(VARIANCE_SUFFIX)
        },
        name=moments.name,
    )


def _block_sums(values, mask, m: int, block_size: int, n: int):
    """``(Σt per block, Σt after them)``: the sums of ``t`` = ``values``
    (1 when ``None``) times the predicate match over each of the first
    ``m`` blocks of ``block_size`` rows, and over the rows after them."""
    head = m * block_size
    if values is None and mask is None:
        return np.full(m, float(block_size)), float(n - head)
    if values is None:
        t = mask
    else:
        t = np.broadcast_to(np.asarray(values, dtype=np.float64), (n,))
        if mask is not None:
            # an infinite or NaN input the predicate leaves out (a
            # division by zero it guards against, say) must not reach
            # the sum
            t = np.where(mask, t, 0.0)
    return (
        t[:head].reshape(m, block_size).sum(axis=1, dtype=np.float64),
        float(t[head:].sum(dtype=np.float64)),
    )


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
