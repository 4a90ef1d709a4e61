"""The registry of audited estimator paths.

Each :class:`AuditPath` wraps one (technique, query, guarantee) triple:
its ``run`` callable executes a single seeded trial and reports the
estimate, the interval or bound it claimed, and the exact answer from
the oracle. The runner replays N trials and checks the hit count against
the claimed coverage with a binomial band.

Claim kinds:

* ``"ci"`` — the path reports a confidence interval; a hit means the CI
  contained the exact answer (CI-coverage audit).
* ``"spec"`` — the path promises ``|err| <= ε`` with probability ``c``
  (the ERROR WITHIN clause); a hit means the realized relative error met
  ε, whatever interval was reported.
* ``"bound"`` — the path states an explicit error bound (ε·N for
  Count-Min, k·RSE for cardinality sketches, bucket mass for
  histograms); a hit means the realized error stayed inside it.
* ``"none"`` — the paper says this synopsis has **no** a-priori
  guarantee (wavelets under arbitrary queries); the audit records the
  realized error distribution but accepts nothing.

Paths with ``expected_failure=True`` are the paper-predicted breakages
(peeking at OLA intervals, closed-form CIs on heavy tails): the audit
asserts they *keep failing* — if one starts passing, either the
implementation silently changed or the audit lost its power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.errorspec import ErrorSpec
from ..core.options import QueryOptions
from ..core.exceptions import (
    InfeasiblePlanError,
    QueryRefused,
    UnsupportedQueryError,
)
from ..core.result import ApproximateResult
from ..engine.database import Database
from ..engine.table import Table
from ..estimators.bootstrap import bootstrap_ci
from ..histograms.builders import equi_depth
from ..offline.catalog import SampleEntry, SynopsisCatalog
from ..offline.sample_seek import (
    answer_group_by_sum,
    build_sample_seek,
    distribution_precision,
)
from ..online.ola import OnlineAggregator
from ..online.ripple import RippleJoin
from ..sampling.row import bernoulli_sample, srs_sample
from ..sampling.stratified import group_estimates, stratified_sample
from ..sketches.countmin import CountMinSketch
from ..sketches.hyperloglog import HyperLogLog
from ..sketches.kmv import KMVSketch
from ..wavelets.haar import build_wavelet_synopsis
from ..workloads import generate_tpch, heavy_tailed_table, zipf_group_table
from .oracle import ExactOracle


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

    @property
    def relative_error(self) -> float:
        if self.refused:
            return 0.0
        if self.exact == 0:
            return 0.0 if self.value == 0 else math.inf
        return abs(self.value - self.exact) / abs(self.exact)

    @property
    def relative_half_width(self) -> float:
        if not (math.isfinite(self.ci_low) and math.isfinite(self.ci_high)):
            return math.nan
        if self.exact == 0:
            return math.inf
        return (self.ci_high - self.ci_low) / 2.0 / abs(self.exact)


@dataclass
class AuditPath:
    """One audited (estimator, query, guarantee) combination."""

    name: str
    family: str  # sampling | offline | online | engine | sketch | synopsis
    claim: str  # ci | spec | bound | none
    claimed_coverage: Optional[float]
    description: str
    run: Callable[["AuditContext", int], TrialResult]
    #: paper-predicted breakage: the audit asserts this KEEPS failing
    expected_failure: bool = False
    #: relative trial cost; the runner gives heavy paths fewer trials
    heavy: bool = False


# ----------------------------------------------------------------------
# Shared fixtures: databases and tables every path reuses
# ----------------------------------------------------------------------

class AuditContext:
    """Seeded datasets + exact oracles shared across all paths.

    The data seed is fixed (it defines *which* population is audited);
    the per-trial seeds vary the estimator's randomness only. Everything
    is built lazily so a filtered audit (``--paths``) pays only for what
    it uses.
    """

    DATA_SEED = 42

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale
        self._tpch: Optional[Database] = None
        self._oracle: Optional[ExactOracle] = None
        self._tables: Dict[str, Table] = {}

    # -- engine datasets -----------------------------------------------
    @property
    def tpch(self) -> Database:
        if self._tpch is None:
            self._tpch = generate_tpch(
                scale=self.scale, seed=self.DATA_SEED, block_size=256
            )
        return self._tpch

    @property
    def oracle(self) -> ExactOracle:
        if self._oracle is None:
            self._oracle = ExactOracle(self.tpch)
        return self._oracle

    # -- synthetic tables ----------------------------------------------
    def _table(self, key: str, builder: Callable[[], Table]) -> Table:
        if key not in self._tables:
            self._tables[key] = builder()
        return self._tables[key]

    @property
    def exponential(self) -> Table:
        """Moderately skewed population: CLT intervals should be honest."""
        n = int(60_000 * max(self.scale, 0.25))
        return self._table(
            "exponential",
            lambda: Table(
                {
                    "value": np.random.default_rng(self.DATA_SEED).exponential(
                        100.0, n
                    )
                },
                name="exp_t",
                block_size=512,
            ),
        )

    @property
    def sharded_exponential(self):
        """The exponential table split into 8 hash shards (built once)."""
        if not hasattr(self, "_sharded_exp"):
            from ..sharding import ShardedTable

            self._sharded_exp = ShardedTable.from_table(
                self.exponential, num_shards=8
            )
        return self._sharded_exp

    @property
    def heavytail(self) -> Table:
        """Lognormal(σ=2.5): rare huge values, the CLT's known enemy."""
        n = int(40_000 * max(self.scale, 0.25))
        return self._table(
            "heavytail",
            lambda: Table(
                heavy_tailed_table(n, sigma=2.5, seed=self.DATA_SEED),
                name="heavy_t",
                block_size=512,
            ),
        )

    @property
    def zipf(self) -> Table:
        """Zipf-grouped measure column for group-by / Sample+Seek paths."""
        n = int(60_000 * max(self.scale, 0.25))
        return self._table(
            "zipf",
            lambda: Table(
                zipf_group_table(
                    n, num_groups=40, zipf_s=1.3, seed=self.DATA_SEED
                ),
                name="zipf_t",
                block_size=512,
            ),
        )

    @property
    def join_left(self) -> Table:
        n = int(30_000 * max(self.scale, 0.25))
        rng = np.random.default_rng(self.DATA_SEED + 1)
        return self._table(
            "join_left",
            lambda: Table(
                {
                    "k": rng.integers(0, 300, n),
                    "v": rng.exponential(5.0, n),
                },
                name="jl",
            ),
        )

    @property
    def join_right(self) -> Table:
        rng = np.random.default_rng(self.DATA_SEED + 2)
        return self._table(
            "join_right",
            lambda: Table(
                {"k": np.arange(300), "w": rng.uniform(0.5, 1.5, 300)},
                name="jr",
            ),
        )

    def join_truth(self) -> float:
        key = self._tables.get("_join_truth")
        if key is None:
            left, right = self.join_left, self.join_right
            w_by_key = right["w"][np.searchsorted(right["k"], left["k"])]
            key = float(np.sum(left["v"] * w_by_key))
            self._tables["_join_truth"] = key  # type: ignore[assignment]
        return key  # type: ignore[return-value]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _group_sums(table: Table, group_col: str, value_col: str) -> Dict[object, float]:
    keys = table[group_col]
    values = np.asarray(table[value_col], dtype=np.float64)
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=len(uniq))
    return {
        (k.item() if hasattr(k, "item") else k): float(s)
        for k, s in zip(uniq, sums)
    }


# ----------------------------------------------------------------------
# Sampling estimators (closed-form CIs)
# ----------------------------------------------------------------------

def _srs_sum(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.exponential
    truth = float(table["value"].sum())
    sample = srs_sample(table, 1500, _rng(seed))
    est = sample.estimate_sum("value")
    lo, hi = est.ci(0.95)
    return TrialResult(est.value, truth, lo <= truth <= hi, lo, hi)


def _bernoulli_sum_exponential(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.exponential
    truth = float(table["value"].sum())
    sample = bernoulli_sample(table, 0.03, _rng(seed))
    est = sample.estimate_sum("value")
    lo, hi = est.ci(0.95)
    return TrialResult(est.value, truth, lo <= truth <= hi, lo, hi)


def _bernoulli_sum_heavytail(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.heavytail
    truth = float(table["value"].sum())
    sample = bernoulli_sample(table, 0.01, _rng(seed))
    est = sample.estimate_sum("value")
    lo, hi = est.ci(0.95)
    return TrialResult(est.value, truth, lo <= truth <= hi, lo, hi)


def _stratified_joint(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.zipf
    spec = ErrorSpec(relative_error=0.5, confidence=0.95)
    truths = _group_sums(table, "group_id", "value")
    sample = stratified_sample(
        table, "group_id", 3000, policy="congress", rng=_rng(seed)
    )
    ests = group_estimates(sample, "group_id", "value", "sum")
    per_group = spec.split_confidence(len(ests))
    all_covered = True
    for key, est in ests.items():
        truth = truths.get(key)
        if truth is None:
            continue
        lo, hi = est.ci(per_group.confidence)
        # Fully-sampled strata report exact answers with zero-width CIs;
        # don't let 1e-12 summation-order noise read as a coverage miss.
        if not (lo <= truth <= hi) and not math.isclose(
            est.value, truth, rel_tol=1e-9
        ):
            all_covered = False
    total_truth = float(sum(truths.values()))
    total_est = float(sum(e.value for e in ests.values()))
    return TrialResult(total_est, total_truth, all_covered)


# ----------------------------------------------------------------------
# Offline paths
# ----------------------------------------------------------------------

_OFFLINE_SQL = (
    "SELECT l_returnflag AS flag, SUM(l_extendedprice) AS rev "
    "FROM lineitem GROUP BY l_returnflag"
)


def _offline_blinkdb(ctx: AuditContext, seed: int) -> TrialResult:
    db = ctx.tpch
    spec = ErrorSpec(relative_error=0.10, confidence=0.95)
    lineitem = db.table("lineitem")
    sample = stratified_sample(
        lineitem, "l_returnflag", 6000, policy="congress", rng=_rng(seed)
    )
    catalog = SynopsisCatalog.for_database(db)
    catalog.samples = [
        SampleEntry(
            table="lineitem",
            sample=sample,
            kind="stratified",
            strata_column="l_returnflag",
            built_at_rows=lineitem.num_rows,
        )
    ]
    exact = ctx.oracle.groups(_OFFLINE_SQL, "flag", "rev")
    try:
        result = db.sql(
            _OFFLINE_SQL,
            options=QueryOptions(spec=spec, technique="offline_sample"),
        )
    except (InfeasiblePlanError, UnsupportedQueryError):
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    return _grouped_ci_trial(result, exact, "flag", "rev")


def _tuned_synopsis(ctx: AuditContext, seed: int) -> TrialResult:
    """Audit a synopsis the tuner built, not a hand-placed one.

    Per trial: a workload log full of grouped-SUM demand drives one
    :class:`~repro.tuner.TuningDaemon` cycle against an empty catalog;
    the daemon's stratified sample (seeded from the trial seed) then
    answers the grouped query through the offline rewriter. The joint
    CI must cover the exact per-group answers at the claimed rate —
    the guarantee must survive the catalog being machine-chosen.
    """
    from ..tuner import QueryFingerprint, TuningDaemon, WorkloadLog

    rng = np.random.default_rng(ctx.DATA_SEED)
    rows = int(20_000 * max(ctx.scale, 0.25))
    db = Database()
    db.create_table(
        "events",
        {
            "seg": rng.integers(0, 8, rows),
            "v": rng.exponential(10.0, rows),
        },
    )
    log = WorkloadLog()
    log.extend(
        QueryFingerprint(
            table="events",
            group_columns=("seg",),
            agg_family="sum",
            measure_columns=("v",),
            technique="quickr",
        )
        for _ in range(8)
    )
    daemon = TuningDaemon(
        db, log, storage_budget_rows=8_000, sample_fraction=0.3, seed=seed
    )
    report = daemon.run_cycle(triggered_by="manual")
    if report.failed or not report.built:
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    sql = "SELECT seg, SUM(v) AS s FROM events GROUP BY seg"
    exact = _group_sums(db.table("events"), "seg", "v")
    spec = ErrorSpec(relative_error=0.20, confidence=0.95)
    try:
        result = db.sql(
            sql,
            options=QueryOptions(
                spec=spec, technique="offline_sample", seed=seed
            ),
        )
    except (InfeasiblePlanError, UnsupportedQueryError):
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    return _grouped_ci_trial(result, exact, "seg", "s")


def _sample_seek(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.zipf
    synopsis = build_sample_seek(
        table, "value", "group_id", sample_size=3000, rng=_rng(seed)
    )
    answers, _cost = answer_group_by_sum(synopsis, table)
    truth = _group_sums(table, "group_id", "value")
    precision = distribution_precision(answers, truth)
    # Measure-biased share estimates are multinomial-like:
    # E[precision²] <= 1/n, so 3/√n is a ~95%-coverage a-priori bound.
    n = max(synopsis.sample_table.num_rows, 1)
    bound = 3.0 / math.sqrt(n)
    return TrialResult(precision, 0.0, precision <= bound, 0.0, bound)


def _appended_sample(ctx: AuditContext, seed: int) -> TrialResult:
    """Audit samples maintained through appends, not rebuilt.

    Per trial: a stratified and a uniform sample are built over a fixed
    table, then 12 appends of 1% each land through
    :meth:`Database.append_rows`. The appended rows drift (a larger mean,
    and a segment the build never saw), so a sample that merely aged
    would miss. A grouped SUM and a scalar AVG are then answered with
    ``technique="offline_sample"`` through the ladder: both must be
    served fresh (not degraded, every sample at staleness 0), and both
    must cover the current exact answer. A fully kept stratum answers
    exactly, so its zero-width interval is compared up to summation
    order.
    """
    from ..resilience.ladder import ResilientEngine

    data = np.random.default_rng(ctx.DATA_SEED + 3)
    rows = int(20_000 * max(ctx.scale, 0.25))
    db = Database()
    db.create_table(
        "events",
        {"seg": data.integers(0, 6, rows), "v": data.exponential(10.0, rows)},
    )
    table = db.table("events")
    rng = _rng(seed)
    catalog = SynopsisCatalog(db)
    for kind, sample in (
        ("stratified", stratified_sample(table, "seg", rows // 10, rng=rng)),
        ("uniform", srs_sample(table, rows // 10, rng)),
    ):
        catalog.add_sample(
            SampleEntry(
                table="events",
                sample=sample,
                kind=kind,
                strata_column="seg" if kind == "stratified" else None,
                built_at_rows=rows,
            )
        )
    for _ in range(12):
        batch = rows // 100
        db.append_rows(
            "events",
            {"seg": data.integers(0, 7, batch), "v": data.exponential(15.0, batch)},
        )
    engine = ResilientEngine(db, warn_on_degrade=False)
    options = QueryOptions(
        spec=ErrorSpec(relative_error=0.5, confidence=0.95),
        seed=seed,
        technique="offline_sample",
    )
    grouped = engine.sql(
        "SELECT seg, SUM(v) AS s FROM events GROUP BY seg", options=options
    )
    scalar = engine.sql("SELECT AVG(v) AS a FROM events", options=options)
    fresh = all(
        r.technique == "offline_sample" and not r.is_degraded
        for r in (grouped, scalar)
    ) and all(e.staleness(db) == 0 for e in catalog.samples)
    truths = _group_sums(db.table("events"), "seg", "v")
    covered = set(truths) == {k.item() for k in grouped.table["seg"]}
    for row, key in enumerate(grouped.table["seg"]):
        cell = grouped.estimate("s", row)
        truth = truths[key.item()]
        covered &= cell.covers(truth) or math.isclose(cell.value, truth, rel_tol=1e-9)
    cell = scalar.estimate("a", 0)
    truth = float(np.mean(db.table("events")["v"]))
    return TrialResult(
        cell.value,
        truth,
        fresh and covered and cell.covers(truth),
        cell.ci_low,
        cell.ci_high,
    )


# ----------------------------------------------------------------------
# Resilience paths (degraded answers must stay honest)
# ----------------------------------------------------------------------

def _degraded_stale_widened(ctx: AuditContext, seed: int) -> TrialResult:
    """Audit the degradation ladder's stale-synopsis rung.

    Per trial: a uniform sample is built from the first 80% of the
    table's rows, then the table "grows" to its full size (staleness
    0.25 — past the catalog's freshness threshold). Forcing
    ``technique="offline_sample"`` makes the requested rung refuse
    (no *fresh* covering sample), so the ladder serves from the stale
    rung, widening the CI by ``half·(1+s) + s·|value|``. The widened
    interval must still cover the *current* exact answer at the claimed
    rate, even though the estimator only ever saw the stale prefix —
    this is the "never claim a guarantee a degraded answer cannot
    honor" invariant, audited against the oracle.
    """
    from ..resilience.ladder import ResilientEngine

    table = ctx.exponential
    values = np.asarray(table["value"], dtype=np.float64)
    truth = float(values.sum())
    db = Database()
    db.create_table("events", {"value": values})
    prefix = int(table.num_rows * 0.8)
    prefix_table = Table({"value": values[:prefix]}, name="events")
    sample = srs_sample(prefix_table, 1500, _rng(seed))
    catalog = SynopsisCatalog(db)
    catalog.add_sample(
        SampleEntry(
            table="events",
            sample=sample,
            kind="uniform",
            built_at_rows=prefix,
        )
    )
    engine = ResilientEngine(db, warn_on_degrade=False)
    spec = ErrorSpec(relative_error=0.10, confidence=0.95)
    try:
        result = engine.sql(
            "SELECT SUM(value) AS s FROM events",
            options=QueryOptions(
                spec=spec, seed=seed, technique="offline_sample"
            ),
        )
    except QueryRefused:
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    if not getattr(result, "is_degraded", False):
        # Served fresh: the staleness setup failed; count as a refusal
        # so the path cannot pass by accident.
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    cell = result.estimate("s", 0)
    return TrialResult(
        cell.value, truth, cell.covers(truth), cell.ci_low, cell.ci_high
    )


def _degraded_missing_shard(ctx: AuditContext, seed: int) -> TrialResult:
    """Audit k-of-n scatter-gather widening against the whole-table oracle.

    Per trial: the 8-shard exponential table loses one shard (a seeded
    victim is killed through the fault injector, so both the primary and
    the hedged attempt against it fail), and the query is served in OLA
    mode — each surviving shard reports a fixed-stop CI from 30% of its
    rows, so the merged interval carries real sampling error, not a
    trivially-exact answer. The missing shard contributes its catalog
    envelope: the reported CI is widened by ``[Σ negative, Σ positive]``
    of the victim's value column. That widened interval must cover the
    exact whole-table SUM at ≥ the claimed rate. An answer that is not
    degraded means the kill failed to land; count it as a refusal so the
    path cannot pass by accident.
    """
    from ..resilience.faults import FaultInjector, inject, kill_shard
    from ..sharding import ScatterGatherExecutor

    sharded = ctx.sharded_exponential
    truth = float(np.asarray(ctx.exponential["value"], dtype=np.float64).sum())
    victim = int(_rng(seed).integers(0, sharded.num_shards))
    executor = ScatterGatherExecutor(sharded, max_workers=1)
    spec = ErrorSpec(relative_error=0.10, confidence=0.95)
    try:
        with inject(FaultInjector([kill_shard(victim)])):
            result = executor.sql(
                "SELECT SUM(value) AS s FROM exp_t",
                options=QueryOptions(spec=spec, seed=seed, technique="ola"),
            )
    except QueryRefused:
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    if not result.is_degraded:
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    cell = result.estimate("s", 0)
    return TrialResult(
        cell.value, truth, cell.covers(truth), cell.ci_low, cell.ci_high
    )


# ----------------------------------------------------------------------
# Online paths
# ----------------------------------------------------------------------

def _ola_fixed_stop(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.exponential
    truth = float(table["value"].sum())
    ola = OnlineAggregator(
        table, "value", agg="sum", confidence=0.95, seed=seed
    )
    snap = ola.snapshot(int(table.num_rows * 0.10))
    return TrialResult(
        snap.value, truth, snap.covers(truth), snap.ci_low, snap.ci_high
    )


def _sharded_ola_fixed_stop(ctx: AuditContext, seed: int) -> TrialResult:
    """Audit scatter-gather OLA with every shard served.

    Per trial, the 8-shard exponential table answers in ``ola`` mode:
    each shard reports a fixed-stop CI from a random 30% of its rows and
    the gather adds the shard estimates. Trials alternate by seed between
    ``SUM(value)`` and a filtered ``AVG(value)`` (the merged SUM interval
    divided by the merged COUNT interval); the merged CI must cover the
    exact whole-table answer. A degraded answer means a shard went
    missing; count it as a refusal so the path cannot pass by accident.
    """
    from ..sharding import ScatterGatherExecutor

    values = np.asarray(ctx.exponential["value"], dtype=np.float64)
    if seed % 2:
        sql = "SELECT AVG(value) AS x FROM exp_t WHERE value > 50"
        truth = float(values[values > 50].mean())
    else:
        sql = "SELECT SUM(value) AS x FROM exp_t"
        truth = float(values.sum())
    executor = ScatterGatherExecutor(ctx.sharded_exponential, max_workers=1)
    result = executor.sql(
        sql, options=QueryOptions(seed=seed, technique="ola")
    )
    if result.is_degraded:
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    cell = result.estimate("x", 0)
    return TrialResult(
        cell.value, truth, cell.covers(truth), cell.ci_low, cell.ci_high
    )


def _ola_peeking_stop(ctx: AuditContext, seed: int) -> TrialResult:
    # Skewed data + optional stopping: prefixes that miss the tail both
    # underestimate the sum AND report a deceptively tight CI, so the
    # "stop when it first looks good" rule locks in exactly the bad
    # prefixes — coverage collapses well below nominal (E13).
    table = ctx.heavytail
    truth = float(table["value"].sum())
    ola = OnlineAggregator(
        table, "value", agg="sum", confidence=0.95, seed=seed
    )
    snap = ola.run_to_target(0.2, batch_size=50)
    return TrialResult(
        snap.value, truth, snap.covers(truth), snap.ci_low, snap.ci_high
    )


def _ripple_join(ctx: AuditContext, seed: int) -> TrialResult:
    left, right = ctx.join_left, ctx.join_right
    truth = ctx.join_truth()
    join = RippleJoin(
        left, right, "k", "k",
        left_measure="v", right_measure="w",
        confidence=0.95, seed=seed,
    )
    snap = join.advance(steps=int(left.num_rows * 0.4))
    return TrialResult(
        snap.value, truth, snap.covers(truth), snap.ci_low, snap.ci_high
    )


# ----------------------------------------------------------------------
# Full-engine planner paths (advisor-visible techniques)
# ----------------------------------------------------------------------

_PILOT_SQL = (
    "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
    "WHERE l_shipdate < 1200"
)
_QUICKR_SQL = (
    "SELECT l_returnflag AS flag, SUM(l_extendedprice) AS rev "
    "FROM lineitem GROUP BY l_returnflag"
)


def _grouped_ci_trial(
    result, exact: Dict[object, float], key: str, value: str
) -> TrialResult:
    """Joint CI-coverage hit across every group of a grouped result."""
    if not getattr(result, "is_approximate", False):
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    assert isinstance(result, ApproximateResult)
    keys = result.table[key]
    all_covered = True
    worst_missing = len(set(exact) - {
        (k.item() if hasattr(k, "item") else k) for k in keys
    })
    if worst_missing:
        all_covered = False
    total_est = 0.0
    total_truth = sum(exact.values())
    for row in range(result.table.num_rows):
        k = keys[row]
        k = k.item() if hasattr(k, "item") else k
        truth = exact.get(k)
        if truth is None:
            all_covered = False
            continue
        cell = result.estimate(value, row)
        total_est += cell.value
        if not cell.covers(truth):
            all_covered = False
    return TrialResult(total_est, total_truth, all_covered)


def _pilot_engine(ctx: AuditContext, seed: int) -> TrialResult:
    db = ctx.tpch
    spec = ErrorSpec(relative_error=0.10, confidence=0.95)
    truth = ctx.oracle.scalar(_PILOT_SQL)
    try:
        result = db.sql(
            _PILOT_SQL,
            options=QueryOptions(spec=spec, technique="pilot", seed=seed),
        )
    except (InfeasiblePlanError, UnsupportedQueryError):
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    if not result.is_approximate:
        return TrialResult(truth, truth, hit=True, refused=True)
    value = result.scalar()
    rel_err = abs(value - truth) / abs(truth) if truth else 0.0
    cell = result.estimate("rev", 0)
    # "spec" claim: the promise is |err| <= ε, not just CI coverage.
    return TrialResult(
        value, truth, rel_err <= spec.relative_error, cell.ci_low, cell.ci_high
    )


def _quickr_engine(ctx: AuditContext, seed: int) -> TrialResult:
    db = ctx.tpch
    spec = ErrorSpec(relative_error=0.10, confidence=0.95)
    exact = ctx.oracle.groups(_QUICKR_SQL, "flag", "rev")
    try:
        result = db.sql(
            _QUICKR_SQL,
            options=QueryOptions(spec=spec, technique="quickr", seed=seed),
        )
    except (InfeasiblePlanError, UnsupportedQueryError):
        return TrialResult(math.nan, math.nan, hit=False, refused=True)
    return _grouped_ci_trial(result, exact, "flag", "rev")


# ----------------------------------------------------------------------
# Sketch paths (data-independent guarantees)
# ----------------------------------------------------------------------

def _countmin_point(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.zipf
    keys = table["group_id"]
    sketch = CountMinSketch(epsilon=0.005, delta=0.02, seed=seed)
    sketch.add(keys)
    rng = _rng(seed)
    uniq, counts = np.unique(keys, return_counts=True)
    probe = int(rng.integers(0, len(uniq)))
    truth = float(counts[probe])
    est = float(sketch.query_one(uniq[probe]))
    # One-sided guarantee: truth <= est <= truth + ε·N w.p. 1-δ.
    hit = truth <= est <= truth + sketch.error_bound
    return TrialResult(est, truth, hit, truth, truth + sketch.error_bound)


def _hll_distinct(ctx: AuditContext, seed: int) -> TrialResult:
    n_distinct = 50_000
    hll = HyperLogLog(precision=10, seed=seed)
    hll.add(np.arange(n_distinct, dtype=np.int64))
    est = hll.estimate()
    rse = hll.relative_standard_error
    band = 2.0 * rse * n_distinct
    return TrialResult(
        est,
        float(n_distinct),
        abs(est - n_distinct) <= band,
        n_distinct - band,
        n_distinct + band,
    )


def _kmv_distinct(ctx: AuditContext, seed: int) -> TrialResult:
    n_distinct = 50_000
    kmv = KMVSketch(k=1024, seed=seed)
    kmv.add(np.arange(n_distinct, dtype=np.int64))
    est = kmv.estimate()
    rse = kmv.relative_standard_error
    band = 2.0 * rse * n_distinct
    return TrialResult(
        est,
        float(n_distinct),
        abs(est - n_distinct) <= band,
        n_distinct - band,
        n_distinct + band,
    )


# ----------------------------------------------------------------------
# Bootstrap
# ----------------------------------------------------------------------

def _bootstrap_mean(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.exponential
    values = np.asarray(table["value"], dtype=np.float64)
    truth = float(values.mean())
    rng = _rng(seed)
    sample = rng.choice(values, size=300, replace=False)
    res = bootstrap_ci(
        sample, np.mean, num_replicates=300, confidence=0.95, rng=rng
    )
    return TrialResult(
        res.value, truth, res.ci_low <= truth <= res.ci_high,
        res.ci_low, res.ci_high,
    )


# ----------------------------------------------------------------------
# Histogram / wavelet synopses
# ----------------------------------------------------------------------

def _histogram_range(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.exponential
    values = np.asarray(table["value"], dtype=np.float64)
    hist = equi_depth(values, num_buckets=64)
    rng = _rng(seed)
    lo, hi = np.sort(rng.uniform(values.min(), values.max(), 2))
    est = hist.range_count(lo, hi)
    truth = float(np.count_nonzero((values >= lo) & (values <= hi)))
    # Deterministic bound: only partially-overlapped buckets can err, by
    # at most their full row count each.
    frac = hist._overlap_fractions(lo, hi)
    partial = (frac > 0.0) & (frac < 1.0)
    bound = float(np.sum(hist.counts[partial])) + 1e-6
    return TrialResult(est, truth, abs(est - truth) <= bound)


def _wavelet_range(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.exponential
    values = np.asarray(table["value"], dtype=np.float64)
    synopsis = build_wavelet_synopsis(
        values, num_cells=1024, keep_coefficients=96
    )
    rng = _rng(seed)
    lo, hi = np.sort(rng.uniform(values.min(), values.max(), 2))
    est = synopsis.range_sum(lo, hi)
    truth = float(np.count_nonzero((values >= lo) & (values <= hi)))
    # No a-priori per-query guarantee exists (the paper's point); the
    # audit records the realized error only, so hit is vacuous.
    return TrialResult(est, truth, hit=True)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def build_paths() -> List[AuditPath]:
    """All audited paths, in report order."""
    return [
        AuditPath(
            name="srs_sum",
            family="sampling",
            claim="ci",
            claimed_coverage=0.95,
            description="SRS(1500) HT SUM with CLT CI on exponential data",
            run=_srs_sum,
        ),
        AuditPath(
            name="bernoulli_sum",
            family="sampling",
            claim="ci",
            claimed_coverage=0.95,
            description="Bernoulli(3%) HT SUM with CLT CI on exponential data",
            run=_bernoulli_sum_exponential,
        ),
        AuditPath(
            name="bernoulli_sum_heavytail",
            family="sampling",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "Bernoulli(1%) HT SUM on lognormal(σ=2.5): rare huge rows "
                "break the CLT interval — the paper's skew warning"
            ),
            run=_bernoulli_sum_heavytail,
            expected_failure=True,
        ),
        AuditPath(
            name="stratified_groupby_joint",
            family="sampling",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "Congress-stratified GROUP BY SUM; JOINT coverage across "
                "40 skewed groups after a union-bound confidence split. "
                "Undercovers at realistic budgets: the 99.9%-level "
                "per-group t-intervals the union bound demands are "
                "inaccurate on skewed strata — per-group guarantees do "
                "not compose cheaply (the paper's group-by warning)"
            ),
            run=_stratified_joint,
            expected_failure=True,
        ),
        AuditPath(
            name="offline_blinkdb_grouped",
            family="offline",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "BlinkDB-style stratified offline sample answering a "
                "grouped TPC-H query through the rewriter (joint coverage)"
            ),
            run=_offline_blinkdb,
            heavy=True,
        ),
        AuditPath(
            name="tuned_synopsis",
            family="offline",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "Stratified sample chosen and built by the workload-"
                "adaptive tuner (one daemon cycle over synthetic grouped "
                "demand) answering the grouped query it was tuned for "
                "(joint coverage)"
            ),
            run=_tuned_synopsis,
            heavy=True,
        ),
        AuditPath(
            name="sample_seek_distribution",
            family="offline",
            claim="bound",
            claimed_coverage=0.95,
            description=(
                "Sample+Seek distribution precision <= 3/√n (measure-"
                "biased sample + exact seek for small groups)"
            ),
            run=_sample_seek,
            heavy=True,
        ),
        AuditPath(
            name="appended_sample",
            family="offline",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "Stratified and uniform samples maintained through 12 "
                "drifting 1% appends answer a grouped SUM and a scalar AVG "
                "fresh (staleness 0, not degraded); both must cover the "
                "current exact answer"
            ),
            run=_appended_sample,
        ),
        AuditPath(
            name="degraded_stale_widened",
            family="resilience",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "Degradation ladder stale-synopsis rung: a sample built "
                "at 80% of the table answers the grown table through "
                "ResilientEngine; the staleness-widened CI must still "
                "cover the current exact answer"
            ),
            run=_degraded_stale_widened,
            heavy=True,
        ),
        AuditPath(
            name="degraded_missing_shard",
            family="resilience",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "Scatter-gather k-of-n serving: one of 8 shards is "
                "killed; the 7-shard OLA answer, widened by the missing "
                "shard's catalog envelope, must still cover the exact "
                "whole-table SUM"
            ),
            run=_degraded_missing_shard,
            heavy=True,
        ),
        AuditPath(
            name="ola_fixed_stop",
            family="online",
            claim="ci",
            claimed_coverage=0.95,
            description="Online aggregation CI at a FIXED 10% stopping point",
            run=_ola_fixed_stop,
        ),
        AuditPath(
            name="sharded_ola_fixed_stop",
            family="online",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "Scatter-gather OLA over 8 shards, all served: per-shard "
                "fixed-stop CIs from a random 30% of each shard, merged; "
                "SUM and a filtered AVG must cover the whole-table answer"
            ),
            run=_sharded_ola_fixed_stop,
        ),
        AuditPath(
            name="ola_peeking_stop",
            family="online",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "OLA on skewed data stopped the FIRST time the CI looks "
                "tight (peeking): realized coverage collapses below "
                "nominal, as the paper warns (E13)"
            ),
            run=_ola_peeking_stop,
            expected_failure=True,
        ),
        AuditPath(
            name="ripple_join_fixed",
            family="online",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "Ripple join SUM CI at a fixed step budget on a 100:1 "
                "equi-join (joins are where guarantees get hard)"
            ),
            run=_ripple_join,
            heavy=True,
        ),
        AuditPath(
            name="pilot_engine_spec",
            family="engine",
            claim="spec",
            claimed_coverage=0.95,
            description=(
                "Two-stage pilot planner through the advisor: realized "
                "relative error within the ERROR WITHIN 10% contract"
            ),
            run=_pilot_engine,
            heavy=True,
        ),
        AuditPath(
            name="quickr_engine_ci",
            family="engine",
            claim="ci",
            claimed_coverage=0.95,
            description=(
                "Quickr-style query-time sampling through the advisor: "
                "a-posteriori CIs must still cover (joint across groups)"
            ),
            run=_quickr_engine,
            heavy=True,
        ),
        AuditPath(
            name="countmin_point",
            family="sketch",
            claim="bound",
            claimed_coverage=0.98,
            description=(
                "Count-Min point frequency within [truth, truth + ε·N] "
                "(one-sided (ε, δ) guarantee, δ=0.02)"
            ),
            run=_countmin_point,
        ),
        AuditPath(
            name="hll_distinct",
            family="sketch",
            claim="bound",
            claimed_coverage=0.9545,
            description="HyperLogLog cardinality within 2·RSE (m=1024)",
            run=_hll_distinct,
        ),
        AuditPath(
            name="kmv_distinct",
            family="sketch",
            claim="bound",
            claimed_coverage=0.9545,
            description="KMV cardinality within 2·RSE (k=1024)",
            run=_kmv_distinct,
        ),
        AuditPath(
            name="bootstrap_mean",
            family="sampling",
            claim="ci",
            claimed_coverage=0.95,
            description="Percentile bootstrap CI for AVG from an SRS(300)",
            run=_bootstrap_mean,
            heavy=True,
        ),
        AuditPath(
            name="histogram_equidepth_range",
            family="synopsis",
            claim="bound",
            claimed_coverage=1.0,
            description=(
                "Equi-depth histogram range COUNT within the deterministic "
                "partial-bucket mass bound"
            ),
            run=_histogram_range,
        ),
        AuditPath(
            name="wavelet_range_sum",
            family="synopsis",
            claim="none",
            claimed_coverage=None,
            description=(
                "Haar wavelet range count: NO a-priori guarantee exists; "
                "realized error recorded for the report only"
            ),
            run=_wavelet_range,
        ),
    ]
