"""The registry of audited paths.

Two kinds of path share one report. A :class:`~repro.audit.doors.DoorRow`
is a served ``sql()`` query, as data: door, SQL, options and a
per-trial fixture, run and scored by the one door runner
(:mod:`repro.audit.doors`) against the same door's exact twin. An
:class:`AuditPath` is an estimator-level trial (a library sampler,
sketch or synopsis called directly) whose ``run`` callable executes one
seeded trial and reports the estimate, the interval or bound it
claimed, and the exact answer. The runner replays N trials of either
and checks the hit count against the claimed coverage with a binomial
band.

Claim kinds:

* ``"ci"`` — the path reports a confidence interval; a hit means the CI
  contained the exact answer (CI-coverage audit).
* ``"spec"`` — the path promises ``|err| <= ε`` with probability ``c``
  (the ERROR WITHIN clause); a hit means the realized relative error met
  ε, whatever interval was reported.
* ``"bound"`` — the path states an explicit error bound (ε·N for
  Count-Min, k·RSE for cardinality sketches, bucket mass for
  histograms, a missing shard's envelope); a hit means the realized
  error stayed inside it.
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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..core.errorspec import ErrorSpec
from ..core.exceptions import InfeasiblePlanError
from ..core.options import QueryOptions
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
from ..resilience.faults import kill_shard
from ..sampling.row import bernoulli_sample, srs_sample
from ..sampling.stratified import group_estimates, stratified_sample
from ..sharding import ShardedTable
from ..sketches.countmin import CountMinSketch
from ..sketches.hyperloglog import HyperLogLog
from ..sketches.kmv import KMVSketch
from ..storage.blocks import clustered_layout
from ..wavelets.haar import build_wavelet_synopsis
from ..workloads import generate_tpch, heavy_tailed_table, zipf_group_table
from .doors import DoorRow, TrialResult


@dataclass
class AuditPath:
    """One audited estimator-level (estimator, query, guarantee) trial."""

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
    """Seeded datasets shared across all paths.

    The data seed is fixed (it defines *which* population is audited);
    the per-trial seeds vary the estimator's randomness only. Everything
    is built lazily so a filtered audit (``--paths``) pays only for what
    it uses.
    """

    DATA_SEED = 42
    NUM_SHARDS = 8

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale
        self._tables: Dict[str, object] = {}

    def _table(self, key: str, builder: Callable[[], object]):
        if key not in self._tables:
            self._tables[key] = builder()
        return self._tables[key]

    @property
    def tpch(self) -> Database:
        return self._table(
            "tpch",
            lambda: generate_tpch(
                scale=self.scale, seed=self.DATA_SEED, block_size=256
            ),
        )

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
    def sharded_exponential(self) -> ShardedTable:
        """The exponential table split into 8 hash shards."""
        return self._table(
            "sharded_exponential",
            lambda: ShardedTable.from_table(
                self.exponential, num_shards=self.NUM_SHARDS
            ),
        )

    @property
    def clustered_sharded_exponential(self) -> ShardedTable:
        """The exponential table sorted by value, then hash-sharded 8
        ways: every shard keeps the sorted order, so its blocks are
        internally alike and differ from each other."""
        return self._table(
            "clustered_sharded_exponential",
            lambda: ShardedTable.from_table(
                clustered_layout(self.exponential, "value"),
                num_shards=self.NUM_SHARDS,
            ),
        )

    @property
    def range_sharded_exponential(self) -> ShardedTable:
        """The exponential table range-sharded three ways on ``k`` (is
        the value above its median?): two keys over three shards leave
        the first shard empty."""

        def build() -> ShardedTable:
            v = self.exponential["value"]
            k = (v > np.median(v)).astype(np.int64)
            table = Table({"value": v, "k": k}, name="exp_t", block_size=512)
            return ShardedTable.from_table(table, 3, by="range", key="k")

        return self._table("range_sharded_exponential", build)

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
    def zipf_sums(self) -> Dict[object, float]:
        """Exact ``{group_id: SUM(value)}`` of the zipf table."""

        def build() -> Dict[object, float]:
            keys, inverse = np.unique(self.zipf["group_id"], return_inverse=True)
            sums = np.bincount(
                inverse,
                weights=np.asarray(self.zipf["value"], dtype=np.float64),
                minlength=len(keys),
            )
            return {k.item(): float(s) for k, s in zip(keys, sums)}

        return self._table("zipf_sums", build)

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
        def build() -> float:
            left, right = self.join_left, self.join_right
            w_by_key = right["w"][np.searchsorted(right["k"], left["k"])]
            return float(np.sum(left["v"] * w_by_key))

        return self._table("join_truth", build)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


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
    truths = ctx.zipf_sums
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
# Offline and online estimator paths
# ----------------------------------------------------------------------

def _sample_seek(ctx: AuditContext, seed: int) -> TrialResult:
    table = ctx.zipf
    synopsis = build_sample_seek(
        table, "value", "group_id", sample_size=3000, rng=_rng(seed)
    )
    answers, _cost = answer_group_by_sum(synopsis, table)
    precision = distribution_precision(answers, ctx.zipf_sums)
    # Measure-biased share estimates are multinomial-like:
    # E[precision²] <= 1/n, so 3/√n is a ~95%-coverage a-priori bound.
    n = max(synopsis.sample_table.num_rows, 1)
    bound = 3.0 / math.sqrt(n)
    return TrialResult(precision, 0.0, precision <= bound, 0.0, bound)


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
# Door fixtures: what a door row's trial reads, undone on exit
# ----------------------------------------------------------------------

def _shared(dataset: str) -> Callable:
    """The fixture of a row that reads one of the context's datasets."""
    return lambda ctx, seed: nullcontext(getattr(ctx, dataset))


_tpch = _shared("tpch")
_sharded = _shared("sharded_exponential")
_range_sharded = _shared("range_sharded_exponential")
_clustered_sharded = _shared("clustered_sharded_exponential")


@contextmanager
def _blinkdb_sample(ctx: AuditContext, seed: int):
    """A congress-stratified lineitem sample, drawn for the trial, is the
    shared TPC-H catalog's only sample until the trial ends."""
    db = ctx.tpch
    lineitem = db.table("lineitem")
    catalog = SynopsisCatalog.for_database(db)
    kept = catalog.samples
    catalog.samples = [
        SampleEntry(
            table="lineitem",
            sample=stratified_sample(
                lineitem, "l_returnflag", 6000, policy="congress",
                rng=_rng(seed),
            ),
            kind="stratified",
            strata_column="l_returnflag",
            built_at_rows=lineitem.num_rows,
        )
    ]
    try:
        yield db
    finally:
        catalog.samples = kept


def _tuned_events(ctx: AuditContext, seed: int):
    """A workload log full of grouped-SUM demand drives one
    :class:`~repro.tuner.TuningDaemon` cycle against an empty catalog,
    seeded from the trial seed: the guarantee must survive the catalog
    being machine-chosen. A cycle that builds nothing is a refusal."""
    from ..tuner import QueryFingerprint, TuningDaemon, WorkloadLog

    rng = np.random.default_rng(ctx.DATA_SEED)
    rows = int(20_000 * max(ctx.scale, 0.25))
    db = Database()
    db.create_table(
        "events",
        {"seg": rng.integers(0, 8, rows), "v": rng.exponential(10.0, rows)},
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
        raise InfeasiblePlanError("the tuning cycle built no sample")
    return nullcontext(db)


def _appended_events(ctx: AuditContext, seed: int):
    """A stratified and a uniform sample built over a fixed table, then
    12 drifting 1% appends (a larger mean, and a segment the build never
    saw) through :meth:`Database.append_rows`: a sample that merely aged
    would miss."""
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
    return nullcontext(db)


def _stale_prefix(ctx: AuditContext, seed: int):
    """The exponential table, with a uniform sample built from its first
    80% of rows: staleness 0.25, past the catalog's freshness
    threshold."""
    values = np.asarray(ctx.exponential["value"], dtype=np.float64)
    db = Database()
    db.create_table("events", {"value": values})
    prefix = int(len(values) * 0.8)
    sample = srs_sample(
        Table({"value": values[:prefix]}, name="events"), 1500, _rng(seed)
    )
    SynopsisCatalog(db).add_sample(
        SampleEntry(
            table="events", sample=sample, kind="uniform", built_at_rows=prefix
        )
    )
    return nullcontext(db)


@contextmanager
def _shard_samples(ctx: AuditContext, seed: int):
    """Per-shard uniform samples drawn for this trial (a sample kept
    across trials would score one draw N times), removed after it."""
    sharded = ctx.sharded_exponential
    sharded.build_shard_samples(rows_per_shard=1000, seed=seed)
    try:
        yield sharded
    finally:
        catalog = SynopsisCatalog.for_database(sharded.binder_database())
        catalog.samples[:] = [e for e in catalog.samples if e.shard is None]


def _kill_one_shard(seed: int) -> list:
    """A seeded victim shard, gone for the primary and hedged attempts."""
    return [kill_shard(int(_rng(seed).integers(0, AuditContext.NUM_SHARDS)))]


_GROUPED_SQL = (
    "SELECT l_returnflag AS flag, SUM(l_extendedprice) AS rev "
    "FROM lineitem GROUP BY l_returnflag"
)
#: grouped on an integer key: an exact twin grouped on object strings
#: costs ~10 ms per trial at smoke scale
_LINE_SQL = (
    "SELECT l_linenumber AS line, SUM(l_extendedprice) AS rev "
    "FROM lineitem GROUP BY l_linenumber"
)
_PILOT_SQL = (
    "SELECT SUM(l_extendedprice) AS rev FROM lineitem "
    "WHERE l_shipdate < 1200"
)
#: the sharded rows' queries: a SUM, a filtered AVG, and a COUNT
#: selective enough that each shard's sample holds fewer than 100
#: matched rows
_SHARDED_SQL = (
    "SELECT SUM(value) AS x FROM exp_t",
    "SELECT AVG(value) AS x FROM exp_t WHERE value > 50",
    "SELECT COUNT(*) AS x FROM exp_t WHERE value > 300",
)


def _spec(technique=None, relative_error=0.10, **options) -> QueryOptions:
    spec = ErrorSpec(relative_error=relative_error, confidence=0.95)
    return QueryOptions(spec=spec, technique=technique, **options)


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

def build_paths() -> List[Union[AuditPath, DoorRow]]:
    """All audited paths, in report order."""
    # DoorRow(name, door, entry, sql, fixture, options, ...)
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
        DoorRow(
            "offline_blinkdb_grouped", "Database.sql", "offline_sample",
            (_GROUPED_SQL,), _blinkdb_sample, _spec("offline_sample"),
            family="offline", heavy=True,
            description="BlinkDB-style stratified offline sample answering a "
            "grouped TPC-H query through the rewriter (joint coverage)",
        ),
        DoorRow(
            "tuned_synopsis", "Database.sql", "offline_sample",
            ("SELECT seg, SUM(v) AS s FROM events GROUP BY seg",),
            _tuned_events, _spec("offline_sample", relative_error=0.20),
            family="offline", heavy=True,
            description="Stratified sample chosen and built by the workload-"
            "adaptive tuner (one daemon cycle over synthetic grouped demand) "
            "answering the grouped query it was tuned for (joint coverage)",
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
        DoorRow(
            "appended_sample", "ResilientEngine.sql", "requested",
            (
                "SELECT seg, SUM(v) AS s FROM events GROUP BY seg",
                "SELECT AVG(v) AS a FROM events",
            ),
            _appended_events, _spec("offline_sample", relative_error=0.5),
            family="offline", answer="fresh",
            description="Stratified and uniform samples maintained through "
            "12 drifting 1% appends answer a grouped SUM and a scalar AVG "
            "fresh (staleness 0, not degraded); both must cover the current "
            "exact answer",
        ),
        DoorRow(
            "degraded_stale_widened", "ResilientEngine.sql", "stale_synopsis",
            ("SELECT SUM(value) AS s FROM events",), _stale_prefix,
            _spec("offline_sample"),
            family="resilience", answer="degraded", heavy=True,
            description="Degradation ladder stale-synopsis rung: a sample "
            "built at 80% of the table answers the grown table through "
            "ResilientEngine; the staleness-widened CI must still cover the "
            "current exact answer",
        ),
        DoorRow(
            "degraded_missing_shard", "ScatterGatherExecutor.sql", "ola",
            ("SELECT SUM(value) AS s FROM exp_t",), _sharded, _spec("ola"),
            family="resilience", answer="degraded", faults=_kill_one_shard,
            heavy=True,
            description="Scatter-gather k-of-n serving: one of 8 shards is "
            "killed; the 7-shard OLA answer, widened by the missing shard's "
            "catalog envelope, must still cover the exact whole-table SUM",
        ),
        DoorRow(
            "sharded_exact_missing_shard", "ScatterGatherExecutor.sql",
            "exact", _SHARDED_SQL, _sharded, QueryOptions(technique="exact"),
            family="resilience", claim="bound", claimed_coverage=1.0,
            answer="degraded", cycle=True, faults=_kill_one_shard,
            description="Scatter-gather exact with one of 8 shards killed: "
            "the served shards' partials widened by the missing shard's "
            "catalog envelope bound the whole-table SUM, filtered AVG and "
            "COUNT deterministically",
        ),
        AuditPath(
            name="ola_fixed_stop",
            family="online",
            claim="ci",
            claimed_coverage=0.95,
            description="Online aggregation CI at a FIXED 10% stopping point",
            run=_ola_fixed_stop,
        ),
        DoorRow(
            "sharded_ola_fixed_stop", "ScatterGatherExecutor.sql", "ola",
            _SHARDED_SQL[:2], _sharded, QueryOptions(technique="ola"),
            family="online", answer="not_degraded", cycle=True,
            description="Scatter-gather OLA over 8 shards, all served: "
            "per-shard fixed-stop CIs from a random 30% of each shard's "
            "blocks, merged; SUM and a filtered AVG must cover the "
            "whole-table answer",
        ),
        DoorRow(
            "sharded_ola_clustered", "ScatterGatherExecutor.sql", "ola",
            _SHARDED_SQL[:2], _clustered_sharded, QueryOptions(technique="ola"),
            family="online", answer="not_degraded", cycle=True,
            description="Scatter-gather OLA over a value-sorted twin of the "
            "exponential table: blocks are homogeneous, so the block SRS "
            "intervals widen (the design effect) and must still cover the "
            "SUM and a filtered AVG",
        ),
        DoorRow(
            "sharded_ola_empty_shard", "ScatterGatherExecutor.sql", "ola",
            _SHARDED_SQL[:2], _range_sharded, QueryOptions(technique="ola"),
            family="online", answer="not_degraded", cycle=True,
            description="Scatter-gather OLA over a range-sharded twin of the "
            "exponential table whose first shard is empty (an exact zero): "
            "SUM and a filtered AVG must cover the whole-table answer",
        ),
        DoorRow(
            "sharded_sample", "ScatterGatherExecutor.sql", "sample",
            _SHARDED_SQL, _shard_samples, QueryOptions(technique="sample"),
            family="offline", answer="not_degraded", cycle=True,
            description="Scatter-gather over per-shard uniform samples (1000 "
            "rows each, redrawn per trial), all 8 shards served: SUM, a "
            "filtered AVG and a COUNT with under 100 matched sample rows per "
            "shard must cover the whole-table answer",
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
        DoorRow(
            "pilot_engine_spec", "Database.sql", "pilot", (_PILOT_SQL,),
            _tpch, _spec("pilot"), claim="spec", heavy=True,
            description="Two-stage pilot planner through the advisor: "
            "realized relative error within the ERROR WITHIN 10% contract",
        ),
        DoorRow(
            "quickr_engine_ci", "Database.sql", "quickr", (_GROUPED_SQL,),
            _tpch, _spec("quickr"), heavy=True,
            description="Quickr-style query-time sampling through the "
            "advisor: a-posteriori CIs must still cover (joint across groups)",
        ),
        DoorRow(
            "database_default", "Database.sql", "default", (_LINE_SQL,),
            _tpch, _spec(), heavy=True,
            description="The default door, no technique forced (the "
            "advisor chooses): the grouped answer must cover jointly",
        ),
        DoorRow(
            "ladder_cheaper_technique", "ResilientEngine.sql",
            "cheaper_technique", (_LINE_SQL,), _tpch,
            _spec(entry_rung="cheaper_technique"),
            family="resilience", heavy=True,
            description="The ladder entered at its cheaper_technique rung "
            "(an overload shed): query-time sampling must cover jointly",
        ),
        DoorRow(
            "ladder_partial_ola", "ResilientEngine.sql", "partial_ola",
            (_PILOT_SQL,), _tpch, _spec(entry_rung="partial_ola"),
            family="resilience", heavy=True,
            description="The ladder entered at its partial_ola rung: the "
            "fixed-stop 30% prefix's CI must cover a filtered SUM",
        ),
        DoorRow(
            "serving_frontend", "ServingFrontend.sql", "ladder",
            (_LINE_SQL,), _tpch, _spec(), family="serving", heavy=True,
            description="ServingFrontend over the ladder, no technique "
            "forced: the answer a worker serves must cover jointly",
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
