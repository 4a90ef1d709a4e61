"""The six workloads: seeded data, query lists, front doors, set-up.

Each workload stresses a different set of layers (see README.md for why
each exists). Inputs come from ``--seed`` alone: the same seed gives the
same tables, the same SQL texts and the same per-query sampling seeds.
"""

from __future__ import annotations

import gc
import os
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import Database, QueryOptions, Table
from repro.engine.kernel_cache import set_kernel_cache
from repro.obs.metrics import set_metrics
from repro.offline.blinkdb import BlinkDBSelector, QueryTemplate
from repro.offline.catalog import SynopsisCatalog
from repro.resilience.ladder import ResilientEngine
from repro.serving import ServingFrontend, TenantBudgets
from repro.sharding import ScatterGatherExecutor, ShardedTable
from repro.sketches.hyperloglog import hll_from_column
from repro.storage.synopsis_cache import set_global_cache
from repro.tuner.daemon import TuningDaemon
from repro.tuner.workload import WorkloadLog, install_workload_log

from harness import OpRecord, Query, check_reference, query_seed, run_pair

BLOCK_SIZE = 4096
NPROC = os.cpu_count() or 1

#: the shapes of fact_queries() that scan and group every row
HEAVY_SHAPES = ("grouped_sum_str", "grouped_sum_int", "count_distinct")
ONLINE = ("pilot", "quickr")
ANY_APPROX = ("offline_sample", "pilot", "quickr")


def fresh_program_state() -> WorkloadLog:
    """Reset every process-wide cache and registry the program keeps, so
    a set-up starts from the state a new process would have."""
    set_kernel_cache(None)
    set_global_cache(None)
    set_metrics(None)
    log = WorkloadLog()
    install_workload_log(log)
    return log


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def make_fact(rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
    """Sales fact table: string and int group keys, an exponential and a
    zipf measure, a uniform filter column, a high-cardinality id."""
    region_code = rng.integers(0, 20, n)
    names = np.array([f"r{i:02d}" for i in range(20)])
    return {
        "region": names[region_code],
        "store": rng.integers(0, 50, n),
        "price": rng.exponential(100.0, n),
        "qty": np.minimum(rng.zipf(2.5, n), 1000).astype(np.float64),
        "day": rng.integers(0, 365, n),
        "user_id": rng.integers(0, max(n // 5, 10), n),
        "_region_code": region_code,
    }


def make_clicks(rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
    """Clickstream table: a skewed 25-value dimension, a 4-value one, a
    200-value one, exponential dwell time and a mostly-zero revenue."""
    weights = 1.0 / np.arange(1, 26)
    return {
        "country": rng.choice(25, n, p=weights / weights.sum()),
        "device": rng.integers(0, 4, n),
        "page": rng.integers(0, 200, n),
        "dwell": rng.exponential(30.0, n),
        "revenue": rng.exponential(5.0, n) * (rng.random(n) < 0.3),
        "hour": rng.integers(0, 24, n),
        "user_id": rng.integers(0, max(3 * n // 10, 10), n),
    }


def make_shard_fact(rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
    return {
        "k": rng.integers(0, 50, n),
        "price": rng.exponential(100.0, n),
        "qty": np.minimum(rng.zipf(2.5, n), 1000).astype(np.float64),
        "day": rng.integers(0, 365, n),
    }


def public_columns(data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {k: v for k, v in data.items() if not k.startswith("_")}


# ----------------------------------------------------------------------
# Numpy oracles (independent of the program under test)
# ----------------------------------------------------------------------
def grouped(codes: np.ndarray, labels: Sequence, mask: np.ndarray, alias: str,
            values: Optional[np.ndarray], mean: bool = False):
    """Oracle for ``SELECT key, SUM|AVG(values) ... WHERE mask GROUP BY key``."""
    def oracle():
        size = len(labels)
        counts = np.bincount(codes[mask], minlength=size)
        sums = np.bincount(codes[mask], weights=values[mask], minlength=size)
        out = {}
        for code in np.flatnonzero(counts):
            total = sums[code] / counts[code] if mean else sums[code]
            out[(labels[code],)] = {alias: float(total)}
        return out
    return oracle


def scalar(alias: str, fn: Callable[[], float]):
    return lambda: {(): {alias: float(fn())}}


def literals(rng: np.random.Generator, low: int, n: int, step: int = 1) -> List[int]:
    """``n`` distinct literals ``low, low + step, ...`` in seeded order.

    Every seed gets the same set, so the work a query list asks for does
    not move with the seed; only which text comes when does. A list that
    wants fewer than four still draws from four, so the texts differ
    between seeds without the selectivity moving by more than a percent.
    """
    pool = low + step * rng.permutation(max(n, 4))
    return [int(v) for v in pool[:n]]


# ----------------------------------------------------------------------
# Query lists
# ----------------------------------------------------------------------
def fact_queries(data: Dict[str, np.ndarray], rng: np.random.Generator,
                 heavy: int, cheap: int, linear: Tuple[str, ...]) -> List[Query]:
    """The six ERROR-WITHIN shapes: ``heavy`` literal variants of each of
    the three that scan and group every row, ``cheap`` of each of the
    three filtered scalars. The clauses are chosen so that the advisor's
    choice does not flip with the sampling seed: at 5% the pilot planner
    finds the string-keyed SUM feasible about every other time."""
    price, qty, day = data["price"], data["qty"], data["day"]
    region_names = [f"r{i:02d}" for i in range(20)]
    out: List[Query] = []
    for a, a2, a3 in zip(*(literals(rng, 0, heavy) for _ in range(3))):
        out.append(Query(
            f"SELECT region, SUM(price) AS s FROM fact WHERE day >= {a} "
            "GROUP BY region ERROR WITHIN 10% CONFIDENCE 95%",
            "grouped_sum_str", ("region",), ("s",), 0.10, linear,
            grouped(data["_region_code"], region_names, day >= a, "s", price),
        ))
        out.append(Query(
            f"SELECT store, SUM(price) AS s FROM fact WHERE day >= {a2} "
            "GROUP BY store ERROR WITHIN 5% CONFIDENCE 95%",
            "grouped_sum_int", ("store",), ("s",), 0.05, linear,
            grouped(data["store"], list(range(50)), day >= a2, "s", price),
        ))
        out.append(Query(
            f"SELECT COUNT(DISTINCT user_id) AS d FROM fact WHERE day >= {a3} "
            "ERROR WITHIN 5% CONFIDENCE 95%",
            # not a linear aggregate: every sampler refuses, exact serves
            "count_distinct", (), ("d",), 0.05, ("exact",),
            scalar("d", lambda a=a3: len(np.unique(data["user_id"][day >= a]))),
        ))
    for b, c, p in zip(literals(rng, 16, cheap), literals(rng, 180, cheap),
                       literals(rng, 140, cheap)):
        out.append(Query(
            f"SELECT AVG(price) AS a FROM fact WHERE day < {b} "
            "ERROR WITHIN 10% CONFIDENCE 95%",
            "filtered_avg", (), ("a",), 0.10, linear,
            scalar("a", lambda b=b: price[day < b].mean()),
        ))
        out.append(Query(
            f"SELECT SUM(price * qty) AS s FROM fact WHERE day < {c} "
            "ERROR WITHIN 10% CONFIDENCE 95%",
            "filtered_sum_product", (), ("s",), 0.10, linear,
            scalar("s", lambda c=c: (price * qty)[day < c].sum()),
        ))
        out.append(Query(
            f"SELECT COUNT(*) AS c FROM fact WHERE price > {p} "
            "ERROR WITHIN 5% CONFIDENCE 95%",
            "count_predicate", (), ("c",), 0.05, linear,
            scalar("c", lambda p=p: np.count_nonzero(price > p)),
        ))
    return out


def clicks_queries(data: Dict[str, np.ndarray], rng: np.random.Generator,
                   covered_per_shape: int, fallthrough_per_shape: int,
                   covered: Tuple[str, ...], fallthrough: Tuple[str, ...]) -> List[Query]:
    """Dashboard templates: four shapes a stratified sample covers and
    two (a group-by on an unstratified column, a distinct count) that
    fall through to the online planners or to exact."""
    dwell, hour = data["dwell"], data["hour"]
    out: List[Query] = []
    n = covered_per_shape
    for h, h2, h3, x in zip(literals(rng, 0, n), literals(rng, 0, n), literals(rng, 9, n),
                            literals(rng, 30, n, step=2)):
        out.append(Query(
            f"SELECT country, SUM(dwell) AS s FROM clicks WHERE hour >= {h} "
            "GROUP BY country ERROR WITHIN 10% CONFIDENCE 95%",
            "covered_country_sum", ("country",), ("s",), 0.10, covered,
            grouped(data["country"], list(range(25)), hour >= h, "s", dwell),
        ))
        out.append(Query(
            f"SELECT device, AVG(dwell) AS a FROM clicks WHERE hour >= {h2} "
            "GROUP BY device ERROR WITHIN 10% CONFIDENCE 95%",
            "covered_device_avg", ("device",), ("a",), 0.10, covered,
            grouped(data["device"], list(range(4)), hour >= h2, "a", dwell, mean=True),
        ))
        out.append(Query(
            f"SELECT AVG(dwell) AS a FROM clicks WHERE hour < {h3} "
            "ERROR WITHIN 10% CONFIDENCE 95%",
            "covered_scalar_avg", (), ("a",), 0.10, covered,
            scalar("a", lambda h=h3: dwell[hour < h].mean()),
        ))
        out.append(Query(
            f"SELECT COUNT(*) AS c FROM clicks WHERE dwell > {x} "
            "ERROR WITHIN 10% CONFIDENCE 95%",
            "covered_count", (), ("c",), 0.10, covered,
            scalar("c", lambda x=x: np.count_nonzero(dwell > x)),
        ))
    n = fallthrough_per_shape
    for h, h2 in zip(literals(rng, 0, n), literals(rng, 0, n)):
        out.append(Query(
            f"SELECT page, SUM(dwell) AS s FROM clicks WHERE hour >= {h} "
            "GROUP BY page ERROR WITHIN 10% CONFIDENCE 95%",
            "uncovered_page_sum", ("page",), ("s",), 0.10, fallthrough,
            grouped(data["page"], list(range(200)), hour >= h, "s", dwell),
        ))
        out.append(Query(
            f"SELECT COUNT(DISTINCT user_id) AS d FROM clicks WHERE hour >= {h2} "
            "ERROR WITHIN 5% CONFIDENCE 95%",
            "count_distinct", (), ("d",), 0.05, ("exact",),
            scalar("d", lambda h=h2: len(np.unique(data["user_id"][hour >= h]))),
        ))
    return out


def shard_queries(data: Dict[str, np.ndarray], rng: np.random.Generator,
                  ola_per_shape: int, sample_per_shape: int) -> List[Query]:
    """Scalar aggregates in the executor's ``ola`` and ``sample`` modes."""
    price, qty, day = data["price"], data["qty"], data["day"]
    out: List[Query] = []

    def add(mode: str, with_product: bool, b: int, p: int, c: int) -> None:
        served = (f"scatter_gather_{mode}",)
        out.append(Query(
            "SELECT SUM(price) AS s FROM fact ERROR WITHIN 5% CONFIDENCE 95%",
            f"{mode}_sum", (), ("s",), 0.05, served,
            scalar("s", price.sum), technique=mode,
        ))
        out.append(Query(
            f"SELECT AVG(price) AS a FROM fact WHERE day < {b} ERROR WITHIN 5% CONFIDENCE 95%",
            f"{mode}_filtered_avg", (), ("a",), 0.05, served,
            scalar("a", lambda b=b: price[day < b].mean()), technique=mode,
        ))
        out.append(Query(
            f"SELECT COUNT(*) AS c FROM fact WHERE price > {p} ERROR WITHIN 5% CONFIDENCE 95%",
            f"{mode}_count_predicate", (), ("c",), 0.05, served,
            scalar("c", lambda p=p: np.count_nonzero(price > p)), technique=mode,
        ))
        if with_product:  # sample mode serves bare-column aggregates only
            out.append(Query(
                f"SELECT SUM(price * qty) AS s FROM fact WHERE day < {c} "
                "ERROR WITHIN 10% CONFIDENCE 95%",
                f"{mode}_sum_product", (), ("s",), 0.10, served,
                scalar("s", lambda c=c: (price * qty)[day < c].sum()), technique=mode,
            ))

    for mode, n in (("ola", ola_per_shape), ("sample", sample_per_shape)):
        for b, p, c in zip(literals(rng, 88, n), literals(rng, 148, n), literals(rng, 180, n)):
            add(mode, mode == "ola", b, p, c)
    return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Base: a single closed-loop client over ``Database.sql``."""

    name = ""
    #: layer the root ``query`` span is charged to
    front_layer = "core"
    table = "fact"
    rows = 1_000_000
    #: the run fails when fewer result cells than this hold the exact value
    min_ci_cover = 0.90
    #: columns the sampler, estimator and sketch probes work on
    group_column = "store"
    measure_column = "price"
    distinct_column = "user_id"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rows = max(self.rows // 10, 1000) if smoke else self.rows
        self.recorder = None  # a SpanRecorder while a traced round runs
        self.queries: List[Query] = []
        self.timings: Dict[str, float] = {}
        self.problems: List[str] = []
        self._qid = 0

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        """Build tables, synopses and engines, then run one untimed
        warm-up round that also checks every exact twin against numpy."""
        self.log = fresh_program_state()
        self.timings = {}
        start = perf_counter()
        self.build(np.random.default_rng([self.seed, 1]), np.random.default_rng([self.seed, 2]))
        self.timings["build_total_s"] = perf_counter() - start
        start = perf_counter()
        self.run_round(-1, verify=True)
        self.timings["warmup_s"] = perf_counter() - start

    def build(self, data_rng, query_rng) -> None:
        raise NotImplementedError

    def timed(self, key: str, fn: Callable, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.timings[key] = self.timings.get(key, 0.0) + perf_counter() - start

    def load_fact(self, data: Dict[str, np.ndarray]) -> None:
        self.db = Database()
        self.timed("load_s", self.db.create_table, self.table, public_columns(data), BLOCK_SIZE)
        self.timed("stats_s", self.db.stats, self.table)

    def teardown(self) -> None:
        install_workload_log(None)
        self.db = self.data = None
        self.queries = []
        gc.collect()

    def fact_table(self) -> Table:
        return self.db.table(self.table)

    # -- operations ----------------------------------------------------
    def front_door(self, sql: str, options: QueryOptions, qid: int):
        return self.db.sql(sql, options)

    def traceable_door(self, sql: str, options: QueryOptions):
        """The front door as far as the program's own tracer follows it."""
        return self.front_door(sql, options, 0)

    def call(self, sql: str, options: QueryOptions, qid: int):
        if self.recorder is not None:
            return self.recorder.root(qid, self.front_layer, self.front_door, sql, options, qid)
        return self.front_door(sql, options, qid)

    def next_qid(self) -> int:
        self._qid += 1
        return self._qid

    def options(self, round_no: int, index: int, client: int = 0) -> QueryOptions:
        return QueryOptions(seed=query_seed(self.seed, round_no, index))

    def approx_first(self, round_no: int, index: int) -> bool:
        """Which of a pair runs first alternates by position and round."""
        return (round_no + index) % 2 == 0

    def run_query(self, round_no: int, index: int, query: Query,
                  verify: bool = False, client: int = 0) -> OpRecord:
        rec, exact = run_pair(
            self.call, query, self.options(round_no, index, client), self.next_qid(),
            approx_first=self.approx_first(round_no, index),
            check_expected=not self.smoke,
        )
        rec.client = client
        if verify and exact is not None:
            problem = check_reference(query, exact)
            if problem:
                self.problems.append(problem)
        return rec

    def run_round(self, round_no: int, verify: bool = False) -> List[OpRecord]:
        return [self.run_query(round_no, i, q, verify) for i, q in enumerate(self.queries)]

    # -- counters read after the run -----------------------------------
    def catalog(self) -> Optional[SynopsisCatalog]:
        return SynopsisCatalog.for_database(self.db)


class ScanHeavy(Workload):
    name = "scan_heavy"

    def build(self, data_rng, query_rng) -> None:
        self.data = self.timed("gen_s", make_fact, data_rng, self.rows)
        self.load_fact(self.data)
        self.queries = fact_queries(self.data, query_rng, 1, 4, ONLINE)


class TinyOverhead(Workload):
    name = "tiny_overhead"
    rows = 10_000

    def build(self, data_rng, query_rng) -> None:
        self.data = self.timed("gen_s", make_fact, data_rng, self.rows)
        self.load_fact(self.data)
        per_shape = 4 if self.smoke else 33  # ~200 distinct SQL texts
        self.queries = fact_queries(self.data, query_rng, per_shape, per_shape, ONLINE)


class OfflineDashboard(Workload):
    name = "offline_dashboard"
    table = "clicks"
    group_column = "device"
    measure_column = "dwell"
    covered_per_shape = 4
    fallthrough_per_shape = 2
    expect_covered: Tuple[str, ...] = ("offline_sample",)
    expect_fallthrough: Tuple[str, ...] = ONLINE

    def build(self, data_rng, query_rng) -> None:
        self.data = self.timed("gen_s", make_clicks, data_rng, self.rows)
        self.load_fact(self.data)
        self.build_synopses()
        self.queries = clicks_queries(
            self.data, query_rng, self.covered_per_shape, self.fallthrough_per_shape,
            self.expect_covered, self.expect_fallthrough,
        )

    def build_synopses(self) -> None:
        """BlinkDB samples stratified on the two dashboard dimensions and
        an HLL sketch for the distinct-count shape. 8000 rows per stratum
        put the widest covered interval (grouped AVG, a ratio of two
        estimates) near 7.5%, clear of the templates' 10% clause; at 4000
        it sits at 10.4% and the rewriter refuses."""
        selector = BlinkDBSelector(
            self.db, budget_rows=max(self.rows * 2 // 5, 1), rows_per_stratum=8000, seed=self.seed
        )
        templates = [
            QueryTemplate(self.table, ("country",), 4.0),
            QueryTemplate(self.table, ("device",), 4.0),
        ]
        self.timed("offline_build_s", selector.build_for_workload, templates)
        self.timed(
            "hll_s", self.catalog().ensure_sketch, self.table, self.distinct_column, "hll",
            lambda table, column: hll_from_column(np.asarray(table[column])),
        )


class RefreshMixed(OfflineDashboard):
    """The dashboard through the ladder, with appends and tuner cycles."""

    name = "refresh_mixed"
    front_layer = "resilience"
    covered_per_shape = 2
    fallthrough_per_shape = 1
    # appends age the BlinkDB samples and the tuner builds new ones, so
    # which approximate technique serves a template legitimately moves
    expect_covered = ANY_APPROX
    expect_fallthrough = ANY_APPROX
    #: one append per round of reads (2 x 4 covered + 1 x 2 fall-through = 10)
    appends_per_cycle = 5
    # A known debt, not a target: the catalog serves a sample as fresh
    # until the table has grown 10%, with no widening, so grouped SUMs
    # drift out of their intervals as appends land. Measured 0.89-0.90
    # at the commit that added the benchmark; ci_cover_frac's regression
    # bound keeps it from sinking, this floor only keeps the gate usable.
    min_ci_cover = 0.85

    def build(self, data_rng, query_rng) -> None:
        super().build(data_rng, query_rng)
        self.append_rng = np.random.default_rng([self.seed, 3])
        self.engine = ResilientEngine(self.db, warn_on_degrade=False)
        self.daemon = TuningDaemon(
            self.db, self.log, storage_budget_rows=self.rows // 5, sample_fraction=0.05,
            seed=self.seed,
        )
        self.appends = 0
        self.tune_reports = []

    def front_door(self, sql, options, qid):
        return self.engine.sql(sql, options)

    def timed_op(self, kind: str, fn: Callable, *args) -> OpRecord:
        rec = OpRecord(kind=kind)
        start = perf_counter()
        try:
            if self.recorder is not None:
                result = self.recorder.root(self.next_qid(), "bench", fn, *args)
            else:
                result = fn(*args)
            if kind == "tune":
                self.tune_reports.append(result)
        except Exception as exc:
            rec.failed, rec.error = True, f"{type(exc).__name__}: {exc}"[:200]
        rec.ms = (perf_counter() - start) * 1e3
        return rec

    def run_round(self, round_no: int, verify: bool = False) -> List[OpRecord]:
        ops = super().run_round(round_no, verify)
        if verify:
            return ops  # the oracle holds for the generated rows only
        batch = public_columns(make_clicks(self.append_rng, max(self.rows // 100, 1)))
        ops.append(self.timed_op("append", self.db.append_rows, self.table, batch))
        self.appends += 1
        if self.appends % self.appends_per_cycle == 0:
            ops.append(self.timed_op("tune", self.daemon.run_cycle))
        return ops


class ServingClosedLoop(Workload):
    name = "serving_closed_loop"
    front_layer = "serving"

    def build(self, data_rng, query_rng) -> None:
        self.data = self.timed("gen_s", make_fact, data_rng, self.rows)
        self.load_fact(self.data)
        # Without the string-keyed SUM: its exact twin is a second-long
        # numpy string sort that holds the interpreter lock, so whatever
        # the other client runs meanwhile waits it out (the int-keyed
        # Quickr query: 250 ms alone, 1500 ms beside it), and every
        # statistic of a run depends on which query that happens to be.
        # scan_heavy measures that shape; here it only adds noise.
        self.queries = [q for q in fact_queries(self.data, query_rng, 1, 4, ONLINE)
                        if q.shape != "grouped_sum_str"]
        budgets = TenantBudgets()
        for tenant in ("tenant0", "tenant1"):
            # metered, but deep and fast-refilling enough never to reject
            budgets.configure(tenant, capacity=1e12, refill_rate=1e12)
        self.engine = ResilientEngine(self.db, warn_on_degrade=False)
        self.frontend = ServingFrontend(engine=self.engine, workers=NPROC, budgets=budgets,
                                        seed=self.seed)
        self.tickets: Dict[int, Tuple[float, object]] = {}
        self._qid_lock = threading.Lock()

    def teardown(self) -> None:
        self.frontend.close()
        super().teardown()

    def next_qid(self) -> int:
        with self._qid_lock:
            return super().next_qid()

    def options(self, round_no, index, client=0):
        return super().options(round_no, index).replace(tenant=f"tenant{client % 2}")

    def approx_first(self, round_no, index):
        # By position only: which heavy queries of the two clients overlap
        # depends on the order, and alternating it by round makes every
        # statistic alternate between two values from one round to the next.
        return index % 2 == 0

    def traceable_door(self, sql, options):
        # the program's tracer does not cross into the frontend's workers
        return self.engine.sql(sql, options)

    def front_door(self, sql, options, qid):
        start = perf_counter()
        ticket = self.frontend.submit(sql, options=options, query_id=qid)
        self.tickets[qid] = ((perf_counter() - start) * 1e3, ticket)
        return ticket.result(timeout=120)

    def run_query(self, round_no, index, query, verify=False, client=0):
        rec = super().run_query(round_no, index, query, verify, client)
        submit_ms, ticket = self.tickets.pop(rec.qid, (0.0, None))
        _, exact_ticket = self.tickets.pop(-rec.qid, (0.0, None))
        rec.submit_ms = submit_ms
        if ticket is not None and ticket.queue_wait is not None:
            rec.queue_wait_ms = ticket.queue_wait * 1e3
            rec.extra["shed"] = float(ticket.shed_to is not None)
        if exact_ticket is not None and exact_ticket.queue_wait is not None:
            rec.exact_queue_wait_ms = exact_ticket.queue_wait * 1e3
        return rec

    def run_round(self, round_no: int, verify: bool = False) -> List[OpRecord]:
        """``NPROC`` closed-loop clients split the query list, in two
        phases with a barrier between: the heavy shapes, then the cheap
        ones. Without the barrier a cheap query's latency is decided by
        whether the other client happens to be inside a heavy one, and
        ``query_p50_ms`` lands on the edge between the two cases."""
        ops: List[OpRecord] = []
        wall = 0.0
        heavy = [i for i, q in enumerate(self.queries) if q.shape in HEAVY_SHAPES]
        cheap = [i for i, q in enumerate(self.queries) if q.shape not in HEAVY_SHAPES]
        for phase in (heavy, cheap):
            results: List[List[OpRecord]] = [[] for _ in range(NPROC)]

            def client(c: int, phase=phase, results=results) -> None:
                for i in phase[c::NPROC]:
                    results[c].append(self.run_query(round_no, i, self.queries[i], verify, client=c))

            threads = [threading.Thread(target=client, args=(c,)) for c in range(NPROC)]
            start = perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall += perf_counter() - start
            ops.extend(o for r in results for o in r)
        ops[0].extra["round_wall_s"] = wall
        return ops


class ShardedScan(Workload):
    name = "sharded_scan"
    front_layer = "sharding"
    rows = 2_000_000
    shards = 8
    group_column = "k"
    distinct_column = "day"

    def build(self, data_rng, query_rng) -> None:
        self.data = self.timed("gen_s", make_shard_fact, data_rng, self.rows)
        whole = self.timed("load_s", Table, self.data, name=self.table, block_size=BLOCK_SIZE)
        self.sharded = self.timed(
            "split_s", ShardedTable.from_table, whole, self.shards, by="hash", seed=self.seed
        )
        self.timed(
            "offline_build_s", self.sharded.build_shard_samples,
            max(self.rows // self.shards // 10, 100), seed=self.seed,
        )
        self.executor = ScatterGatherExecutor(self.sharded, max_workers=NPROC)
        self.queries = shard_queries(self.data, query_rng, 2, 4)

    def teardown(self) -> None:
        self.sharded = self.executor = None
        super().teardown()

    def front_door(self, sql, options, qid):
        return self.executor.sql(sql, options)

    def fact_table(self) -> Table:
        return self.sharded.shard(0).table

    def catalog(self):
        return SynopsisCatalog.for_database(self.sharded.binder_database())


WORKLOADS = {
    cls.name: cls
    for cls in (ScanHeavy, TinyOverhead, OfflineDashboard, RefreshMixed,
                ServingClosedLoop, ShardedScan)
}
