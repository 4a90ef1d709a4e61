"""The executor's golden corpus: plan shapes and the answers they replay.

``tests/golden/executor_corpus.json`` holds, for every entry built by
:func:`build_entries`, the result table of one execution — column order,
dtypes and values — and its ``ExecutionStats.to_dict()``. The committed
bytes came from two executors: the fused kernels and the per-operator
materializing executor that used to be their differential reference.
Both ran every entry and were asserted equal (tables bitwise, stats
exactly) before the file was written; the materializing executor has
since been deleted, and replaying this file is the check that replaced
it. Numeric columns are stored as base64 of their raw bytes and replay
bitwise; object columns as JSON lists.

``REPRO_REGOLD=1`` rewrites the file from the current executor. That is
for intentional changes of results only — review the diff.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import json
import os
import pathlib
from typing import Dict, List, Tuple

import numpy as np

from repro import Database
from repro.engine.expressions import col
from repro.engine.plan import Filter, Project, SampleClause, Scan
from repro.engine.table import Table
from repro.resilience import Deadline, ResourceBudget, deadline_scope
from repro.sql.binder import bind_sql
from repro.workloads import generate_tpch

CORPUS_PATH = pathlib.Path(__file__).parent / "golden" / "executor_corpus.json"
REGOLD = os.environ.get("REPRO_REGOLD") == "1"

#: rows of the single-table world ``f``
ROWS = 3000


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------

def fused_db() -> Database:
    """3 000 rows over ints, floats and a string tag in 128-row blocks."""
    rng = np.random.default_rng(321)
    db = Database()
    db.create_table(
        "f",
        {
            "a": rng.integers(0, 40, ROWS),
            "b": rng.integers(-5, 6, ROWS),
            "v": np.round(rng.exponential(10.0, ROWS), 3),
            "w": np.round(rng.random(ROWS), 6),
            "tag": rng.choice(np.array(["x", "y", "z"], dtype=object), ROWS),
        },
        block_size=128,
    )
    return db


def fuzz_db(seed: int) -> Database:
    """The trace-conformance world: table ``f(x, y, g)``, seeded size and
    block size."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2_000, 6_000))
    db = Database()
    db.create_table(
        "f",
        {
            "x": rng.normal(5.0, 2.0, n),
            "y": rng.exponential(10.0, n),
            "g": rng.integers(0, 5, n),
        },
        block_size=int(rng.choice([128, 256, 512])),
    )
    return db


@functools.lru_cache(maxsize=None)
def world(name: str) -> Database:
    """A read-only corpus world, built once per process."""
    if name == "f":
        return fused_db()
    if name == "tpch":
        return generate_tpch(scale=0.1, seed=7, block_size=256)
    if name.startswith("trace"):
        return fuzz_db(int(name[len("trace"):]))
    raise KeyError(name)


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------

COMPARATORS = ["<", "<=", ">", ">=", "=", "<>"]
NUMERIC_COLS = ["a", "b", "v", "w"]
AGGS = ["SUM(v)", "COUNT(*)", "AVG(v)", "SUM(v * w)", "MIN(w)", "MAX(a)"]
GROUPS = [(), ("b",), ("a",), ("tag",), ("a", "b"), ("b", "tag")]
SAMPLES = [" TABLESAMPLE BERNOULLI (40)", " TABLESAMPLE SYSTEM (50)"]


def _fuzzed_shape(rng) -> str:
    """One single-table aggregate over ``f`` without a sampling clause."""
    aggs = [AGGS[i] for i in rng.choice(len(AGGS), rng.integers(1, 4), replace=False)]
    groups = list(GROUPS[rng.integers(len(GROUPS))])
    select = ", ".join(
        [f"{g} AS g{i}" for i, g in enumerate(groups)]
        + [f"{a} AS c{i}" for i, a in enumerate(aggs)]
    )
    sql = f"SELECT {select} FROM f{{sample}}"
    if rng.random() < 0.6:
        parts = []
        for _ in range(rng.integers(1, 4)):
            c = NUMERIC_COLS[rng.integers(len(NUMERIC_COLS))]
            op = COMPARATORS[rng.integers(len(COMPARATORS))]
            value = (
                int(rng.integers(-5, 41))
                if c in ("a", "b")
                else round(float(rng.uniform(0, 30)), 3)
            )
            parts.append(f"{c} {op} {value}")
        sql += " WHERE " + (" AND " if rng.random() < 0.5 else " OR ").join(parts)
    if groups:
        sql += " GROUP BY " + ", ".join(groups)
    return sql


def _distinct_directive() -> Project:
    """The ``distinct_rows`` scan directive and its hidden ``__weight``."""
    scan = Scan(
        "f",
        alias="f",
        sample=SampleClause("distinct_rows", rate=0.2, columns=("a", "b"), cap=2),
    )
    return Project(
        Filter(scan, col("f.v") > 2.0),
        ((col("f.a"), "a"), (col("f.v") * col("f.__weight"), "wv")),
    )


#: hand-built plans, by name: ``(world, make_plan)``; bare scans are
#: what SQL never produces on their own
PLANS = {
    "distinct_directive": ("f", _distinct_directive),
    "bare_scan": ("tpch", lambda: Scan("part")),
    "bare_scan_pruned_aliased": (
        "tpch", lambda: Scan("part", columns=("p_size", "p_partkey"), alias="p")
    ),
    "bare_scan_blocks": ("tpch", lambda: Scan(
        "lineitem",
        columns=("l_quantity", "l_shipmode"),
        sample=SampleClause("system_blocks", rate=0.1),
        alias="l",
    )),
    "bare_scan_bernoulli": ("tpch", lambda: Scan(
        "part", sample=SampleClause("bernoulli_rows", rate=0.2), alias="p"
    )),
    "bare_scan_rows": ("tpch", lambda: Scan(
        "part",
        columns=("p_type", "p_retailprice"),
        sample=SampleClause("fixed_rows", size=40),
    )),
}

#: statements beyond the fuzzed single-table aggregates
TRACE_SQL = [
    "SELECT SUM(x) AS s FROM f",
    "SELECT COUNT(*) AS c FROM f WHERE x > 0",
    "SELECT AVG(y) AS a FROM f WHERE g < 3",
    "SELECT g, SUM(y) AS s FROM f GROUP BY g",
    "SELECT SUM(x) AS s, COUNT(*) AS c FROM f WHERE y > 1",
]
SHAPES: List[Tuple[str, str, str]] = [
    ("chain", "f", "SELECT a AS a, v * 2 AS v2 FROM f WHERE v > 5"),
    ("chain", "f", "SELECT v AS v FROM f WHERE tag = 'x' ORDER BY v LIMIT 7"),
    ("having", "f",
     "SELECT a AS a, COUNT(*) AS c, AVG(v) AS m FROM f GROUP BY a "
     "HAVING COUNT(*) > 75"),
    ("having", "f",
     "SELECT tag AS tag, b AS b, SUM(v * w) AS s FROM f TABLESAMPLE SYSTEM (50) "
     "WHERE v > 2 GROUP BY tag, b HAVING SUM(v * w) > 250 ORDER BY s DESC"),
    ("order_limit", "f",
     "SELECT b AS b, SUM(v) AS s FROM f GROUP BY b ORDER BY s DESC LIMIT 5"),
    ("order_limit", "f",
     "SELECT tag AS tag, a AS a, v AS v FROM f WHERE w > 0.9 "
     "ORDER BY tag, a DESC LIMIT 30"),
    ("union", "f",
     "SELECT a AS a, v AS v FROM f WHERE a < 2 "
     "UNION ALL SELECT a AS a, w AS v FROM f WHERE a > 38"),
    ("union", "f",
     "SELECT b AS b, SUM(v) AS s FROM f GROUP BY b "
     "UNION ALL SELECT b AS b, SUM(w) AS s FROM f TABLESAMPLE BERNOULLI (50) "
     "GROUP BY b"),
    ("join", "tpch",
     "SELECT o.o_orderpriority AS priority, "
     "SUM(l.l_extendedprice * l.l_discount) AS rev, COUNT(*) AS n "
     "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
     "WHERE l.l_quantity < 30 GROUP BY o.o_orderpriority HAVING COUNT(*) > 700"),
    ("join", "tpch",
     "SELECT n.n_name AS nation, SUM(l.l_extendedprice) AS revenue "
     "FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey "
     "JOIN nation n ON s.s_nationkey = n.n_nationkey "
     "GROUP BY n.n_name HAVING SUM(l.l_extendedprice) > 2300000 "
     "ORDER BY revenue DESC LIMIT 5"),
    ("join", "tpch",
     "SELECT n.n_regionkey AS region, COUNT(*) AS n, SUM(s.s_acctbal) AS bal "
     "FROM nation n LEFT JOIN supplier s ON n.n_nationkey = s.s_nationkey "
     "GROUP BY n.n_regionkey"),
    ("join", "tpch",
     "SELECT p.p_partkey AS k, c.c_mktsegment AS seg "
     "FROM part p LEFT JOIN customer c ON p.p_partkey = c.c_custkey "
     "WHERE p.p_size < 10 ORDER BY k"),
    ("join", "tpch",
     "SELECT l.l_orderkey AS k, l.l_quantity * o.o_totalprice AS x "
     "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
     "WHERE o.o_totalprice > 40000 ORDER BY x DESC LIMIT 25"),
    ("join", "tpch",
     "SELECT o.o_orderpriority AS p, SUM(l.l_quantity) AS q "
     "FROM lineitem l TABLESAMPLE BERNOULLI (30) "
     "JOIN orders o ON l.l_orderkey = o.o_orderkey GROUP BY o.o_orderpriority"),
    ("join", "tpch",
     "SELECT l.l_shipmode AS mode, AVG(o.o_totalprice) AS m, COUNT(*) AS n "
     "FROM lineitem l TABLESAMPLE SYSTEM (40) "
     "JOIN orders o ON l.l_orderkey = o.o_orderkey "
     "GROUP BY l.l_shipmode HAVING COUNT(*) > 390"),
    ("union", "tpch",
     "SELECT o.o_orderpriority AS p, COUNT(*) AS n "
     "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
     "GROUP BY o.o_orderpriority "
     "UNION ALL SELECT o_orderpriority AS p, COUNT(*) AS n FROM orders "
     "GROUP BY o_orderpriority"),
]


def _entry(group, key, world_name, seed, optimize, **extra) -> dict:
    return dict(
        id=f"{group}/{key}/seed={seed}/opt={int(optimize)}",
        group=group, world=world_name, seed=seed, optimize=optimize, **extra,
    )


def build_entries() -> List[dict]:
    """Every corpus entry, deterministically (no hypothesis, fixed seed)."""
    rng = np.random.default_rng(20240)
    entries = []
    for i in range(60):
        shape = _fuzzed_shape(rng)
        seed = int(rng.integers(0, 2**31 - 1))
        for sample in ("", SAMPLES[i % 2]):
            for optimize in (False, True):
                entries.append(_entry(
                    "fuzz", f"{i}{'s' if sample else ''}", "f", seed, optimize,
                    sql=shape.format(sample=sample),
                ))
    for sample in ("TABLESAMPLE BERNOULLI (25)", "TABLESAMPLE SYSTEM (30)"):
        for seed in (0, 7, 991):
            entries.append(_entry(
                f"sampled:{sample}", "sum_count", "f", seed, False,
                sql=f"SELECT SUM(v) AS s, COUNT(*) AS c FROM f {sample} WHERE a < 20",
            ))
    for seed in (0, 7, 991):
        for optimize in (False, True):
            entries.append(_entry(
                "distinct", "directive", "f", seed, optimize,
                plan="distinct_directive",
            ))
        for name, (world_name, _) in PLANS.items():
            if name.startswith("bare_scan"):
                entries.append(
                    _entry("bare_scan", name, world_name, seed, False, plan=name)
                )
    entries.append(_entry(
        "deadline", "scope", "f", 0, False, deadline_s=60.0,
        sql="SELECT b AS b, AVG(v) AS m FROM f WHERE w < 0.8 GROUP BY b",
    ))
    entries.append(_entry(
        "budget", "rows", "f", 0, False, budget_rows=10 * ROWS,
        sql="SELECT SUM(v * w) AS s FROM f WHERE a >= 3",
    ))
    for seed in range(4):
        for i, sql in enumerate(TRACE_SQL):
            entries.append(
                _entry("trace", i, f"trace{seed}", seed, False, sql=sql)
            )
    for i, (group, world_name, sql) in enumerate(SHAPES):
        for seed in (3, 11):
            for optimize in (False, True):
                entries.append(
                    _entry(group, i, world_name, seed, optimize, sql=sql)
                )
    return entries


def plan_of(entry: dict, db: Database):
    if "plan" in entry:
        return PLANS[entry["plan"]][1]()
    return bind_sql(entry["sql"], db).plan


def run_entry(entry: dict):
    """Execute one entry in its world; returns ``(table, stats)``."""
    db = world(entry["world"])
    plan = plan_of(entry, db)
    budget = (
        ResourceBudget(max_rows=entry["budget_rows"])
        if "budget_rows" in entry
        else None
    )
    scope = (
        deadline_scope(Deadline(entry["deadline_s"]))
        if "deadline_s" in entry
        else contextlib.nullcontext()
    )
    with scope:
        return db.execute(
            plan, seed=entry["seed"], optimize=entry["optimize"], budget=budget
        )


# ----------------------------------------------------------------------
# Encoding and replay
# ----------------------------------------------------------------------

def encode_table(table: Table) -> List[dict]:
    columns = []
    for name in table.column_names:
        arr = table[name]
        if arr.dtype == object:
            data = arr.tolist()
        else:
            data = base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode()
        columns.append({"name": name, "dtype": arr.dtype.str, "data": data})
    return columns


def record(entry: dict) -> dict:
    table, stats = run_entry(entry)
    return {
        **entry,
        "columns": encode_table(table),
        "stats": stats.to_dict(),
    }


#: the golden file's own header
ABOUT = (
    "Executor golden corpus, written by tests/executor_corpus.py. The "
    "first recording ran every entry through two executors, the fused "
    "kernels and the per-operator materializing executor that was their "
    "differential reference, and asserted them equal before it was "
    "deleted. REPRO_REGOLD=1 rewrites this file from the current executor."
)


def write_corpus(records: List[dict]) -> None:
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(rec, sort_keys=True) for rec in records)
    CORPUS_PATH.write_text(
        '{"about": ' + json.dumps(ABOUT) + ',\n"entries": [\n' + lines + "\n]}\n"
    )


@functools.lru_cache(maxsize=None)
def load_corpus() -> Dict[str, dict]:
    """Recorded entries by id (rewritten first under ``REPRO_REGOLD=1``)."""
    if REGOLD:
        write_corpus([record(entry) for entry in build_entries()])
    doc = json.loads(CORPUS_PATH.read_text())
    return {rec["id"]: rec for rec in doc["entries"]}


def recorded(group: str) -> List[dict]:
    """Recorded entries of one group, in corpus order."""
    found = [rec for rec in load_corpus().values() if rec["group"] == group]
    assert found, f"no corpus entries in group {group!r}"
    return found


def assert_matches(rec: dict, table: Table, stats) -> None:
    """``table``/``stats`` equal the recorded answer, bitwise."""
    where = f"{rec['id']}: {rec.get('sql', rec.get('plan'))}"
    names = [c["name"] for c in rec["columns"]]
    assert table.column_names == names, where
    for column in rec["columns"]:
        arr = table[column["name"]]
        assert arr.dtype.str == column["dtype"], (where, column["name"])
        if arr.dtype == object:
            assert arr.tolist() == column["data"], (where, column["name"])
        else:
            raw = base64.b64decode(column["data"])
            assert np.ascontiguousarray(arr).tobytes() == raw, (
                where, column["name"]
            )
    assert stats.to_dict() == rec["stats"], where


def replay(group: str, optimize=None) -> None:
    """Run every recorded entry of ``group`` (only those recorded with
    ``optimize``, when given); each must match bitwise."""
    for rec in recorded(group):
        if optimize is None or rec["optimize"] == optimize:
            table, stats = run_entry(rec)
            assert_matches(rec, table, stats)
