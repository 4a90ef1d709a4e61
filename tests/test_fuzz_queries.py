"""Property-based query fuzzing.

Hypothesis generates random (but valid) queries over a fixed schema; for
each one we check the invariants that hold regardless of query content:

* the optimized plan returns exactly what the unoptimized plan returns;
* exact re-execution is deterministic;
* HT estimation from a Bernoulli sample is within a generous statistical
  envelope of the exact answer (catching scaling mistakes, which show up
  as 2x-style errors far outside any sampling noise).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.options import QueryOptions
from repro.engine.optimizer import optimize_plan
from repro.sql.binder import bind_sql

ROWS = 4000


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(99)
    db = Database()
    db.create_table(
        "f",
        {
            "a": rng.integers(0, 50, ROWS),
            "b": rng.integers(0, 8, ROWS),
            "v": np.round(rng.exponential(10.0, ROWS), 3),
            "w": np.round(rng.random(ROWS), 6),
        },
        block_size=128,
    )
    db.create_table(
        "d",
        {"k": np.arange(8, dtype=np.int64), "tag": np.arange(8) % 3},
    )
    return db


# --- query text generator ---------------------------------------------

comparators = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])
columns = st.sampled_from(["a", "b", "v", "w"])
#: agg templates over fact columns; formatted with qualified names so the
#: same pool serves both single-table and join queries
AGG_TEMPLATES = st.sampled_from(
    ["SUM({v})", "COUNT(*)", "AVG({v})", "SUM({v} * {w})", "MIN({w})", "MAX({a})"]
)
#: fact-side GROUP BY column sets (empty = plain aggregate)
GROUP_SETS = st.sampled_from([(), ("b",), ("a",), ("a", "b"), ("b", "a")])


@st.composite
def predicates(draw, qualify):
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        col = draw(columns)
        op = draw(comparators)
        if col in ("a", "b"):
            value = draw(st.integers(0, 50))
        else:
            value = round(draw(st.floats(0, 30)), 3)
        parts.append(f"{qualify(col)} {op} {value}")
    joiner = draw(st.sampled_from([" AND ", " OR "]))
    return joiner.join(parts)


@st.composite
def queries(draw):
    """Aggregates over ``f``, optionally joined to ``d``, with 0-3 GROUP BY
    columns drawn from both sides of the join and 0-3 WHERE conjuncts."""
    join = draw(st.booleans())
    qualify = (lambda c: f"f.{c}") if join else (lambda c: c)
    templates = draw(st.lists(AGG_TEMPLATES, min_size=1, max_size=3, unique=True))
    agg_list = [
        t.format(v=qualify("v"), w=qualify("w"), a=qualify("a")) for t in templates
    ]
    group_cols = [qualify(c) for c in draw(GROUP_SETS)]
    if join and draw(st.booleans()):
        # dimension-side grouping exercises join-then-group plans
        group_cols.append("d.tag")
    select = ", ".join(
        [f"{g} AS g{i}" for i, g in enumerate(group_cols)]
        + [f"{a} AS c{i}" for i, a in enumerate(agg_list)]
    )
    sql = f"SELECT {select} FROM f"
    if join:
        sql += " JOIN d ON f.b = d.k"
    where = draw(st.one_of(st.none(), predicates(qualify=qualify)))
    if where is not None:
        sql += f" WHERE {where}"
    if group_cols:
        sql += " GROUP BY " + ", ".join(group_cols)
    return sql


def rows_sorted(table):
    pylist = table.to_pylist()
    return sorted(
        (tuple(sorted(row.items())) for row in pylist),
        key=lambda r: str(r),
    )


def approx_equal_rows(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for (ka, va), (kb, vb) in zip(ra, rb):
            if ka != kb:
                return False
            if isinstance(va, float) and isinstance(vb, float):
                if np.isnan(va) and np.isnan(vb):
                    continue
                if not np.isclose(va, vb, rtol=1e-9, atol=1e-9, equal_nan=True):
                    return False
            elif va != vb:
                return False
    return True


@pytest.mark.slow
class TestQueryFuzz:
    @given(queries())
    @settings(max_examples=60, deadline=None)
    def test_optimizer_preserves_semantics(self, db, sql):
        bound = bind_sql(sql, db)
        raw, _ = db.execute(bound.plan, optimize=False)
        opt, _ = db.execute(optimize_plan(bound.plan, db), optimize=False)
        assert approx_equal_rows(rows_sorted(raw), rows_sorted(opt)), sql

    @given(queries())
    @settings(max_examples=30, deadline=None)
    def test_exact_execution_deterministic(self, db, sql):
        a = db.sql(sql)
        b = db.sql(sql)
        assert approx_equal_rows(rows_sorted(a.table), rows_sorted(b.table)), sql

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_sampled_sum_within_envelope(self, db, seed):
        """A 30% Bernoulli sample's HT SUM must land within a generous
        envelope — catches inverse-probability scaling bugs."""
        exact = db.sql("SELECT SUM(v) AS s FROM f").scalar()
        res = db.sql(
            "SELECT SUM(v) AS s FROM f TABLESAMPLE BERNOULLI (30)",
            options=QueryOptions(seed=seed),
        )
        scaled = res.scalar() / 0.30
        assert abs(scaled - exact) / exact < 0.30
