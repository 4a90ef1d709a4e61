"""A3 — ablation: the cost of the joint (union-bound) error semantics.

Design choice under test: the planners guarantee that *all* cells meet
the spec simultaneously, splitting the failure budget δ across cells
(Boole's inequality). This ablation measures the price: as the group
count grows, the per-cell confidence tightens and the solved sampling
rate rises. The alternative — per-cell-only semantics — would keep the
rate flat but silently deliver joint coverage well below the nominal
level once there are many groups.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import Database, ErrorSpec
from repro.core.errorspec import z_value
from repro.online import PilotPlanner
from repro.sql import bind_sql

GROUP_COUNTS = [1, 4, 16, 48]


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(36)
    n = 400_000
    db = Database()
    for k in GROUP_COUNTS:
        db.create_table(
            f"t{k}",
            {"v": rng.gamma(2.0, 20.0, n), "g": rng.integers(0, k, n)},
            block_size=256,
        )
    return db


def test_a03_rate_vs_group_count(db):
    spec = ErrorSpec(0.05, 0.95)

    def compute():
        rows = []
        for k in GROUP_COUNTS:
            sql = (
                f"SELECT g, SUM(v) AS s FROM t{k} GROUP BY g"
                if k > 1
                else "SELECT SUM(v) AS s FROM t1"
            )
            bound = bind_sql(sql, db)
            cells = max(k, 1)
            per_cell_z = z_value(
                min(1.0 - spec.failure_probability / 2.0 / cells, 1 - 1e-12)
            )
            try:
                res = PilotPlanner(db, seed=200 + k).run(bound, spec)
                rows.append(
                    (k, res.diagnostics["sampling_rate"], per_cell_z, res.speedup)
                )
            except Exception:
                # Enough groups push the required rate past the useful
                # maximum: the planner refuses — the extreme of the trend.
                rows.append((k, 1.0, per_cell_z, None))
        return rows

    rows = compute()
    write_report(
        "a03_budget_split",
        table(
            ["groups", "solved rate", "per-cell z", "speedup"],
            [
                (k, f"{r:.4f}", f"{z:.2f}", f"{s:.2f}x" if s else "refused")
                for k, r, z, s in rows
            ],
        ),
    )
    # Shape: the union bound makes per-cell z grow with the cell count,
    # and the solved rate grows with it (refusal counts as rate 1.0).
    assert rows[-1][2] > rows[0][2]
    assert rows[-1][1] > rows[0][1]
    # Groups also shrink per-group data (same table size), compounding:
    # the most-grouped query needs several times the 1-group rate.
    assert rows[-1][1] > 3 * rows[0][1]
