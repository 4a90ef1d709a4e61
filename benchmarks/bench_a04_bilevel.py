"""A4 — ablation: the bi-level sampling design space.

Design choice under test: the library's block samplers read whole blocks
(row_rate = 1). The bi-level scheme shows the alternative: at a fixed
effective row fraction, raising the block rate (and thinning within
blocks) buys statistical efficiency on clustered layouts at linear I/O
cost — a continuous dial between pure block sampling and pure row
sampling. On shuffled layouts the dial does nothing, confirming the
clustering is the whole story.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import Table
from repro.sampling.bilevel import variance_tradeoff_curve
from repro.workloads import clustered_values

EFFECTIVE = 0.05
BLOCK = 256


def build(layout):
    t = Table(clustered_values(40_000, block_size=BLOCK, seed=43), block_size=BLOCK)
    if layout == "shuffled":
        t = t.take(np.random.default_rng(44).permutation(t.num_rows))
    return t


def test_a04_bilevel_design_space():
    def compute():
        out = {}
        for layout in ("clustered", "shuffled"):
            t = build(layout)
            out[layout] = variance_tradeoff_curve(
                t, "value", EFFECTIVE, trials=15, seed=45
            )
        return out

    curves = compute()
    rows = []
    for layout, curve in curves.items():
        for q, io, rmse in curve:
            rows.append((layout, q, f"{io:.2f}", f"{rmse:.4f}"))
    write_report(
        "a04_bilevel",
        table(["layout", "block rate", "I/O fraction", "SUM rmse"], rows),
    )
    clustered = curves["clustered"]
    shuffled = curves["shuffled"]
    # Clustered: error falls several-fold moving from pure-block to
    # pure-row at the same effective fraction...
    assert clustered[0][2] > 3 * clustered[-1][2]
    # ...while I/O rises linearly with the block rate.
    assert clustered[-1][1] > 10 * clustered[0][1]
    # Shuffled: the dial is flat (within noise) — blocks are already
    # random subsets.
    assert shuffled[0][2] < 3 * shuffled[-1][2]
