"""E11 — sketches trade memory for accuracy exactly as their bounds say.

Claims: per-sketch accuracy follows the published bound as memory grows —
Count-Min's additive εN error halves as width doubles, Count-Sketch's L2
error beats CM on heavy-hitter-free mass, GK's rank error tracks ε, and
mergeability is lossless (distributed ingestion gives the same state).
"""

import numpy as np
import pytest

from common import table, write_report
from repro.sketches import CountMinSketch, CountSketch, GKQuantileSketch

STREAM = 400_000


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(24)
    vals = rng.zipf(1.3, STREAM)
    return vals[vals < 100_000]


def test_e11_countmin_memory_curve(stream):
    truth = np.bincount(stream)
    probes = np.flatnonzero(truth)[:500]

    def compute():
        rows = []
        for width in (512, 2048, 8192, 32768):
            cm = CountMinSketch.with_shape(depth=5, width=width, seed=1)
            cm.add(stream)
            over = cm.query(probes) - truth[probes]
            rows.append(
                (
                    cm.memory_bytes(),
                    float(np.mean(over)),
                    float(np.max(over)),
                    cm.error_bound,
                )
            )
        return rows

    rows = compute()
    write_report(
        "e11_countmin",
        table(
            ["bytes", "mean overestimate", "max overestimate", "εN bound"],
            [(b, f"{m:.1f}", f"{mx:.0f}", f"{bd:.0f}") for b, m, mx, bd in rows],
        ),
    )
    # Shape: error shrinks as memory grows; every max stays within a few
    # multiples of the bound-at-that-width (bound holds w.h.p. per row).
    assert rows[-1][1] < rows[0][1] / 4
    for _, _, mx, bound in rows:
        assert mx <= 3 * bound


def test_e11_countsketch_vs_countmin_bias(stream):
    truth = np.bincount(stream)
    light = np.flatnonzero((truth > 0) & (truth < 10))[:300]

    def compute():
        cm = CountMinSketch.with_shape(depth=5, width=4096, seed=2)
        cs = CountSketch(depth=5, width=4096, seed=2)
        cm.add(stream)
        cs.add(stream)
        cm_err = cm.query(light) - truth[light]
        cs_err = cs.query(light) - truth[light]
        return (
            float(np.mean(cm_err)),
            float(np.mean(cs_err)),
            float(np.mean(np.abs(cs_err))),
        )

    cm_bias, cs_bias, cs_abs = compute()
    write_report(
        "e11_bias",
        table(
            ["sketch", "mean signed error on light items"],
            [("count-min (one-sided)", f"{cm_bias:.2f}"),
             ("count-sketch (unbiased)", f"{cs_bias:.2f}")],
        ),
    )
    # Shape: CM is systematically positive on light items; CS is centered.
    assert cm_bias > 0
    assert abs(cs_bias) < cm_bias / 2


def test_e11_gk_epsilon_curve(rng):
    data = rng.lognormal(0, 1, 50_000)
    sorted_data = np.sort(data)

    def compute():
        rows = []
        for eps in (0.05, 0.02, 0.01, 0.005):
            g = GKQuantileSketch(epsilon=eps)
            g.add(data)
            worst = 0.0
            for phi in np.linspace(0.05, 0.95, 19):
                est = g.query(phi)
                rank = np.searchsorted(sorted_data, est) / len(data)
                worst = max(worst, abs(rank - phi))
            rows.append((eps, g.memory_entries(), worst))
        return rows

    rows = compute()
    write_report(
        "e11_gk",
        table(
            ["epsilon", "entries stored", "worst rank error"],
            [(e, n, f"{w:.4f}") for e, n, w in rows],
        ),
    )
    for eps, _, worst in rows:
        assert worst <= 2 * eps + 1e-9
    assert rows[-1][1] > rows[0][1]  # tighter ε costs more entries


def test_e11_merge_losslessness(stream):
    def compute():
        half = len(stream) // 2
        whole = CountMinSketch.with_shape(5, 2048, seed=3)
        whole.add(stream)
        a = CountMinSketch.with_shape(5, 2048, seed=3)
        b = CountMinSketch.with_shape(5, 2048, seed=3)
        a.add(stream[:half])
        b.add(stream[half:])
        merged = a.merge(b)
        return bool(np.array_equal(merged.counters, whole.counters))

    identical = compute()
    write_report(
        "e11_merge",
        ["distributed (merge of halves) == centralized ingest: %s" % identical],
    )
    assert identical
