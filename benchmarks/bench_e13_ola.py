"""E13 — online aggregation: anytime answers, honest caveats.

Claims: (a) OLA's CI shrinks like 1/√rows-seen, so useful answers appear
after a small fraction of the scan; (b) ripple joins extend this to join
aggregates; (c) coverage at a *fixed* stopping time is nominal, but
adaptive "stop when it first looks good" peeking drops realized coverage
below the nominal level.
"""

import numpy as np
import pytest

from common import table, write_report
from repro import Table
from repro.online import OnlineAggregator, RippleJoin, peeking_coverage


@pytest.fixture(scope="module")
def skewed_pop():
    rng = np.random.default_rng(29)
    return rng.lognormal(2.0, 1.3, 200_000)


def test_e13_convergence_curve(skewed_pop):
    data = Table({"v": skewed_pop})
    truth = float(skewed_pop.sum())

    def compute():
        ola = OnlineAggregator(data, "v", "sum", seed=1)
        rows = []
        for frac in (0.01, 0.02, 0.05, 0.1, 0.25, 0.5):
            snap = ola.snapshot(int(len(skewed_pop) * frac))
            rows.append(
                (
                    frac,
                    snap.relative_half_width,
                    abs(snap.value - truth) / truth,
                )
            )
        return rows

    rows = compute()
    write_report(
        "e13_convergence",
        table(
            ["fraction seen", "CI half-width", "true error"],
            [(f, f"{w:.3%}", f"{e:.3%}") for f, w, e in rows],
        ),
    )
    # Shape: width shrinks ~1/sqrt(fraction): 25x data => ~5x tighter.
    assert rows[-1][1] < rows[0][1] / 3
    # And the truth sits inside the reported width at every checkpoint.
    for _, width, err in rows:
        assert err < 3 * width


def test_e13_ripple_join_convergence(rng):
    n, d = 150_000, 2000
    keys = rng.integers(0, d, n)
    fact = Table({"k": keys, "v": rng.exponential(5.0, n)})
    dim = Table({"k": np.arange(d), "w": rng.random(d)})
    truth = float(np.sum(fact["v"] * dim["w"][keys]))

    def compute():
        ripple = RippleJoin(fact, dim, "k", "k", "v", "w", seed=2)
        rows = []
        for _ in range(6):
            snap = ripple.advance(10_000)
            rows.append(
                (
                    snap.rows_read_left / n,
                    abs(snap.value - truth) / truth,
                    min(snap.relative_half_width, 9.99),
                )
            )
        return rows

    rows = compute()
    write_report(
        "e13_ripple",
        table(
            ["fraction read", "true error", "reported half-width"],
            [(f"{f:.2f}", f"{e:.3%}", f"{w:.3%}") for f, e, w in rows],
        ),
    )
    assert rows[-1][1] < rows[0][1]
    assert rows[-1][1] < 0.05


def test_e13_fixed_vs_peeking_coverage(skewed_pop):
    def compute():
        # Fixed-time coverage at a pre-registered 5k-row stop.
        data = Table({"v": skewed_pop[:50_000]})
        truth = float(data["v"].sum())
        hits = 0
        trials = 80
        for seed in range(trials):
            ola = OnlineAggregator(data, "v", "sum", confidence=0.95, seed=seed)
            snap = ola.snapshot(5000)
            hits += snap.ci_low <= truth <= snap.ci_high
        fixed = hits / trials
        peek = peeking_coverage(
            skewed_pop[:30_000],
            target_relative_error=0.2,
            confidence=0.95,
            num_trials=80,
            batch_size=50,
            seed=30,
        )
        return fixed, peek

    fixed, peek = compute()
    write_report(
        "e13_peeking",
        table(
            ["stopping rule", "realized coverage (nominal 95%)"],
            [
                ("fixed, pre-registered stop", f"{fixed:.1%}"),
                ("stop at first good-looking CI", f"{peek:.1%}"),
            ],
        ),
    )
    assert fixed >= 0.9
    assert peek < fixed


def test_e13_wander_vs_ripple(rng):
    """On sparse (near-key-unique) joins, a ripple join's early prefixes
    contain almost no matching pairs, so it must read a large share of
    both inputs before its CI tightens; wander join completes one joined
    pair per index walk and reaches the same CI after touching a fraction
    of the rows — the regime the wander-join paper targets. (On dense,
    high-fanout joins ripple wins instead: every row it reads joins.)"""
    from repro.online import WanderJoin

    n, d = 150_000, 75_000  # fanout ~2: sparse keys
    keys = rng.integers(0, d, n)
    fact = Table({"k": keys, "v": rng.exponential(5.0, n)})
    dim = Table({"k": np.arange(d), "w": rng.random(d) + 0.5})
    truth = float(np.sum(fact["v"] * dim["w"][keys]))

    def compute():
        wj = WanderJoin(fact, dim, "k", "k", "v", "w", seed=9)
        snap = None
        for snap in wj.run(batch=500, target_relative_error=0.05):
            pass
        wander_rows = snap.walks * 2  # one row from each side per walk
        ripple = RippleJoin(fact, dim, "k", "k", "v", "w", seed=9)
        while True:
            rsnap = ripple.advance(5000)
            rows_read = rsnap.rows_read_left + rsnap.rows_read_right
            if rsnap.relative_half_width <= 0.05 or ripple.is_exhausted:
                break
        return (
            wander_rows,
            abs(snap.value - truth) / truth,
            rows_read,
            abs(rsnap.value - truth) / truth,
        )

    wrows, werr, rrows, rerr = compute()
    write_report(
        "e13_wander",
        table(
            ["method", "rows touched to reach a 5% CI", "true error at stop"],
            [
                ("wander join (index walks)", wrows, f"{werr:.3%}"),
                ("ripple join (random scans)", rrows, f"{rerr:.3%}"),
            ],
        ),
    )
    assert werr < 0.10 and rerr < 0.10
    assert wrows < rrows / 2  # walks beat scans on sparse joins
