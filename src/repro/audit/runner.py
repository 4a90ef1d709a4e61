"""Repeated-trial coverage audits over the audited-path registry.

For every path the runner replays N seeded trials, counts hits (the CI
or bound held) and refusals (the door declined — honoring the contract,
so excluded from the coverage denominator), and classifies the hit
count against the claimed coverage with the exact two-sided binomial
band. All per-trial seeds are derived from one base seed through
``SeedSequence`` spawns keyed on the path name, so the whole document
is a deterministic function of ``(seed, mode)`` — wall-clock timings
are quarantined under the ``timing`` key so reports diff cleanly.
"""

from __future__ import annotations

import math
import time
import zlib
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .acceptance import DEFAULT_ALPHA, binomial_acceptance_band, coverage_verdict
from .doors import DoorRow, TrialResult
from .paths import AuditContext, AuditPath, build_paths

#: default base seed; override with ``--seed`` / ``REPRO_SEED``
DEFAULT_SEED = 1729

#: (light, heavy) trial counts per mode — heavy paths go through the
#: full planner or rebuild synopses per trial, so they get fewer trials
#: but still enough for the binomial band to have teeth.
TRIALS = {"smoke": (50, 20), "full": (200, 60)}

#: TPC-H scale per mode. Smoke must keep lineitem above the advisor's
#: minimum samplable size (10k rows ≈ scale 0.4) or pilot/quickr refuse
#: every trial.
SCALES = {"smoke": 0.45, "full": 1.0}


def trial_seed(base_seed: int, path_name: str, trial: int) -> int:
    """Deterministic, collision-resistant per-trial seed."""
    ss = np.random.SeedSequence(
        [base_seed, zlib.crc32(path_name.encode("utf-8")), trial]
    )
    return int(ss.generate_state(1)[0])


def _mean(values: Sequence[float]) -> float:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return math.nan
    return sum(finite) / len(finite)


def _round(x: float, digits: int = 6) -> Optional[float]:
    """JSON-safe rounding: NaN/inf become None (valid, diffable JSON)."""
    if not math.isfinite(x):
        return None
    return round(x, digits)


def audit_one(
    path: Union[AuditPath, DoorRow],
    ctx: AuditContext,
    trials: int,
    base_seed: int,
    alpha: float = DEFAULT_ALPHA,
) -> Dict[str, object]:
    """Run ``trials`` seeded trials of one path and classify the result.

    A row whose options carry a spec also reports ``error_met_frac``:
    the share of answered trials whose every cell met the spec's ε.
    """
    outcomes: List[TrialResult] = []
    for trial in range(trials):
        outcomes.append(path.run(ctx, trial_seed(base_seed, path.name, trial)))
    effective = [o for o in outcomes if not o.refused]
    refusals = len(outcomes) - len(effective)
    hits = sum(1 for o in effective if o.hit)

    if path.claim == "none":
        verdict = "n/a"  # nothing claimed, nothing to break
        band = None
        ok = True
    elif not effective:
        verdict = "all_refused"
        band = None
        ok = False  # a path that never answers is audit-dead
    else:
        band = binomial_acceptance_band(
            len(effective), path.claimed_coverage, alpha
        )
        verdict = coverage_verdict(
            hits, len(effective), path.claimed_coverage, alpha
        )
        # Guarantees are one-sided contracts: "conservative" means wider
        # intervals than claimed, which wastes speedup but breaks nothing.
        ok = verdict != "fail_under" or path.expected_failure
    record = {
        "name": path.name,
        "family": path.family,
        "claim": path.claim,
        "description": path.description,
        "claimed_coverage": path.claimed_coverage,
        "trials": len(outcomes),
        "refusals": refusals,
        "effective_trials": len(effective),
        "hits": hits,
        "empirical_coverage": (
            _round(hits / len(effective)) if effective else None
        ),
        "acceptance_band": list(band) if band is not None else None,
        "verdict": verdict,
        "expected_failure": path.expected_failure,
        "guarantee_ok": ok,
        "mean_relative_error": _round(
            _mean([o.relative_error for o in effective])
        ),
        "mean_ci_relative_half_width": _round(
            _mean([o.relative_half_width for o in effective])
        ),
    }
    if isinstance(path, DoorRow) and path.options.spec is not None:
        record["error_met_frac"] = (
            _round(sum(o.error_met for o in effective) / len(effective))
            if effective
            else None
        )
    return record


def run_audit(
    smoke: bool = False,
    seed: int = DEFAULT_SEED,
    trials: Optional[int] = None,
    heavy_trials: Optional[int] = None,
    scale: Optional[float] = None,
    path_names: Optional[Sequence[str]] = None,
    alpha: float = DEFAULT_ALPHA,
    progress: bool = False,
) -> Dict[str, object]:
    """Audit every registered path; return the report document.

    All statistical keys are deterministic given ``seed``; wall-clock
    goes under ``timing`` only.
    """
    mode = "smoke" if smoke else "full"
    light_default, heavy_default = TRIALS[mode]
    n_light = trials if trials is not None else light_default
    n_heavy = heavy_trials if heavy_trials is not None else heavy_default
    ctx = AuditContext(scale=scale if scale is not None else SCALES[mode])

    paths = build_paths()
    if path_names:
        wanted = set(path_names)
        unknown = wanted - {p.name for p in paths}
        if unknown:
            raise ValueError(f"unknown audit paths: {sorted(unknown)}")
        paths = [p for p in paths if p.name in wanted]

    records: List[Dict[str, object]] = []
    timing: Dict[str, float] = {}
    start = time.perf_counter()
    for path in paths:
        t0 = time.perf_counter()
        record = audit_one(
            path,
            ctx,
            n_heavy if path.heavy else n_light,
            base_seed=seed,
            alpha=alpha,
        )
        timing[path.name] = round(time.perf_counter() - t0, 4)
        records.append(record)
        if progress:
            cov = record["empirical_coverage"]
            print(
                f"  {record['verdict']:>12}  {path.name:<28} "
                f"coverage {cov if cov is not None else '-'} "
                f"(claimed {path.claimed_coverage})"
            )
    timing["total"] = round(time.perf_counter() - start, 4)

    audited = [r for r in records if r["claim"] != "none"]
    failures = [
        r for r in audited
        if r["verdict"] == "fail_under" and not r["expected_failure"]
    ]
    expected = [
        r for r in audited
        if r["expected_failure"] and r["verdict"] == "fail_under"
    ]
    return {
        "schema": 1,
        "mode": mode,
        "seed": seed,
        "alpha": alpha,
        "scale": ctx.scale,
        "trials": {"light": n_light, "heavy": n_heavy},
        "paths": records,
        "summary": {
            "num_paths": len(records),
            "num_audited": len(audited),
            "num_pass": sum(1 for r in audited if r["verdict"] == "pass"),
            "num_conservative": sum(
                1 for r in audited if r["verdict"] == "conservative"
            ),
            "num_expected_failures": len(expected),
            "num_unexpected_failures": len(failures),
            "all_guarantees_ok": all(r["guarantee_ok"] for r in records),
        },
        "timing": timing,
    }
