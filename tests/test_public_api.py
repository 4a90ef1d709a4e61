"""Public-API snapshot: the golden guard against accidental breakage.

``tests/golden/public_api.json`` records the surface a user programs
against: the top-level exports, the unified :class:`QueryOptions` field
list, the result-envelope key set, the tuner package's exports, the
exact signatures of every ``sql()`` front door, and the constructors of
the engine, catalog, shard executor, ladder, frontend, budgets and
tuner (so a re-added option is a deliberate diff). Any drift fails here —
an API change must be deliberate: regenerate with ``REPRO_REGOLD=1``
and review the diff.

A structural guard rides along: the query lifecycle (root span, error
contract, ``queries_total``, workload log) is spelled once, in
``core/session.py::run_query``, and every front door is a stage over it.
"""

from __future__ import annotations

import inspect
import json
import os
import re
from pathlib import Path

import repro
import repro.tuner
from repro.core.options import QUERY_OPTION_FIELDS
from repro.core.result import ENVELOPE_KEYS
from repro.core.session import AQPEngine
from repro.engine.database import Database
from repro.offline.catalog import SynopsisCatalog
from repro.resilience.ladder import ResilientEngine
from repro.serving.budgets import TenantBudgets
from repro.serving.frontend import ServingFrontend
from repro.sharding.executor import ScatterGatherExecutor
from repro.tuner.advisor import SynopsisAdvisor
from repro.tuner.daemon import TuningDaemon

GOLDEN_DIR = Path(__file__).parent / "golden"
REGOLD = os.environ.get("REPRO_REGOLD") == "1"

#: every public query entry point whose signature is under contract
ENTRY_POINTS = {
    "Database.sql": Database.sql,
    "AQPEngine.sql": AQPEngine.sql,
    "ResilientEngine.sql": ResilientEngine.sql,
    "ScatterGatherExecutor.sql": ScatterGatherExecutor.sql,
    "ServingFrontend.sql": ServingFrontend.sql,
    "ServingFrontend.submit": ServingFrontend.submit,
}

#: classes whose constructor options are under contract
CONSTRUCTORS = (
    Database,
    SynopsisCatalog,
    ScatterGatherExecutor,
    ResilientEngine,
    ServingFrontend,
    TenantBudgets,
    TuningDaemon,
    SynopsisAdvisor,
)


def current_api() -> dict:
    return {
        "repro_all": sorted(repro.__all__),
        "tuner_all": sorted(repro.tuner.__all__),
        "query_option_fields": list(QUERY_OPTION_FIELDS),
        "envelope_keys": list(ENVELOPE_KEYS),
        "entry_point_signatures": {
            name: str(inspect.signature(fn))
            for name, fn in ENTRY_POINTS.items()
        },
        "constructor_signatures": {
            cls.__name__: str(inspect.signature(cls.__init__))
            for cls in CONSTRUCTORS
        },
    }


def test_public_api_golden_matches_code():
    api = current_api()
    path = GOLDEN_DIR / "public_api.json"
    if REGOLD:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(api, indent=2, sort_keys=True) + "\n")
    committed = json.loads(path.read_text())
    assert committed == api, (
        "public API drifted from tests/golden/public_api.json — breaking "
        "users must be deliberate; regenerate with REPRO_REGOLD=1 and "
        "review the diff"
    )


def test_every_entry_point_signature_carries_options():
    for name, fn in ENTRY_POINTS.items():
        params = inspect.signature(fn).parameters
        assert "options" in params, name
        assert params["options"].default is None, name


#: the steps of the query lifecycle, as they are spelled at a call site
LIFECYCLE_CALLS = {
    "observe_query": r"\bobserve_query\(",
    "effective_spec": r"\beffective_spec\(",
    "root query span": r"\bspan\(\s*\"query\"",
    "queries_total increment": r"\binc\(\s*\"queries_total\"",
}


def test_query_lifecycle_is_spelled_once():
    """A new front door must be a stage passed to ``run_query``, not a
    private copy of the lifecycle (DESIGN.md §2.10)."""
    src = Path(repro.__file__).parent
    for what, pattern in LIFECYCLE_CALLS.items():
        sites = []
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            for match in re.finditer(pattern, text):
                line_start = text.rfind("\n", 0, match.start()) + 1
                if text[line_start:match.start()].strip() == "def":
                    continue  # the definition, not a call
                sites.append(str(path.relative_to(src)))
        assert sites == ["core/session.py"], (
            f"{what} appears at {sites}; the query lifecycle lives in "
            "core/session.py::run_query and nowhere else"
        )
