"""Lint: variances come from one module.

Every sampled answer is a moment table whose intervals come from
:mod:`repro.online.estimation`. The two doors that once built their own
from fixed-stop OLA — the ladder's ``partial_ola`` rung and the sharded
executor's ``ola`` technique — must not reach for the closed-form
estimators or an ``OnlineAggregator`` again, neither by importing them
nor through the :mod:`repro.online.ola` functions they call, or their
intervals would drift from every other door's.

Nor may any other ``src/repro`` module import an estimator from
``estimators.closed_form``: only :mod:`repro.online.estimation` may. The
rest take the per-cell ``Estimate`` view and the a-priori
``required_*`` sizes from it, nothing else.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``sql()`` doors that once estimated through OLA's own formulas
DOORS = ("resilience/ladder.py", "sharding/executor.py")

#: the module and the class a door must not import
BANNED_MODULE = "estimators.closed_form"
BANNED_NAME = "OnlineAggregator"

HINT = "take moments and intervals from repro.online.estimation"

#: the one module that may import anything from the closed-form module
ESTIMATION = "online/estimation.py"


def _module_path(node: ast.ImportFrom) -> str:
    """The imported module without leading dots or the package name."""
    module = node.module or ""
    return module[len("repro."):] if module.startswith("repro.") else module


def violations(source: str):
    """``(line, message)`` for every banned import in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.endswith(BANNED_MODULE):
                    found.append((node.lineno, f"imports {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            module = _module_path(node)
            names = {alias.name for alias in node.names}
            if module == BANNED_MODULE or (
                module.endswith("estimators") and "closed_form" in names
            ):
                found.append((node.lineno, f"imports from {BANNED_MODULE}"))
            if BANNED_NAME in names:
                found.append((node.lineno, f"imports {BANNED_NAME}"))
    return found


def ola_violations(door_source: str, ola_source: str):
    """``(line, message)`` for every use of ``OnlineAggregator`` or of a
    name ``online/ola.py`` imports from the closed-form estimators inside
    the ``online/ola.py`` functions the door imports."""
    called = {
        alias.name
        for node in ast.walk(ast.parse(door_source))
        if isinstance(node, ast.ImportFrom) and _module_path(node).endswith("online.ola")
        for alias in node.names
    }
    ola = ast.parse(ola_source)
    banned = {BANNED_NAME}
    for node in ast.walk(ola):
        if isinstance(node, ast.ImportFrom) and _module_path(node) == BANNED_MODULE:
            banned.update(alias.asname or alias.name for alias in node.names)
    found = []
    for fn in ola.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in called:
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id in banned:
                    found.append(
                        (node.lineno, f"{fn.name} uses {node.id} (online/ola.py)")
                    )
    return found


def estimator_imports(source: str):
    """``(line, message)`` for every import of the closed-form module
    itself, or of a name from it other than ``Estimate`` and
    ``required_*``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.endswith(BANNED_MODULE):
                    found.append((node.lineno, f"imports {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            module = _module_path(node)
            names = {alias.name for alias in node.names}
            if module.endswith("estimators") and "closed_form" in names:
                found.append((node.lineno, f"imports {BANNED_MODULE}"))
            elif module.split(".")[-1] == "closed_form":
                bad = sorted(
                    n for n in names if n != "Estimate" and not n.startswith("required_")
                )
                if bad:
                    found.append(
                        (node.lineno, f"imports {', '.join(bad)} from {BANNED_MODULE}")
                    )
    return found


def test_only_online_estimation_imports_estimators():
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / ESTIMATION
        for line, what in estimator_imports(path.read_text())
    ]
    assert not found, "\n".join(found) + f"\n{HINT}"


@pytest.mark.parametrize(
    "snippet",
    [
        "from repro.estimators.closed_form import srs_sum\n",
        "from ..estimators.closed_form import Estimate, bernoulli_avg\n",
        "from .closed_form import ratio_estimate\n",
        "from ..estimators import closed_form\n",
        "import repro.estimators.closed_form\n",
    ],
)
def test_the_estimator_lint_catches(snippet):
    assert estimator_imports(snippet)


def test_the_estimator_lint_allows_the_view_and_sizes():
    assert not estimator_imports(
        "from ..estimators.closed_form import Estimate\n"
        "from .closed_form import Estimate, required_rate_for_sum\n"
        "from ..online.estimation import srs_totals\n"
    )


@pytest.mark.parametrize("door", DOORS)
def test_doors_do_not_estimate_outside_online_estimation(door):
    source = (SRC / door).read_text()
    found = violations(source) + ola_violations(
        source, (SRC / "online" / "ola.py").read_text()
    )
    assert not found, "\n".join(
        f"{door}:{line}: {what}; {HINT}" for line, what in found
    )


@pytest.mark.parametrize(
    "snippet",
    [
        "from ..estimators.closed_form import Estimate\n",
        "from repro.estimators.closed_form import srs_sum\n",
        "from ..estimators import closed_form\n",
        "import repro.estimators.closed_form\n",
        "from ..online.ola import OnlineAggregator\n",
        "from ..online import OnlineAggregator\n",
    ],
)
def test_the_lint_catches(snippet):
    assert violations(snippet)


def test_the_lint_follows_the_ola_functions_a_door_calls():
    door = "from ..online.ola import fixed_stop_snapshot\n"
    ola = (
        "from ..estimators.closed_form import Estimate\n"
        "class OnlineAggregator: pass\n"
        "def fixed_stop_snapshot():\n    return OnlineAggregator()\n"
        "def snapshot():\n    return Estimate()\n"
    )
    assert [what for _, what in ola_violations(door, ola)] == [
        "fixed_stop_snapshot uses OnlineAggregator (online/ola.py)"
    ]


def test_the_lint_allows_the_shared_path():
    assert not violations(
        "from ..online.estimation import project_output_with_intervals\n"
        "from ..online.ola import fixed_stop_snapshot\n"
    )
