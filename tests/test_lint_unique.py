"""Lint: no hash-path set operations on the ``sql()`` path.

numpy 2 answers a plain ``np.unique`` of integers from a hash table,
which at a million int64 values costs some forty times a sort and a
neighbour compare; ``np.union1d``, ``np.intersect1d`` and
``np.setdiff1d`` call that same plain ``np.unique``. The packages a
query runs through take distinct values from
:func:`repro.engine.aggregates.sorted_unique` instead. ``np.unique`` with
``return_inverse`` or ``return_counts`` sorts, and stays allowed.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: the packages a ``sql()`` call runs through
QUERY_PATH_PACKAGES = ("core", "engine", "offline", "online", "sampling", "storage")

#: set routines that always take numpy's plain ``unique``
SET_ROUTINES = frozenset({"union1d", "intersect1d", "setdiff1d"})

#: keywords that send ``np.unique`` down its sorting path
SORTING_KEYWORDS = frozenset({"return_inverse", "return_counts"})

#: the one function allowed a plain ``np.unique``: the helper itself,
#: for dtypes that are not integer or bool
HELPER = ("engine/aggregates.py", "sorted_unique")

HINT = (
    "use repro.engine.aggregates.sorted_unique (numpy 2 hashes a plain "
    "np.unique of integers, and the set routines call it)"
)


def _numpy_routine(call: ast.Call) -> str:
    """``unique`` for ``np.unique(...)`` / ``numpy.unique(...)``, else ''."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return ""


def violations(source: str, relative: str):
    """``(line, message)`` for every hash-path set operation in ``source``."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "numpy":
                for alias in child.names:
                    if alias.name == "unique" or alias.name in SET_ROUTINES:
                        found.append((child.lineno, f"imports numpy.{alias.name}"))
            if isinstance(child, ast.Call):
                routine = _numpy_routine(child)
                keywords = {k.arg for k in child.keywords}
                if routine in SET_ROUTINES:
                    found.append((child.lineno, f"calls np.{routine}"))
                elif (
                    routine == "unique"
                    and not keywords & SORTING_KEYWORDS
                    and (relative, function) != HELPER
                ):
                    found.append((child.lineno, "calls a plain np.unique"))
            visit(child, function)

    visit(ast.parse(source), "")
    return found


def _query_path_modules():
    for package in QUERY_PATH_PACKAGES:
        yield from sorted((SRC / package).glob("*.py"))


@pytest.mark.parametrize(
    "path", list(_query_path_modules()), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_hash_path_set_operations(path):
    relative = f"{path.parent.name}/{path.name}"
    found = violations(path.read_text(), relative)
    assert not found, "\n".join(
        f"{relative}:{line}: {what}; {HINT}" for line, what in found
    )


@pytest.mark.parametrize(
    "snippet",
    [
        "import numpy as np\nnp.unique(x)\n",
        "import numpy as np\nnp.union1d(a, b)\n",
        "import numpy as np\nnp.intersect1d(a, b)\n",
        "import numpy as np\nnp.setdiff1d(a, b)\n",
        "import numpy\nnumpy.unique(x, axis=0)\n",
        "from numpy import union1d\n",
        "import numpy as np\ndef sorted_unique(v):\n    return np.unique(v)\n",
    ],
)
def test_the_lint_catches(snippet):
    assert violations(snippet, "online/example.py")


@pytest.mark.parametrize(
    "snippet",
    [
        "import numpy as np\nnp.unique(x, return_inverse=True)\n",
        "import numpy as np\nnp.unique(x, return_counts=True)\n",
    ],
)
def test_the_lint_allows_the_sorting_path(snippet):
    assert not violations(snippet, "online/example.py")


def test_the_helper_alone_may_call_plain_unique():
    source = (SRC / HELPER[0]).read_text()
    assert "np.unique(values)" in source
    assert not violations(source, HELPER[0])
