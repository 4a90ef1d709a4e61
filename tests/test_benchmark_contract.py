"""The end-to-end benchmark's view of the library still resolves.

``benchmarks/e2e/run.py`` imports ``layers.py`` and ``spans.py`` on
every run, so a ``repro`` name those files import — or one that
``spans.TARGETS`` wraps — that is removed or renamed breaks the
benchmark outright. This test reads the benchmark sources (it edits
none of them) and checks, without running a workload:

* every ``from repro... import name`` resolves;
* every ``spans.TARGETS`` (module, attr) pair resolves, a dotted
  ``Class.method`` to a method defined on that class itself (which is
  what the span recorder patches);
* every keyword (and positional count) of a call the benchmark makes
  to an imported ``repro`` callable binds to its signature.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
SOURCES = sorted(BENCH_DIR.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _repro_imports(tree: ast.Module):
    """``(local name, module, attr)`` per ``from repro... import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(
            "."
        )[0] == "repro":
            for alias in node.names:
                yield alias.asname or alias.name, node.module, alias.name


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _span_targets():
    tree = _tree(BENCH_DIR / "spans.py")
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(
            node.target, "id", None
        ) == "TARGETS":
            return ast.literal_eval(node.value)
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("spans.py defines no TARGETS")


def test_benchmark_sources_exist():
    names = {p.name for p in SOURCES}
    assert {"run.py", "layers.py", "spans.py", "workloads.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_repro_name_resolves(path):
    for _local, module, attr in _repro_imports(_tree(path)):
        try:
            _resolve(module, attr)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{path.name}: from {module} import {attr}: {exc}")


def test_every_span_target_resolves():
    targets = _span_targets()
    assert targets
    for module_name, attr, _name, _layer in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name, None)
            assert owner is not None, f"{module_name}.{cls_name} is gone"
            assert method in vars(owner), (
                f"{module_name}.{attr} is not defined on {cls_name} itself"
            )
        else:
            assert callable(getattr(module, attr, None)), (
                f"{module_name}.{attr} is gone"
            )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_calls_to_repro_callables_bind(path):
    tree = _tree(path)
    imported = {
        local: (module, attr) for local, module, attr in _repro_imports(tree)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        # ``name(...)`` or ``name.attr...(...)`` rooted at a repro import
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name) or func.id not in imported:
            continue
        module, attr = imported[func.id]
        target = _resolve(module, ".".join([attr, *reversed(chain)]))
        try:
            signature = inspect.signature(target)
        except (TypeError, ValueError):
            continue  # a builtin without an introspectable signature
        if any(isinstance(a, ast.Starred) for a in node.args):
            args = []
        else:
            args = [None] * len(node.args)
        kwargs = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        try:
            signature.bind_partial(*args, **kwargs)
        except TypeError as exc:
            pytest.fail(
                f"{path.name}:{node.lineno}: call to {func.id} "
                f"no longer binds: {exc}"
            )
