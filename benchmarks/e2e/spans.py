"""Benchmark-side spans around the calls into each layer's public functions.

The program has its own tracer (``repro.obs``); this one is deliberately
separate and lives with the benchmark, so a change that moves, removes or
redefines a span inside the program cannot move the numbers that judge it.
A span is ``(id, name, layer, start, end, parent, query id, error)``; spans
are kept in memory and written out once, when the run ends.

Functions are wrapped by replacing the attribute that callers look up: a
class attribute for methods, and for module-level functions every
``repro.*`` module global bound to the original (``from x import f``
copies the binding, so patching the defining module alone would miss
those callers). ``install()`` / ``uninstall()`` toggle all wrappers, so
untraced rounds run the unmodified program.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (dotted module, attribute or "Class.method", span name, layer)
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sql.parser", "parse_sql", "sql.parse", "sql"),
    ("repro.sql.binder", "bind_sql", "sql.bind", "sql"),
    ("repro.engine.optimizer", "optimize_plan", "engine.optimize", "engine"),
    ("repro.engine.database", "Database.execute", "engine.execute", "engine"),
    ("repro.engine.database", "Database.append_rows", "engine.append", "engine"),
    ("repro.sampling.row", "bernoulli_sample", "sampling.bernoulli", "sampling"),
    ("repro.sampling.row", "srs_sample", "sampling.srs", "sampling"),
    ("repro.sampling.block", "block_bernoulli_sample", "sampling.block", "sampling"),
    ("repro.sampling.distinct", "distinct_sample", "sampling.distinct", "sampling"),
    ("repro.sampling.stratified", "stratified_sample", "sampling.stratified", "sampling"),
    # online/estimation.py is where sampled rows become estimates and
    # intervals for every planner; it is the estimate/CI stage.
    ("repro.online.estimation", "estimate_groups_row_level", "estimators.row_level", "estimators"),
    ("repro.online.estimation", "estimate_groups_from_blocks", "estimators.from_blocks", "estimators"),
    ("repro.online.estimation", "project_output_with_intervals", "estimators.intervals", "estimators"),
    ("repro.online.pilot", "PilotPlanner.run", "online.pilot", "online"),
    ("repro.online.quickr", "QuickrPlanner.run", "online.quickr", "online"),
    ("repro.offline.rewriter", "OfflineRewriter.run", "offline.rewrite", "offline"),
    ("repro.offline.catalog", "SynopsisCatalog.find_sample", "offline.find_sample", "offline"),
    ("repro.storage.statistics", "compute_table_stats", "storage.stats_compute", "storage"),
    ("repro.storage.synopsis_cache", "SynopsisCache.get_or_build", "storage.synopsis_cache", "storage"),
    ("repro.core.advisor", "Advisor.run", "core.advisor", "core"),
    ("repro.resilience.ladder", "ResilientEngine.sql", "resilience.ladder", "resilience"),
    ("repro.serving.frontend", "ServingFrontend.submit", "serving.submit", "serving"),
    ("repro.serving.frontend", "ServingFrontend._serve", "serving.serve", "serving"),
    ("repro.sharding.executor", "ScatterGatherExecutor._scatter", "sharding.scatter", "sharding"),
    ("repro.sharding.executor", "ScatterGatherExecutor._run_shard", "sharding.shard", "sharding"),
    ("repro.sharding.executor", "ScatterGatherExecutor._gather", "sharding.gather", "sharding"),
    ("repro.tuner.workload", "observe_query", "tuner.observe", "tuner"),
    ("repro.tuner.daemon", "TuningDaemon.run_cycle", "tuner.cycle", "tuner"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[3] for t in TARGETS))

SPAN_FIELDS = ("id", "name", "layer", "start", "end", "parent", "query", "error")


class SpanRecorder:
    """Records spans from wrapped functions; one instance per run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        #: query id -> root span id, so work done for a query on another
        #: thread (a serving worker) hangs under the client's root span
        self._roots: Dict[int, int] = {}
        #: id(executor) -> (scatter span id, query id) for pool workers
        self._scatters: Dict[int, Tuple[int, Optional[int]]] = {}
        self._patches: Optional[List[Tuple[object, str, object, object]]] = None
        self._installed = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _record(self, name: str, layer: str, fn: Callable, args, kwargs,
                parent: Optional[int], qid: Optional[int], enter=None):
        stack = self._stack()
        sid = next(self._ids)
        if enter is not None:
            enter(sid, qid)
        stack.append((sid, qid))
        error = ""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, layer, start, end, parent, qid, error))

    def root(self, qid: int, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root ``query`` span of query ``qid``."""
        def enter(sid, _qid):
            self._roots[qid] = sid
        try:
            return self._record("query", layer, fn, args, kwargs, None, qid, enter)
        finally:
            self._roots.pop(qid, None)

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        recorder = self

        if name == "sharding.scatter":
            def traced(*args, **kwargs):
                stack = recorder._stack()
                parent, qid = stack[-1] if stack else (None, None)
                key = id(args[0])

                def enter(sid, q):
                    recorder._scatters[key] = (sid, q)
                try:
                    return recorder._record(name, layer, fn, args, kwargs, parent, qid, enter)
                finally:
                    recorder._scatters.pop(key, None)
        elif name == "sharding.shard":
            # runs on a pool thread when max_workers > 1
            def traced(*args, **kwargs):
                parent, qid = recorder._scatters.get(id(args[0]), (None, None))
                return recorder._record(name, layer, fn, args, kwargs, parent, qid)
        elif name == "serving.serve":
            # runs on a frontend worker thread; args = (frontend, entry)
            def traced(*args, **kwargs):
                qid = args[1].ticket.query_id
                return recorder._record(
                    name, layer, fn, args, kwargs, recorder._roots.get(qid), qid
                )
        else:
            def traced(*args, **kwargs):
                stack = recorder._stack()
                parent, qid = stack[-1] if stack else (None, None)
                return recorder._record(name, layer, fn, args, kwargs, parent, qid)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _build_patches(self) -> List[Tuple[object, str, object, object]]:
        import repro

        # Import every submodule first: one imported later, while the
        # wrappers are installed, would keep a wrapped binding for good.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro" or n.startswith("repro."))]
        patches: List[Tuple[object, str, object, object]] = []
        for module_name, attr, name, layer in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                patches.append((owner, method, original, self._wrap(original, name, layer)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, layer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapped))
        return patches

    def install(self) -> None:
        if self._installed:
            return
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original, _wrapped in self._patches or ():
            setattr(owner, attr, original)
        self._installed = False

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _children(self) -> Dict[int, List[Tuple[float, float, int]]]:
        children: Dict[int, List[Tuple[float, float, int]]] = {}
        for sid, _n, _l, start, end, parent, _q, _e in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end, sid))
        for kids in children.values():
            kids.sort()
        return children

    def self_times(self) -> Dict[int, Tuple[float, float]]:
        """Span id -> (self time, attributed time), in seconds.

        Self time is the span's duration minus the part of it its child
        spans cover. Children may overlap each other (shards on a pool)
        or, for a span adopted from another thread, stick out of the
        parent, so the covered part is the union of the child intervals
        clipped to the parent. Attributed time scales self time down
        where siblings ran side by side (by covered / summed sibling
        time, compounded down the tree), so that the attributed times of
        a query's spans add up to its root span's wall time.
        """
        children = self._children()
        weight: Dict[int, float] = {}
        out: Dict[int, Tuple[float, float]] = {}
        for sid, _n, _l, start, end, _p, _q, _e in sorted(self.spans, key=lambda s: s[3]):
            covered = summed = 0.0
            cursor = start
            for c0, c1, _kid in children.get(sid, ()):
                c0, c1 = max(c0, start), min(c1, end)
                summed += max(c1 - c0, 0.0)
                c0 = max(c0, cursor)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            mine = weight.get(sid, 1.0)
            share = mine * (covered / summed if summed > covered else 1.0)
            for _c0, _c1, kid in children.get(sid, ()):
                weight[kid] = share
            self_time = max(end - start - covered, 0.0)
            out[sid] = (self_time, self_time * mine)
        return out

    def durations(self, name: str, qids: Optional[Iterable[int]] = None) -> List[float]:
        """Durations in ms of the spans called ``name`` that returned
        normally (of queries ``qids`` only, when given)."""
        wanted = None if qids is None else set(qids)
        return [
            (end - start) * 1e3
            for _sid, n, _l, start, end, _p, q, error in self.spans
            if n == name and not error and (wanted is None or q in wanted)
        ]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": SPAN_FIELDS, "spans": [dict(zip(SPAN_FIELDS, s)) for s in self.spans]},
                fh,
            )
