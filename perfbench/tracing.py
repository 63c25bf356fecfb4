"""Timing wrappers around the calls into each layer (traced runs only).

The benchmark never edits the program. In a traced run, the launcher
(``launch.py``) calls :func:`install` at module top level, which swaps
each function named in :func:`targets` for a wrapper that records one
span per call: layer name, start, duration, self time (the duration
minus the part covered by nested spans), the enclosing layer and a few
counters read off the objects the call touched. Worker processes
started with the ``spawn`` method import the launcher as their main
module, so they install the same wrappers before they unpickle their
entry point.

A wrapper replaces the binding the caller resolves at call time:
``repro.core.executor.minimize_linexpr``, not only the
``repro.opt.linear`` original, because the executor imported the name.

Spans stay in memory and are written once, as JSON, when the process
ends (the daemon after its SIGTERM drain, a worker when it leaves its
serve loop). Span start times come from ``time.monotonic()``, which is
CLOCK_MONOTONIC on Linux and therefore comparable across processes.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import time

#: Environment variable naming the directory traced processes write to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class _Frame:
    """The open span of one call; nested spans charge their time to it."""

    __slots__ = ("layer", "parent", "child", "notes")

    def __init__(self, layer: str, parent: "_Frame | None"):
        self.layer = layer
        self.parent = parent
        self.child = 0.0
        self.notes: dict | None = None


class Recorder:
    """Collects spans for one process.

    Each span is stored as a list
    ``[layer, start, duration, self, parent_layer, outermost, info]``,
    where *outermost* is false when an enclosing span has the same
    layer (so busy times do not count recursion twice) and *info* holds
    the counters a hook read, or None.
    """

    def __init__(self, role: str):
        self.role = role
        self.spans: list[list] = []
        #: pids of the solver worker processes this process started.
        self.workers: list[int] = []

    def _open(self, layer: str):
        parent = _current.get()
        outer = True
        frame = parent
        while frame is not None:
            if frame.layer == layer:
                outer = False
                break
            frame = frame.parent
        span = _Frame(layer, parent)
        return span, parent, outer, _current.set(span)

    def _close(self, span, parent, outer, token, start, info) -> None:
        duration = time.monotonic() - start
        _current.reset(token)
        if parent is not None:
            parent.child += duration
        self.spans.append([
            span.layer, start, duration, duration - span.child,
            parent.layer if parent is not None else None, outer, info,
        ])

    def wrap(self, layer: str, fn, hook=None):
        """*fn* timed as a span of *layer*.

        *hook(frame, args, kwargs)*, when given, runs before the call and
        returns ``done(result) -> dict | None``, the span's info.
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span, parent, outer, token = self._open(layer)
                done = hook(span, args, kwargs) if hook else None
                start = time.monotonic()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    self._close(span, parent, outer, token, start,
                                done(result) if done else None)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, parent, outer, token = self._open(layer)
            done = hook(span, args, kwargs) if hook else None
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span, parent, outer, token, start,
                            done(result) if done else None)

        return wrapper

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "role": self.role,
                       "workers": self.workers, "spans": self.spans}, fh)


# -- hooks: counters read around a call ----------------------------------------------


def _solver_hook(frame, args, kwargs):
    solver = args[0]
    assumptions = args[1] if len(args) > 1 else kwargs.get("assumptions", ())
    c0, p0 = solver.stats.conflicts, solver.stats.propagations
    parent = frame.parent
    bound = None
    if (parent is not None and parent.layer == "opt.linear"
            and parent.notes and assumptions):
        bound = parent.notes.get(assumptions[-1])

    def done(result):
        info = {
            "conflicts": solver.stats.conflicts - c0,
            "props": solver.stats.propagations - p0,
            "sat": None if result is None else result.satisfiable,
        }
        if parent is not None and parent.layer == "opt.linear":
            info["probe"] = bound is not None
            info["bound"] = bound
        return info

    return done


def _linear_hook(frame, args, kwargs):
    expr = args[2] if len(args) > 2 else kwargs["expr"]
    frame.notes = {"const": expr.const}
    return None


def _reify_wrapper(fn):
    """Not a span: remembers which literal stands for which probe bound.

    ``minimize_linexpr`` probes ``expr <= mid`` through
    ``encoder.reify``; the normalized constraint keeps
    ``expr.const - mid`` as its constant, so the bound is visible here.
    """

    @functools.wraps(fn)
    def wrapper(self, constraint):
        lit = fn(self, constraint)
        frame = _current.get()
        if frame is not None and frame.layer == "opt.linear" and frame.notes:
            frame.notes[lit] = frame.notes["const"] - constraint.expr.const
        return lit

    return wrapper


def _view_hook(frame, args, kwargs):
    stats = args[0].stats
    before = (stats.rebases, stats.rebases_avoided, stats.rebases_patched)

    def done(result):
        return {
            "rebases": stats.rebases - before[0],
            "adopted": stats.rebases_avoided - before[1],
            "patched": stats.rebases_patched - before[2],
        }

    return done


def _pool_hook(frame, args, kwargs):
    stats = args[0].stats
    before = (stats.hits, stats.rekeyed, stats.evictions)

    def done(result):
        return {
            "hit": stats.hits - before[0],
            "rekeyed": stats.rekeyed - before[1],
            "evictions": stats.evictions - before[2],
        }

    return done


def _counter_hook(*names):
    def hook(frame, args, kwargs):
        metrics = args[0].metrics
        before = [metrics.counter(n) for n in names]

        def done(result):
            return {
                n.rsplit(".", 1)[-1]: metrics.counter(n) - b
                for n, b in zip(names, before)
            }

        return done

    return hook


def _compile_run_hook(frame, args, kwargs):
    return lambda result: {"compiles": 1}


def _admission_hook(frame, args, kwargs):
    return lambda result: {"shed": int(result is False)}


def targets():
    """``(module, attribute path, layer, hook)`` for every wrapped call."""
    return [
        ("repro.sat.solver", "Solver.solve_limited", "sat.solver",
         _solver_hook),
        ("repro.core.session", "preprocess_solver", "sat.preprocess", None),
        ("repro.sat.preprocess", "preprocess_clauses", "sat.preprocess",
         None),
        ("repro.core.executor", "minimize_linexpr", "opt.linear",
         _linear_hook),
        ("repro.opt.linear", "minimize_linexpr", "opt.linear",
         _linear_hook),
        ("repro.core.executor", "lexicographic_optimize",
         "opt.lexicographic", None),
        ("repro.opt.lexicographic", "lexicographic_optimize",
         "opt.lexicographic", None),
        ("repro.core.executor", "conflict_from_core", "core.diagnose", None),
        ("repro.core.diagnose", "conflict_from_core", "core.diagnose", None),
        ("repro.core.executor", "QueryExecutor.execute", "core.executor",
         None),
        ("repro.core.session", "ReasoningSession.view", "core.session",
         _view_hook),
        ("repro.core.compile", "_Compiler.run", "core.compile",
         _compile_run_hook),
        ("repro.core.compile", "_Compiler.ground_request", "core.compile",
         None),
        ("repro.core.compile", "_Compiler.patch_entities", "core.compile",
         None),
        ("repro.kb.registry", "KnowledgeBase.apply_entity_delta",
         "kb.registry.apply", None),
        ("repro.kb.registry", "KnowledgeBase.__deepcopy__",
         "kb.registry.copy", None),
        ("repro.kb.registry", "KnowledgeBase.validate_or_raise",
         "kb.registry.validate", None),
        ("repro.kb.store.sqlite", "SqliteFactStore.append", "kb.store", None),
        ("repro.extraction.specsheet", "spec_sheet_to_delta_op",
         "extraction", None),
        # serve: the daemon front end
        ("repro.serve.daemon", "ReasoningDaemon.handle", "serve.daemon",
         None),
        ("repro.serve.daemon", "ReasoningDaemon._run", "serve.daemon.run",
         None),
        ("repro.serve.admission", "AdmissionController.try_acquire",
         "serve.admission", _admission_hook),
        ("repro.serve.admission", "AdmissionController.release",
         "serve.admission", None),
        ("repro.serve.pool", "SessionPool.checkout", "serve.pool.checkout",
         _pool_hook),
        ("repro.serve.pool", "SessionPool.checkin", "serve.pool.checkin",
         _pool_hook),
        *[
            ("repro.serve.daemon", name, "serve.protocol", None)
            for name in ("decode_envelope", "envelope_to_query",
                         "decode_kb_update", "result_to_wire",
                         "result_items", "ok_payload", "error_payload",
                         "canonical_json")
        ],
        *[
            ("repro.serve.workers", name, "serve.protocol", None)
            for name in ("envelope_to_query", "result_to_wire",
                         "result_items", "canonical_json")
        ],
        # serve: the worker-process backend
        ("repro.serve.workers", "WorkerSupervisor.submit",
         "serve.workers.submit", None),
        ("repro.serve.workers", "WorkerSupervisor.route", "serve.workers",
         _counter_hook("route.affinity", "route.spill")),
        ("repro.serve.workers", "WorkerSupervisor._ship_kb",
         "serve.workers",
         _counter_hook("workers.kb_delta_shipped", "workers.kb_shipped")),
        ("repro.serve.workers", "WorkerSupervisor._handle_loss",
         "serve.workers.lost", None),
        ("repro.serve.workers", "_execute", "serve.workers.execute", None),
    ]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(role: str, directory: str) -> Recorder:
    """Wrap every target; returns the recorder that collects the spans.

    Also wraps ``repro.serve.workers.worker_main`` so a worker process
    writes its spans to *directory* when its serve loop returns, and
    ``WorkerSupervisor._spawn`` so the daemon lists every worker it
    started (respawns too): a worker whose spans never arrive is then
    seen as missing, not as idle.
    """
    recorder = Recorder(role)
    for module_name, path, layer, hook in targets():
        owner, attr = _resolve(module_name, path)
        setattr(owner, attr, recorder.wrap(layer, getattr(owner, attr), hook))
    owner, attr = _resolve("repro.smt.encoder", "IntEncoder.reify")
    setattr(owner, attr, _reify_wrapper(getattr(owner, attr)))

    workers = importlib.import_module("repro.serve.workers")
    worker_main = workers.worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        recorder.role = "worker"
        try:
            return worker_main(*args, **kwargs)
        finally:
            recorder.dump(directory)

    workers.worker_main = traced_worker_main

    spawn = workers.WorkerSupervisor._spawn

    @functools.wraps(spawn)
    def traced_spawn(self, handle):
        spawn(self, handle)
        recorder.workers.append(handle.pid)

    workers.WorkerSupervisor._spawn = traced_spawn
    return recorder
