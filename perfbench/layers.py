"""Per-layer tracing from outside the program.

The traced run wraps the public functions each layer exposes, at the name
each caller looks up (``repro.core.kernel.population_health`` for the
kernel's health call, a class attribute for a method), so the program runs
unmodified apart from the wrappers. Every wrapped call becomes a span
``(id, name, start, end, parent, item, thread)`` kept in memory and written
to a JSON-lines dump when the run ends; :func:`aggregate` turns a dump into
per-layer counts and self times. A span's self time is its duration minus
the durations of its direct children (wrapped calls made from inside it
on the same thread).

Importing this module imports nothing from ``repro``: :func:`install` does
that, in the process being traced.
"""

from __future__ import annotations

import functools
import http.server
import importlib
import itertools
import json
import os
import threading
import time
import weakref
from typing import Any, Callable

__all__ = ["SpanLog", "install", "read_dump", "aggregate", "TARGETS"]

#: (span name, module, attribute path) for every wrapped call. A name may
#: cover several targets (``SearchKernel.start`` is the generation-0 step).
TARGETS: list[tuple[str, str, str]] = [
    ("core.operators.breed", "repro.core.operators", "BreedingPipeline.breed"),
    ("core.kernel.step", "repro.core.kernel", "SearchKernel.start"),
    ("core.kernel.step", "repro.core.kernel", "SearchKernel.step"),
    ("core.kernel.trace_emit", "repro.core.kernel", "RunTrace.emit"),
    ("core.kernel.jsonl_emit", "repro.core.kernel", "JsonlTraceSink.emit"),
    ("obs.attribution", "repro.core.kernel", "summarize_generation"),
    ("obs.health", "repro.core.kernel", "population_health"),
    ("core.evalstack.evaluate_many", "repro.core.evalstack",
     "EvaluationStack.evaluate_many"),
    ("core.evalstack.stats", "repro.core.evalstack", "EvaluationStack.stats"),
    ("core.evalstack.persistent_put", "repro.core.evalstack",
     "PersistentCache.put_many"),
    ("core.evaluator.dataset_lookup", "repro.core.evaluator",
     "DatasetEvaluator.evaluate"),
    ("dataset.load", "repro.dataset.dataset", "Dataset.load"),
    ("core.checkpoint.save", "repro.core.checkpoint", "SearchCheckpoint.save"),
    ("service.store.save_status", "repro.service.store",
     "CampaignStore.save_status"),
    ("service.store.save_result", "repro.service.store",
     "CampaignStore.save_result"),
    ("service.metrics.record", "repro.service.metrics",
     "ServiceMetrics.record_step"),
    ("service.metrics.record", "repro.service.metrics",
     "ServiceMetrics.record_operators"),
    ("archive.record_many", "repro.archive.store", "DesignArchive.record_many"),
    ("service.scheduler.tick", "repro.service.scheduler", "Scheduler.tick"),
    ("service.http.request", "repro.service.http",
     "ServiceHTTPServer.finish_request"),
    ("synth.flow", "repro.synth.flow", "SynthesisFlow.run"),
    ("synth.resources", "repro.synth.netlist", "Module.resources"),
    ("synth.timing", "repro.synth.flow", "analyze_timing"),
    ("synth.signature", "repro.synth.netlist", "Module.signature"),
    ("noc.build_router", "repro.noc.space", "build_router"),
    ("fft.build_fft", "repro.fft.space", "build_fft"),
    ("dsp.build_fir", "repro.dsp.space", "build_fir"),
    ("fft.snr_db", "repro.fft.space", "snr_db"),
]

#: Every provider class that defines its own ``advance`` is wrapped; the
#: hierarchy is walked at install time so new providers are covered.
_GUIDANCE = ("repro.core.guidance", "GuidanceProvider", "core.guidance.advance")


class SpanLog:
    """In-memory span store shared by every wrapper of one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: The benchmark item the spans belong to (set by worker.py or
        #: launcher.py around each timed item; -1 outside them).
        self.item = -1
        self.counts: dict[str, float] = {}
        #: ``[item, latest EvalStats]`` per evaluation stack, where item is
        #: the benchmark item of the stack's first ``stats()`` call; the hit
        #: ratios are taken over the stacks of the timed items.
        self.stack_stats: dict[int, list] = {}
        self._stack_slots: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def note_stats(self, stack: Any, stats: Any) -> None:
        with self._lock:
            slot = self._stack_slots.get(stack)
            if slot is None:
                slot = self._stack_slots[stack] = len(self.stack_stats)
                self.stack_stats[slot] = [self.item, stats]
            self.stack_stats[slot][1] = stats

    def bump(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, after: Callable | None = None):
        """``fn`` timed as a span; ``after(args, kwargs, result)``, when
        given, runs once the call returns (to count bytes, note stats)."""
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(log._local, "stack", None)
            if stack is None:
                stack = log._local.stack = []
            # A wrapped override calling its wrapped base (super().advance)
            # is one logical call: only the outermost is a span.
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(log._ids)
            parent = stack[-1][0] if stack else None
            item = log.item
            stack.append((sid, name))
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(args, kwargs, result)
                log.spans.append(
                    (sid, name, start, end, parent, item, threading.get_ident())
                )

        return wrapper

    def dump(self, path: str, **header: Any) -> None:
        """Write the spans (and the counters) as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            stats = [
                {"item": item, "requests": s.requests, "memo_hits": s.memo_hits,
                 "persistent_hits": s.persistent_hits}
                for item, s in self.stack_stats.values()
            ]
            fh.write(json.dumps({"header": header, "counts": self.counts,
                                 "stack_stats": stats}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _replace(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
    """Set ``owner.attr`` to ``make(original)``, keeping its descriptor kind."""
    raw = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _resolve(module: str, path: str) -> tuple[Any, str] | None:
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


def install(log: SpanLog) -> list[str]:
    """Wrap every target in the running process.

    Returns the targets this version of the program does not have; they
    are skipped, and their layer reports zero calls.
    """
    missing: list[str] = []

    def after_save(args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        if log.item >= 0:
            try:
                log.bump("checkpoint_bytes", os.path.getsize(path))
            except (OSError, TypeError):
                pass

    def after_stats(args, kwargs, result):
        if result is not None:
            log.note_stats(args[0], result)

    hooks = {
        "core.evalstack.stats": after_stats,
        "core.checkpoint.save": after_save,
    }
    for name, module, path in TARGETS:
        found = _resolve(module, path)
        if found is None:
            missing.append(f"{module}.{path}")
            continue
        _replace(*found, lambda fn, n=name: log.wrap(n, fn, hooks.get(n)))

    try:
        importlib.import_module("repro.archive.guidance")  # ArchiveGuidance
    except ImportError:
        missing.append("repro.archive.guidance")
    found = _resolve(_GUIDANCE[0], _GUIDANCE[1])
    if found is None:
        missing.append(".".join(_GUIDANCE[:2]))
    else:
        seen, todo = set(), [getattr(*found)]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if "advance" in vars(cls):
                _replace(cls, "advance", lambda fn: log.wrap(_GUIDANCE[2], fn))

    # HTTP status codes: the stdlib handler reports every response through
    # log_request(code); count the non-2xx ones.
    def make_log_request(fn):
        @functools.wraps(fn)
        def log_request(self, code="-", size="-"):
            try:
                status = int(getattr(code, "value", code))
            except (TypeError, ValueError):
                status = 0
            if not 200 <= status < 300:
                log.bump("http_errors")
            return fn(self, code, size)

        return log_request

    _replace(http.server.BaseHTTPRequestHandler, "log_request", make_log_request)
    return missing


def read_dump(path: str) -> tuple[dict, list[tuple]]:
    """The header line and the span rows of a dump."""
    with open(path, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh if line.strip()]
    return head, spans


def aggregate(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` (inclusive) and ``self_s``."""
    child_time: dict[int, float] = {}
    for sid, name, start, end, parent, item, thread in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, parent, item, thread in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(sid, 0.0)
    return out


def root_time(spans: list[tuple], thread: int) -> float:
    """Summed duration of root spans (no wrapped parent) on one thread."""
    return sum(
        end - start
        for sid, name, start, end, parent, item, th in spans
        if parent is None and th == thread
    )

