"""Span tracing: one causal timing tree per search run.

The metrics registry answers *how much*; this module answers *why slow*.
A :class:`SpanRecorder` collects one tree of timed spans per campaign::

    run
    └── generation
        ├── phase (select | crossover | mutate | evaluate | observe |
        │          checkpoint | init)
        │   └── eval-batch            (under the evaluate phase)
        │       ├── task              (one per fleet-dispatched design)
        │       │   ├── dispatch      (one per attempt)
        │       │   ├── retry         (backoff wait after a failed attempt)
        │       │   └── worker-exec   (worker-reported execution window)
        │       └── cache-write       (store write of paid rows)
        └── ...

Design constraints, in force everywhere:

* **Zero RNG.** Span and trace ids come from monotonic counters, never
  from :mod:`random` — seeded runs are bit-identical with tracing on or
  off (the engine-parity CI job runs the full matrix both ways).
* **Offsets, not timestamps, across processes.** Worker and coordinator
  clocks share no epoch; remote work travels as *durations and offsets
  relative to batch submission* and is anchored (and clamped) into the
  local eval-batch span, so child durations never exceed their parent.
* **Accounting closes.** Every dispatched task has exactly one owning
  ``task`` span per eval batch; retries and first-result-wins duplicates
  are attributed to that span (as child spans / attributes), never
  duplicated. :func:`validate_accounting` checks both invariants.

Analysis helpers operate on exported span dicts (the wire/JSONL form),
so they work identically on a live recorder and on a persisted
``spans.jsonl``: :func:`phase_budget` (where did each generation's
wall-clock go), :func:`straggler_report` / :func:`critical_path` (per
eval batch: slowest worker, queue wait vs exec time), and
:func:`perfetto_export` (Chrome trace-event JSON, loadable in Perfetto).

Like the rest of :mod:`repro.obs`, this module is stdlib-only and
imports nothing from the rest of :mod:`repro` — the kernel, eval stack
and fleet duck-type into it.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Mapping, Sequence

from .clock import DEFAULT_CLOCK

__all__ = [
    "Span",
    "SpanRecorder",
    "span_tree",
    "validate_accounting",
    "phase_budget",
    "straggler_report",
    "critical_path",
    "perfetto_export",
]

#: Span names of the per-generation phase partition (see phase_budget).
PHASE_NAMES = (
    "init", "select", "crossover", "mutate", "evaluate", "observe",
    "checkpoint",
)

#: Containment slack, seconds: floating-point rounding when a child's
#: boundary timestamp is arithmetically derived from its parent's.
_EPSILON = 1e-6

_TRACE_SEQ = itertools.count(1)


def _new_trace_id() -> str:
    """A process-unique trace id from counters (never the random module)."""
    return f"trace-{os.getpid():x}-{next(_TRACE_SEQ):x}"


class Span:
    """One timed node of a trace tree. ``end_s is None`` while open."""

    __slots__ = ("span_id", "parent_id", "name", "start_s", "end_s", "attrs")

    def __init__(
        self,
        span_id: str,
        parent_id: str | None,
        name: str,
        start_s: float,
        end_s: float | None = None,
        attrs: dict[str, Any] | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s = end_s
        self.attrs = attrs or {}

    @property
    def duration_s(self) -> float | None:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = "open" if self.end_s is None else f"{self.duration_s:.6f}s"
        return f"Span({self.name!r}, {self.span_id}, {dur})"


class SpanRecorder:
    """Thread-safe collector of one run's span tree.

    Args:
        clock: Injectable time source (see :mod:`repro.obs.clock`); spans
            store raw clock readings, so only differences are meaningful.
        trace_id: Stable identity of this tree (defaults to a counter-based
            process-unique id); propagated through fleet protocol frames.
    """

    def __init__(
        self,
        clock: Callable[[], float] = DEFAULT_CLOCK,
        trace_id: str | None = None,
    ):
        self.clock = clock
        self.trace_id = trace_id or _new_trace_id()
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._spans: list[Span] = []
        self._undrained: list[Span] = []

    def _next_id(self) -> str:
        return f"s{next(self._seq):06x}"

    @staticmethod
    def _parent_id(parent: "Span | str | None") -> str | None:
        if parent is None or isinstance(parent, str):
            return parent
        return parent.span_id

    # -- recording ---------------------------------------------------------------

    def begin(
        self,
        name: str,
        parent: "Span | str | None" = None,
        at: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span now (or at the explicit clock reading ``at``)."""
        start = self.clock() if at is None else at
        with self._lock:
            span = Span(self._next_id(), self._parent_id(parent), name, start,
                        attrs=attrs)
            self._spans.append(span)
        return span

    def end(self, span: Span, at: float | None = None, **attrs: Any) -> None:
        """Close a span; extra attrs are merged in (idempotent on end time)."""
        stamp = self.clock() if at is None else at
        with self._lock:
            if span.end_s is None:
                span.end_s = max(stamp, span.start_s)
                self._undrained.append(span)
            if attrs:
                span.attrs.update(attrs)

    @contextmanager
    def span(self, name: str, parent: "Span | str | None" = None, **attrs: Any):
        """Context manager over :meth:`begin` / :meth:`end`."""
        node = self.begin(name, parent=parent, **attrs)
        try:
            yield node
        finally:
            self.end(node)

    def record(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: "Span | str | None" = None,
        **attrs: Any,
    ) -> Span:
        """Add an already-timed (closed) span — remote or derived work.

        Used for two things: phase segments computed from boundary
        timestamps, and worker/coordinator activity anchored from relative
        offsets. ``end_s`` is floored to ``start_s`` so derived arithmetic
        can never produce a negative duration.
        """
        with self._lock:
            span = Span(
                self._next_id(),
                self._parent_id(parent),
                name,
                start_s,
                max(end_s, start_s),
                attrs=attrs,
            )
            self._spans.append(span)
            self._undrained.append(span)
        return span

    # -- export ------------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Every span recorded so far (copy of the list, live objects)."""
        with self._lock:
            return list(self._spans)

    def export(self) -> list[dict[str, Any]]:
        """JSON-ready dicts for every span, in creation order."""
        with self._lock:
            return [span.as_dict() for span in self._spans]

    def drain_finished(self) -> list[dict[str, Any]]:
        """Spans closed since the last drain, as dicts (then marked drained).

        The service appends these to the campaign's ``spans.jsonl`` after
        every scheduler step, so a killed daemon loses at most the spans
        of the generation in flight. Draining never removes spans from
        :meth:`export` — it only advances the persistence cursor.
        """
        with self._lock:
            batch, self._undrained = self._undrained, []
            return [span.as_dict() for span in batch]


# ---------------------------------------------------------------------------
# analysis over exported spans
# ---------------------------------------------------------------------------


def _as_dicts(spans: Iterable[Any]) -> list[dict[str, Any]]:
    out = []
    for span in spans:
        if isinstance(span, Span):
            out.append(span.as_dict())
        elif isinstance(span, Mapping):
            out.append(dict(span))
        else:
            raise TypeError(f"not a span: {span!r}")
    return out


def span_tree(
    spans: Sequence[Any],
) -> tuple[dict[str, dict], dict[str | None, list[dict]]]:
    """Index spans: ``(by_id, children_by_parent)``; roots key ``None``.

    A span whose ``parent`` id is missing from the set is treated as a
    root too (a partially persisted tree still analyzes).
    """
    rows = _as_dicts(spans)
    by_id = {row["id"]: row for row in rows}
    children: dict[str | None, list[dict]] = {}
    for row in rows:
        parent = row.get("parent")
        if parent is not None and parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(row)
    return by_id, children


def validate_accounting(spans: Sequence[Any]) -> dict[str, Any]:
    """Check the two span-accounting invariants; ``{"ok", "errors", ...}``.

    1. *Containment*: every closed child lies inside its closed parent's
       window (within a float-rounding epsilon) — child durations never
       exceed their parent's.
    2. *Single ownership*: within one eval-batch span, each dispatched
       task id owns exactly one ``task`` span (retries and duplicate
       results attach to it; they never mint a second owner).
    """
    rows = _as_dicts(spans)
    by_id, children = span_tree(rows)
    errors: list[str] = []
    open_spans = sum(1 for row in rows if row.get("end_s") is None)
    for row in rows:
        parent = by_id.get(row.get("parent"))
        if parent is None or row.get("end_s") is None:
            continue
        if parent.get("end_s") is None:
            continue
        if row["start_s"] < parent["start_s"] - _EPSILON or (
            row["end_s"] > parent["end_s"] + _EPSILON
        ):
            errors.append(
                f"span {row['id']} ({row['name']}) "
                f"[{row['start_s']:.6f}, {row['end_s']:.6f}] escapes parent "
                f"{parent['id']} ({parent['name']}) "
                f"[{parent['start_s']:.6f}, {parent['end_s']:.6f}]"
            )
    task_spans = 0
    for batch in (r for r in rows if r["name"] == "eval-batch"):
        owners: dict[str, int] = {}
        for child in children.get(batch["id"], ()):
            if child["name"] != "task":
                continue
            task_spans += 1
            task = str(child.get("attrs", {}).get("task", ""))
            owners[task] = owners.get(task, 0) + 1
        for task, count in owners.items():
            if count > 1:
                errors.append(
                    f"task {task[:12]} owned by {count} spans in eval-batch "
                    f"{batch['id']} (must be exactly one)"
                )
    return {
        "ok": not errors,
        "errors": errors,
        "spans": len(rows),
        "open_spans": open_spans,
        "task_spans": task_spans,
    }


def phase_budget(spans: Sequence[Any]) -> dict[str, Any]:
    """Where each generation's wall-clock went, by phase.

    Returns ``{"generations": [...], "phases": {...}, "wall_time_s",
    "coverage"}``. Phase spans are recorded as a contiguous partition of
    their generation's window, so per-generation coverage (phase seconds
    over generation wall seconds) is ~1.0 by construction; the acceptance
    floor is 0.95.
    """
    rows = _as_dicts(spans)
    __, children = span_tree(rows)
    generations = []
    totals: dict[str, float] = {}
    total_wall = 0.0
    gen_rows = sorted(
        (r for r in rows if r["name"] == "generation" and r.get("end_s") is not None),
        key=lambda r: r["attrs"].get("generation", 0),
    )
    for gen in gen_rows:
        wall = gen["end_s"] - gen["start_s"]
        phases: dict[str, float] = {}
        for child in children.get(gen["id"], ()):
            if child["name"] != "phase" or child.get("end_s") is None:
                continue
            label = str(child["attrs"].get("phase", "?"))
            phases[label] = phases.get(label, 0.0) + (
                child["end_s"] - child["start_s"]
            )
        budget = sum(phases.values())
        generations.append(
            {
                "generation": gen["attrs"].get("generation", 0),
                "wall_time_s": wall,
                "phases": phases,
                "coverage": budget / wall if wall > 0 else 1.0,
            }
        )
        total_wall += wall
        for label, seconds in phases.items():
            totals[label] = totals.get(label, 0.0) + seconds
    return {
        "generations": generations,
        "phases": totals,
        "wall_time_s": total_wall,
        "coverage": (
            sum(totals.values()) / total_wall if total_wall > 0 else 1.0
        ),
    }


def straggler_report(spans: Sequence[Any]) -> list[dict[str, Any]]:
    """Per eval batch: slowest task/worker and queue-wait vs exec split.

    Queue wait is the part of a task's dispatch window the worker did
    *not* spend executing (coordinator queueing, network, worker-side
    batching); exec time is the worker-reported execution duration. One
    report entry per eval-batch span that owns at least one task span.
    """
    rows = _as_dicts(spans)
    by_id, children = span_tree(rows)
    report = []
    for batch in (r for r in rows if r["name"] == "eval-batch"):
        tasks = [c for c in children.get(batch["id"], ()) if c["name"] == "task"]
        if not tasks:
            continue
        per_task = []
        workers: dict[str, dict[str, float]] = {}
        for task in tasks:
            exec_s = queue_s = 0.0
            retries = 0
            for child in children.get(task["id"], ()):
                dur = (child.get("end_s") or child["start_s"]) - child["start_s"]
                if child["name"] == "worker-exec":
                    exec_s += dur
                    queue_s += float(child["attrs"].get("queue_s", 0.0))
                elif child["name"] == "retry":
                    retries += 1
            total = (task.get("end_s") or task["start_s"]) - task["start_s"]
            worker = str(task["attrs"].get("worker", "?"))
            entry = {
                "task": str(task["attrs"].get("task", "")),
                "worker": worker,
                "total_s": total,
                "exec_s": exec_s,
                "queue_s": queue_s if queue_s else max(total - exec_s, 0.0),
                "retries": retries,
                "duplicates": int(task["attrs"].get("duplicate_results", 0)),
            }
            per_task.append(entry)
            agg = workers.setdefault(
                worker, {"tasks": 0, "exec_s": 0.0, "total_s": 0.0}
            )
            agg["tasks"] += 1
            agg["exec_s"] += entry["exec_s"]
            agg["total_s"] += total
        slowest = max(per_task, key=lambda e: e["total_s"])
        parent_phase = by_id.get(batch.get("parent"), {})
        grandparent = by_id.get(parent_phase.get("parent"), {})
        report.append(
            {
                "generation": grandparent.get("attrs", {}).get("generation"),
                "batch_span": batch["id"],
                "wall_time_s": (batch.get("end_s") or batch["start_s"])
                - batch["start_s"],
                "tasks": len(per_task),
                "slowest": slowest,
                "slowest_worker": max(
                    workers.items(), key=lambda kv: kv[1]["total_s"]
                )[0],
                "workers": workers,
            }
        )
    return report


def critical_path(spans: Sequence[Any], root: str | None = None) -> list[dict]:
    """The chain of spans ending latest at each level, root downwards.

    This is the sequence of nested windows that bounded the run's (or,
    given ``root``, a subtree's) wall-clock — the place an optimization
    must land to shorten it. Entries carry name, attrs, and duration.
    """
    rows = _as_dicts(spans)
    by_id, children = span_tree(rows)
    closed = [r for r in rows if r.get("end_s") is not None]
    if root is not None:
        node = by_id.get(root)
    else:
        roots = [r for r in children.get(None, ()) if r.get("end_s") is not None]
        node = max(roots, key=lambda r: r["end_s"] - r["start_s"], default=None)
        if node is None and closed:
            node = max(closed, key=lambda r: r["end_s"] - r["start_s"])
    path = []
    while node is not None:
        path.append(
            {
                "id": node["id"],
                "name": node["name"],
                "attrs": dict(node.get("attrs", {})),
                "duration_s": (node.get("end_s") or node["start_s"])
                - node["start_s"],
            }
        )
        kids = [
            c for c in children.get(node["id"], ()) if c.get("end_s") is not None
        ]
        node = max(kids, key=lambda c: c["end_s"], default=None)
    return path


def perfetto_export(
    spans: Sequence[Any], trace_id: str | None = None
) -> dict[str, Any]:
    """Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).

    Spans become complete (``"X"``) events with microsecond timestamps.
    Search-side spans share one track; each fleet worker's ``task`` /
    ``dispatch`` / ``worker-exec`` / ``retry`` spans get their own track,
    so stragglers are visible as the longest bars in a worker lane.
    """
    rows = _as_dicts(spans)
    closed = [r for r in rows if r.get("end_s") is not None]
    origin = min((r["start_s"] for r in closed), default=0.0)
    by_id, __ = span_tree(rows)

    def _worker_of(row: dict) -> str | None:
        node = row
        while node is not None:
            worker = node.get("attrs", {}).get("worker")
            if worker:
                return str(worker)
            if node["name"] in ("run", "generation", "phase", "eval-batch"):
                return None
            node = by_id.get(node.get("parent"))
        return None

    tids: dict[str, int] = {"search": 1}
    events: list[dict[str, Any]] = []
    for row in closed:
        lane = _worker_of(row) if row["name"] not in (
            "run", "generation", "phase", "eval-batch", "cache-write"
        ) else None
        track = f"worker:{lane}" if lane else "search"
        tid = tids.setdefault(track, len(tids) + 1)
        label = row["name"]
        attrs = row.get("attrs", {})
        if row["name"] == "phase":
            label = f"phase:{attrs.get('phase', '?')}"
        elif row["name"] == "generation":
            label = f"generation {attrs.get('generation', '?')}"
        elif row["name"] == "task":
            label = f"task {str(attrs.get('task', ''))[:12]}"
        events.append(
            {
                "name": label,
                "cat": row["name"],
                "ph": "X",
                "ts": round((row["start_s"] - origin) * 1e6, 3),
                "dur": round((row["end_s"] - row["start_s"]) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": {"id": row["id"], **attrs},
            }
        )
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "nautilus"},
        }
    ]
    metadata.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in sorted(tids.items(), key=lambda kv: kv[1])
    )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id or "", "spans": len(closed)},
    }
