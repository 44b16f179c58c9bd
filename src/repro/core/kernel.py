"""The search kernel: one lifecycle, one RNG discipline, one trace.

Every engine in this reproduction — the baseline/guided generational GA
(adaptive confidence is one of its guidance providers), the NSGA-II
multi-objective search, and the random-sampling baseline — is a thin
strategy layered on the same :class:`SearchKernel`. The kernel owns the
three things the engines used to re-implement independently:

* **Lifecycle** — the incremental ``start()`` / ``step()`` protocol the
  service scheduler interleaves, the ``finished`` / ``stop_reason`` state
  machine, and the documented stopping precedence (evaluation *budget*,
  then generation *horizon*, then *stall* patience — checked between
  generations, first match wins).

* **One seeded generator** — ``start()`` creates ``random.Random(seed)``
  as :attr:`SearchKernel.rng`, and every draw of a run (initial
  population, parent selection, crossover, mutation) comes from it, as in
  the paper's PyEvolve lineage; checkpoints capture its state.

* **Structured trace** — every run emits :class:`RunEvent` records
  (``eval-batch`` / ``best-improved`` / ``generation-end`` / ``stop``)
  to pluggable :class:`TraceSink`\\ s, and an event lives only in the
  sinks attached to the run (a :class:`RecordingTraceSink` keeps them in
  memory; the service persists them per campaign as a JSONL log). Every
  :class:`GenerationRecord` is emitted as a ``generation-end`` event when
  the kernel appends it to its record list. Per-operator call counts and
  wall time are not events: the kernel charges them into one running
  total (:meth:`SearchKernel.operator_timings`).

:class:`GenerationalEngine` specializes the kernel for population-based
searches (propose → evaluate → select survivors → record) and owns what
they share: the setup (guidance provider, operators, breeding pipeline),
the record, the guidance feedback, the attribution scores, the result
and the checkpoint journal with its restore path. These read an
individual through the engine's one-line ``_scalar`` projection; the
concrete engines declare it, their selection strategy, their survivor
rule and how an evaluation becomes an individual.
"""

from __future__ import annotations

import base64
import json
import math
import random
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..obs.attribution import summarize_generation
from ..obs.clock import DEFAULT_CLOCK
from ..obs.health import population_health
from ..obs.tracing import SpanRecorder
from .checkpoint import CheckpointJournal, SearchCheckpoint
from .errors import InfeasibleDesignError, NautilusError
from .evalstack import EvalStats, EvaluationStack
from .fileio import dumps, open_append
from .fitness import Objective
from .genome import Genome
from .guidance import GuidanceProvider, GuidanceState, StaticHints
from .hints import HintSet
from .operators import BreedingPipeline, GeneticOperators
from .selection import Individual

__all__ = [
    "RUN_EVENT_KINDS",
    "RunEvent",
    "TraceSink",
    "RecordingTraceSink",
    "JsonlTraceSink",
    "CappedJsonlTraceSink",
    "RunTrace",
    "GenerationRecord",
    "SearchResult",
    "SearchKernel",
    "GenerationalEngine",
]

#: The event vocabulary every engine speaks. ``hint-attribution`` and
#: ``health`` are observability events (see :mod:`repro.obs`): emitted
#: once per generation when observability is enabled, derived purely from
#: already-computed state, and never consuming RNG draws.
RUN_EVENT_KINDS = (
    "generation-end",
    "eval-batch",
    "best-improved",
    "hint-attribution",
    "health",
    "stop",
)

#: Window (generations) over which the health event's convergence
#: velocity is measured.
_HEALTH_WINDOW = 8


# ---------------------------------------------------------------------------
# trace events and sinks
# ---------------------------------------------------------------------------


class RunEvent:
    """One structured, immutable trace event; ``payload`` is always
    JSON-serializable.

    ``RunEvent(seq, kind, generation, payload)`` holds its payload. An
    event made by :meth:`deferred` holds a zero-argument ``build`` instead
    and makes its payload the first time anything reads it (``payload``,
    :meth:`as_dict`, ``==``, ``repr``); the dict is then kept and
    ``build`` dropped, and with it the inputs it captured. The kernel's
    ``health`` and ``hint-attribution`` events are deferred, so a run
    whose trace nobody reads never builds them.
    """

    __slots__ = ("seq", "kind", "generation", "_payload", "_build")

    def __init__(
        self,
        seq: int,
        kind: str,
        generation: int,
        payload: dict[str, Any] | None = None,
    ):
        init = object.__setattr__
        init(self, "seq", seq)
        init(self, "kind", kind)
        init(self, "generation", generation)
        init(self, "_payload", {} if payload is None else payload)
        init(self, "_build", None)

    @classmethod
    def deferred(
        cls,
        seq: int,
        kind: str,
        generation: int,
        build: Callable[[], dict[str, Any]],
    ) -> "RunEvent":
        """An event whose payload is ``build()``, called on first read."""
        event = cls(seq, kind, generation)
        object.__setattr__(event, "_build", build)
        return event

    @property
    def payload(self) -> dict[str, Any]:
        # Two threads reading at once may both build; a builder reads only
        # its own immutable inputs, so either dict is the payload.
        build = self._build
        if build is not None:
            object.__setattr__(self, "_payload", build())
            object.__setattr__(self, "_build", None)
        return self._payload

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "generation": self.generation,
            **self.payload,
        }

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"RunEvent is immutable (cannot set {name!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.seq, self.kind, self.generation, self.payload) == (
            other.seq, other.kind, other.generation, other.payload
        )

    __hash__ = None  # type: ignore[assignment]  # the payload is a dict

    def __repr__(self) -> str:
        return (
            f"RunEvent(seq={self.seq!r}, kind={self.kind!r}, "
            f"generation={self.generation!r}, payload={self.payload!r})"
        )

    def __reduce__(self):
        return (RunEvent, (self.seq, self.kind, self.generation, self.payload))


class TraceSink:
    """Receives every emitted :class:`RunEvent`; subclass and override."""

    def emit(self, event: RunEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; emitting after close is a no-op."""


class RecordingTraceSink(TraceSink):
    """Keeps the last ``limit`` events in memory (None keeps everything)."""

    def __init__(self, limit: int | None = 100):
        self.limit = limit
        self._events: list[RunEvent] = []

    def emit(self, event: RunEvent) -> None:
        self._events.append(event)
        if self.limit is not None and len(self._events) > self.limit:
            del self._events[: len(self._events) - self.limit]

    def events(self, kind: str | None = None) -> list[RunEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]


class JsonlTraceSink(TraceSink):
    """Appends one JSON line per event — the service's per-campaign log.

    Each event is encoded as it arrives; a generation's lines are written
    with one ``write`` and one ``flush`` when its ``generation-end`` (or
    the run's ``stop``) arrives, and :meth:`close` writes whatever is
    still pending. The kernel emits ``generation-end`` before a
    checkpointed search journals the generation, so a journal line never
    commits a generation whose events are not in the file. A killed
    daemon loses the events of the generation being stepped, and that
    generation runs again on resume.

    The file is opened lazily and appended to (a resumed campaign
    continues the log it left behind), through
    :func:`~repro.core.fileio.open_append`, so an append never lands on
    a torn final line.
    """

    #: Event kinds that write the pending lines out.
    _WRITE_ON = frozenset(("generation-end", "stop"))

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = None
        self._pending: list[str] = []
        self._closed = False

    def emit(self, event: RunEvent) -> None:
        if self._closed:
            return
        self._pending.append(dumps(event.as_dict()) + "\n")
        if event.kind in self._WRITE_ON:
            self._write()

    def _write(self) -> None:
        """Write and flush the pending lines."""
        if not self._pending:
            return
        if self._handle is None:
            self._handle, __ = open_append(self.path)
        self._handle.write("".join(self._pending))
        self._handle.flush()
        self._pending.clear()

    def close(self) -> None:
        if not self._closed:
            self._write()
        self._closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class CappedJsonlTraceSink(JsonlTraceSink):
    """A :class:`JsonlTraceSink` that bounds the file's event count.

    Long campaigns would otherwise grow ``events.jsonl`` without bound.
    When a write takes the line count past ``max_events`` (plus a small
    slack that amortizes the rewrite), the file is compacted to the first
    ``max_events // 2`` and last ``max_events - max_events // 2`` events
    with a marker line between them::

        {"kind": "trace-truncated", "generation": <g>, "dropped": <k>}

    ``dropped`` accumulates across compactions, so the marker always
    reports the total number of events removed from the middle. The
    marker's kind is deliberately *not* part of :data:`RUN_EVENT_KINDS` —
    it exists only in persisted logs, never in a live trace.
    """

    MARKER_KIND = "trace-truncated"

    def __init__(self, path: str | Path, max_events: int):
        super().__init__(path)
        if max_events < 4:
            raise NautilusError("trace_max_events must be >= 4")
        self.max_events = max_events
        self._slack = max(max_events // 4, 8)
        self._lines: int | None = None

    def _write(self) -> None:
        """Write the pending lines, then count them and compact if due."""
        written = len(self._pending)
        if not written:
            return
        super()._write()
        if self._lines is None:
            self._lines = self._count_existing()
        else:
            self._lines += written
        if self._lines > self.max_events + self._slack:
            self._compact()

    def _count_existing(self) -> int:
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                return sum(1 for _ in handle)
        except FileNotFoundError:
            return 0

    def _compact(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        rows = []
        prior_dropped = 0
        for line in self.path.read_text(encoding="utf-8").splitlines():
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # torn final line from a killed writer
            if payload.get("kind") == self.MARKER_KIND:
                prior_dropped += int(payload.get("dropped", 0))
                continue
            rows.append(line)
        head_n = self.max_events // 2
        tail_n = self.max_events - head_n
        if len(rows) <= head_n + tail_n:
            # Nothing new to drop (e.g. torn lines inflated the count);
            # keep what we have, preserving any accumulated marker.
            if prior_dropped:
                marker = json.dumps(
                    {"kind": self.MARKER_KIND, "generation": 0,
                     "dropped": prior_dropped}
                )
                rows = [*rows[:head_n], marker, *rows[head_n:]]
            self._lines = len(rows)
            tmp = self.path.with_name(self.path.name + ".tmp")
            tmp.write_text("\n".join(rows) + "\n", encoding="utf-8")
            tmp.replace(self.path)
            return
        head, tail = rows[:head_n], rows[len(rows) - tail_n:]
        dropped = prior_dropped + max(len(rows) - len(head) - len(tail), 0)
        try:
            marker_generation = json.loads(tail[0]).get("generation", 0)
        except (ValueError, IndexError):
            marker_generation = 0
        marker = json.dumps(
            {
                "kind": self.MARKER_KIND,
                "generation": marker_generation,
                "dropped": dropped,
            }
        )
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text("\n".join([*head, marker, *tail]) + "\n", encoding="utf-8")
        tmp.replace(self.path)
        self._lines = len(head) + 1 + len(tail)


def _copy_timings(
    timings: Mapping[str, Mapping[str, float]],
) -> dict[str, dict[str, float]]:
    return {name: dict(totals) for name, totals in timings.items()}


class RunTrace:
    """The event stream of one search run.

    Owns the monotonically increasing sequence numbers and hands each
    event to the attached sinks; it keeps no event itself.
    """

    def __init__(self, sinks: Sequence[TraceSink] = ()):
        self._sinks: list[TraceSink] = list(sinks)
        self._seq = 0

    def attach(self, sink: TraceSink) -> None:
        self._sinks.append(sink)

    def emit(
        self,
        kind: str,
        generation: int,
        payload: dict[str, Any] | None = None,
        *,
        build: Callable[[], dict[str, Any]] | None = None,
    ) -> RunEvent:
        """Hand one event to every sink and return it.

        With ``build`` (instead of ``payload``) the event is
        :meth:`RunEvent.deferred`: the payload is ``build()``, made when
        something first reads it.
        """
        if kind not in RUN_EVENT_KINDS:
            raise NautilusError(f"unknown run-event kind {kind!r}")
        if build is not None:
            event = RunEvent.deferred(self._seq, kind, generation, build)
        else:
            event = RunEvent(self._seq, kind, generation, dict(payload or {}))
        self._seq += 1
        for sink in self._sinks:
            sink.emit(event)
        return event


# ---------------------------------------------------------------------------
# the generator's checkpoint state
# ---------------------------------------------------------------------------


#: A Mersenne Twister state: 624 words plus the position, each a uint32.
_MT_STATE = struct.Struct("<625I")


def _rng_payload(rng: random.Random) -> dict[str, Any]:
    """The checkpoint's ``rng_streams`` field for ``rng``: its state as the
    one ``"shared"`` stream, the words packed as base64 of little-endian
    uint32 (3.3 KB instead of a 7 KB list of ints)."""
    version, internal, gauss = rng.getstate()
    packed = base64.b64encode(_MT_STATE.pack(*internal)).decode("ascii")
    return {"mode": "shared", "streams": {"shared": [version, packed, gauss]}}


def _rng_from_payload(payload: Mapping[str, Any]) -> random.Random:
    """The generator an ``rng_streams`` field holds (inverse of
    :func:`_rng_payload`).

    Raises:
        NautilusError: The mode is not ``"shared"``, or the state is
            damaged — an error of the checkpoint file, not a crash inside
            ``random.setstate``.
    """
    mode = payload.get("mode")
    if mode != "shared":
        raise NautilusError(f"unknown RNG-stream mode {mode!r}")
    rng = random.Random()
    try:
        version, packed, gauss = payload["streams"]["shared"]
        internal = _MT_STATE.unpack(base64.b64decode(packed, validate=True))
        rng.setstate((version, internal, gauss))
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise NautilusError(f"malformed RNG state: {exc!r}") from None
    return rng


# ---------------------------------------------------------------------------
# run history: one record per generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerationRecord:
    """Snapshot of the search state after one generation.

    The kernel keeps its records in an append-only list and emits each one
    as the payload of a ``generation-end`` trace event.
    """

    generation: int
    best_raw: float
    best_score: float
    mean_score: float
    distinct_evaluations: int
    best_config: dict[str, Any] = field(repr=False, default_factory=dict)


_RECORD_FIELDS = (
    "generation",
    "best_raw",
    "best_score",
    "mean_score",
    "distinct_evaluations",
    "best_config",
)


class SearchResult:
    """The outcome of one search run.

    The result exposes the two quantities the paper evaluates on (Section 2,
    "Evaluating GAs"): quality of results (best raw metric) and runtime
    measured as the number of distinct designs evaluated.

    ``stop_reason`` records why the search ended: ``"horizon"`` (configured
    generations exhausted), ``"budget"`` (``max_evaluations`` reached),
    ``"stall"`` (``stall_generations`` without improvement), ``"exhausted"``
    (random search ran out of unseen feasible points), or ``"cancelled"``
    (an incremental search was finalized before any cutoff fired).
    """

    def __init__(
        self,
        objective: Objective,
        records: Sequence[GenerationRecord],
        best: Individual,
        distinct_evaluations: int,
        label: str = "",
        stop_reason: str = "horizon",
        eval_stats: EvalStats | None = None,
        operator_timings: Mapping[str, Mapping[str, float]] | None = None,
    ):
        self.objective = objective
        self.records = list(records)
        self.best = best
        self.distinct_evaluations = distinct_evaluations
        self.label = label
        self.stop_reason = stop_reason
        #: Full evaluation-pipeline counters/timers at result time (cache
        #: hits by layer, batch sizes, backend wall time, infeasible rate).
        self.eval_stats = eval_stats or EvalStats()
        self._operator_timings = _copy_timings(operator_timings or {})

    @property
    def best_raw(self) -> float:
        """Best raw objective value found."""
        return self.best.raw

    @property
    def best_config(self) -> dict[str, Any]:
        """Parameter assignment of the best design found."""
        return self.best.genome.as_dict()

    def curve(self) -> list[tuple[int, float]]:
        """(distinct evals, best raw so far) after each generation."""
        return [(r.distinct_evaluations, r.best_raw) for r in self.records]

    def operator_timings(self) -> dict[str, dict[str, float]]:
        """{operator: {calls, time_s}} over the run, as the search's
        :meth:`SearchKernel.operator_timings` read at result time."""
        return _copy_timings(self._operator_timings)

    def evals_to_reach(self, threshold: float) -> int | None:
        """Distinct evaluations needed to first reach a raw-metric threshold.

        Returns ``None`` if the run never reached it. Direction comes from
        the objective (>= threshold for max, <= for min).
        """
        for record in self.records:
            if math.isnan(record.best_raw):
                continue
            reached = (
                record.best_raw >= threshold
                if self.objective.maximizing
                else record.best_raw <= threshold
            )
            if reached:
                return record.distinct_evaluations
        return None

    def generations_to_reach(self, threshold: float) -> int | None:
        """Generations needed to first reach a raw-metric threshold."""
        for record in self.records:
            if math.isnan(record.best_raw):
                continue
            reached = (
                record.best_raw >= threshold
                if self.objective.maximizing
                else record.best_raw <= threshold
            )
            if reached:
                return record.generation
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchResult({self.label or self.objective.name}: "
            f"best={self.best_raw:.4g} after {self.distinct_evaluations} evals)"
        )


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------


class SearchKernel:
    """Shared lifecycle, seeded generator, and trace for every search engine.

    Subclasses implement :meth:`_do_start` and :meth:`_do_step`; the kernel
    wraps them with the start/step guards, the stopping-cutoff precedence
    (budget → horizon → stall, checked between generations), stop-reason
    bookkeeping, and trace emission. Cutoffs a subclass leaves as ``None``
    never fire, so an engine with its own stopping rule (the random
    baseline's draw budget) simply finishes itself via :meth:`_finish`.
    """

    #: What :meth:`result` builds: a :class:`SearchResult`, or a subclass
    #: whose own fields :meth:`_result_fields` supplies.
    _result_type = SearchResult

    def __init__(
        self,
        space,
        evaluator,
        objective: Objective,
        label: str = "",
        seed: int | None = None,
        max_evaluations: int | None = None,
        horizon: int | None = None,
        stall_generations: int | None = None,
        sinks: Sequence[TraceSink] = (),
        observability: bool = True,
        tracing: bool = False,
        clock: Callable[[], float] | None = None,
    ):
        self.space = space
        self.objective = objective
        self.label = label
        self.seed = seed
        self.max_evaluations = max_evaluations
        self.horizon = horizon
        self.stall_generations = stall_generations
        #: Whether the kernel emits ``hint-attribution`` / ``health``
        #: events. Purely additive telemetry: enabling it consumes no RNG
        #: draws, so seeded runs are bit-identical either way (the
        #: engine-parity CI job asserts this).
        self.observability = observability
        #: Whether the kernel records a span tree (see
        #: :mod:`repro.obs.tracing`). Same contract as observability:
        #: tracing consumes zero RNG draws (span ids are counters), so
        #: seeded runs stay bit-identical with it on or off.
        self.tracing = tracing
        #: The injectable time source every timed path below shares —
        #: operator timing, span boundaries, eval wall-clock. Tests pass
        #: a FakeClock; production uses DEFAULT_CLOCK (perf_counter).
        self._clock = clock if clock is not None else DEFAULT_CLOCK
        self._tracer = SpanRecorder(clock=self._clock) if tracing else None
        self._run_span = None
        self._eval_phase = None
        #: The most recent ``health`` event (see :attr:`latest_health`).
        self._health_event: RunEvent | None = None
        self._counter = EvaluationStack.wrap(evaluator)
        self._trace = RunTrace(sinks)
        #: {operator: {"calls", "time_s"}}, charged once per generation;
        #: keys keep the order of their first charge.
        self._operators: dict[str, dict[str, float]] = {}
        #: The guidance provider steering this search (None for unguided
        #: engines) and the per-generation state it last produced. The
        #: kernel owns the provider's lifecycle: ``start()`` at generation
        #: 0, one ``advance()`` per subsequent generation, and checkpoint
        #: save/restore of its mutable state.
        self._guidance: GuidanceProvider | None = None
        self._guidance_state: GuidanceState | None = None
        #: The run's one generator, ``random.Random(seed)``, created by
        #: :meth:`start` (a seed of ``0`` is a real seed; ``None`` draws
        #: from the entropy pool).
        self.rng: random.Random | None = None
        self._population: list = []
        self._best = None
        self._generation = 0
        self._stalled_generations = 0
        self._stop_reason: str | None = None
        #: Append-only history, one record per completed generation.
        self._records: list[GenerationRecord] = []
        self._best_window: deque[float] = deque(maxlen=_HEALTH_WINDOW)
        self._last_batch: tuple[int, int] = (0, 0)

    # -- shared state surface ----------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has been called."""
        return self.rng is not None

    @property
    def finished(self) -> bool:
        """Whether a stopping cutoff has fired (see :meth:`step`)."""
        return self._stop_reason is not None

    @property
    def stop_reason(self) -> str | None:
        """Why the search stopped, or ``None`` while it can still step."""
        return self._stop_reason

    @property
    def generation(self) -> int:
        """Index of the last completed generation (0 after :meth:`start`)."""
        return self._generation

    @property
    def distinct_evaluations(self) -> int:
        """Distinct designs evaluated so far (synthesis jobs paid)."""
        return self._counter.distinct_evaluations

    @property
    def latest_health(self) -> dict[str, Any] | None:
        """The last ``health`` event's payload (built on read), or ``None``
        before one is emitted; surfaced by campaign status and ``nautilus
        top``."""
        event = self._health_event
        return event.payload if event is not None else None

    @property
    def best_score(self) -> float | None:
        """Best internal score so far, or ``None`` before any evaluation."""
        if self._best is None:
            return None
        return self._best.score

    @property
    def stack(self) -> EvaluationStack:
        """The evaluation stack this search charges its synthesis jobs to."""
        return self._counter

    def eval_stats(self) -> EvalStats:
        """Snapshot of the evaluation pipeline's counters and timers."""
        return self._counter.stats()

    @property
    def guidance(self) -> GuidanceProvider | None:
        """The guidance provider steering this search, if any."""
        return self._guidance

    @property
    def records(self) -> list[GenerationRecord]:
        """Per-generation records, oldest first (copy)."""
        return list(self._records)

    def attach_sink(self, sink: TraceSink) -> None:
        """Subscribe a sink to every event emitted from now on."""
        self._trace.attach(sink)

    def operator_timings(self) -> dict[str, dict[str, float]]:
        """Cumulative per-operator call counts and wall time (copy)."""
        return _copy_timings(self._operators)

    @property
    def tracer(self) -> SpanRecorder | None:
        """The span recorder, or ``None`` when tracing is off."""
        return self._tracer

    def spans(self) -> list[dict[str, Any]]:
        """Every span recorded so far as JSON-ready dicts (empty when
        tracing is off)."""
        if self._tracer is None:
            return []
        return self._tracer.export()

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        """Initialize the run; returns the generation-0 record (or ``None``
        for engines without one, like the random baseline)."""
        if self.started:
            raise NautilusError("search already started")
        self.rng = random.Random(self.seed)
        if self._tracer is not None:
            self._run_span = self._tracer.begin(
                "run", label=self.label, seed=self.seed
            )
        return self._do_start()

    def step(self):
        """Advance one generation; return its record, or ``None`` when done.

        Cutoffs are checked on entry, in the documented precedence order
        (budget, horizon, stall): the step *after* the generation that
        triggered a cutoff returns ``None`` and pins :attr:`stop_reason`.
        """
        if not self.started:
            raise NautilusError("call start() before step()")
        if self.finished:
            return None
        reason = self._cutoff()
        if reason is not None:
            self._finish(reason)
            return None
        return self._do_step()

    def run(self) -> SearchResult:
        """Run until a cutoff fires and return the result.

        Thin loop over :meth:`start` / :meth:`step` — stepping incrementally
        yields exactly this result.
        """
        if not self.started:
            self.start()
        while self.step() is not None:
            pass
        return self.result()

    def stop(self, reason: str = "cancelled") -> None:
        """Pin a terminal stop reason (no-op if a cutoff already fired)."""
        if not self.finished:
            self._finish(reason)

    def result(self) -> SearchResult:
        """Package the search state reached so far into a :class:`SearchResult`
        (of the engine's result type).

        Callable at any point after :meth:`start` — a scheduler that cancels
        a campaign mid-flight still gets the best-so-far and its curve. A
        result taken before any cutoff fired reports ``"cancelled"``.
        """
        if self._best is None:
            raise NautilusError("search has not started")
        return self._result_type(
            self.objective,
            self.records,
            self._best,
            self._counter.distinct_evaluations,
            label=self.label,
            stop_reason=self._stop_reason or "cancelled",
            eval_stats=self._counter.stats(),
            operator_timings=self._operators,
            **self._result_fields(),
        )

    def _result_fields(self) -> dict[str, Any]:
        """The fields :attr:`_result_type` adds to a :class:`SearchResult`."""
        return {}

    # -- kernel plumbing ---------------------------------------------------------

    def _cutoff(self) -> str | None:
        """First stopping cutoff due, in the documented precedence order."""
        if (
            self.max_evaluations is not None
            and self._counter.distinct_evaluations >= self.max_evaluations
        ):
            return "budget"
        if self.horizon is not None and self._generation >= self.horizon:
            return "horizon"
        if (
            self.stall_generations is not None
            and self._stalled_generations >= self.stall_generations
        ):
            return "stall"
        return None

    def _charge_operator(self, operator: str, calls, time_s) -> None:
        """Add one generation's calls and seconds of ``operator`` to the
        run's totals."""
        entry = self._operators.setdefault(operator, {"calls": 0, "time_s": 0.0})
        entry["calls"] += int(calls)
        entry["time_s"] += float(time_s)

    def _finish(self, reason: str) -> None:
        self._stop_reason = reason
        self._trace.emit("stop", self._generation, {"reason": reason})
        if self._tracer is not None and self._run_span is not None:
            self._tracer.end(
                self._run_span, generations=self._generation, stop_reason=reason
            )

    def _push_record(self, record: GenerationRecord) -> GenerationRecord:
        """Append a record and emit its generation-end event."""
        self._records.append(record)
        self._trace.emit(
            "generation-end",
            record.generation,
            {f: getattr(record, f) for f in _RECORD_FIELDS},
        )
        return record

    def _replay_record(self, payload: dict[str, Any]) -> None:
        """Re-seed the history with a checkpointed generation (its events
        reached the sinks before the interruption; none is emitted)."""
        self._records.append(
            GenerationRecord(**{f: payload[f] for f in _RECORD_FIELDS})
        )

    # -- engine hooks ------------------------------------------------------------

    def _do_start(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _do_step(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        """Release files the search holds open (a no-op unless it
        checkpoints); a later journal line reopens them."""


#: The score of an infeasible offspring.
_INFEASIBLE = float("-inf")


def _health_payload(
    codes, cardinalities, best_history, stalled, patience, batch_size,
    batch_infeasible,
) -> dict[str, Any]:
    """A deferred ``health`` event's payload, from the inputs
    :meth:`GenerationalEngine._emit_health` captured."""
    return population_health(
        codes,
        cardinalities=cardinalities,
        best_history=best_history,
        stalled_generations=stalled,
        stall_patience=patience,
        batch_size=batch_size,
        batch_infeasible=batch_infeasible,
    )


def _attribution_payload(
    children, scores, confidence, hinted, importance
) -> dict[str, Any]:
    """A deferred ``hint-attribution`` event's payload: the bred
    children's provenance joined with their scores."""
    return summarize_generation(
        children,
        [(score, score != _INFEASIBLE) for score in scores],
        confidence=confidence,
        hinted=hinted,
        effective_importance=importance,
    )


class GenerationalEngine(SearchKernel):
    """A kernel specialization for population-based generational searches.

    The loop is fixed — propose offspring through an operator pipeline,
    evaluate them as one batch, pick survivors, observe progress, record —
    and each stage is a hook: :meth:`_initial_genomes`, :meth:`_elites`,
    :meth:`_individual`, :meth:`_survivors` and :meth:`_observe_start`
    / :meth:`_observe`. The record, the guidance feedback and the
    attribution scores read each individual through :meth:`_scalar`. A
    population is a list of individuals.

    The constructor does the setup every generational engine shares: the
    guidance provider (``hints`` is shorthand for
    ``guidance=StaticHints(hints)``; the two are mutually exclusive) bound
    to the space and to ``bind_objective``, the operators, and the
    breeding pipeline over ``selection`` and :meth:`_scalar`.
    ``config`` is a :class:`~repro.core.engine.GAConfig`.

    With ``checkpoint_path`` the engine journals itself (format in
    :mod:`repro.core.checkpoint`): one line after every generation step
    (generation 0 rides in generation 1's line), a compaction into one
    line when a cutoff fires, and :meth:`resume` to continue from a
    journal. Without it, :meth:`resume` still loads a journal given by
    path, and nothing is written.
    """

    def __init__(
        self,
        space,
        evaluator,
        objective: Objective,
        config,
        *,
        label: str,
        selection: Callable,
        bind_objective: Objective | None,
        hints: HintSet | None = None,
        guidance: GuidanceProvider | None = None,
        checkpoint_path: str | Path | None = None,
        clock: Callable[[], float] | None = None,
    ):
        if hints is not None and guidance is not None:
            raise NautilusError(
                "pass either hints or a guidance provider, not both"
            )
        self.config = config
        super().__init__(
            space,
            evaluator,
            objective,
            label=label,
            seed=config.seed,
            max_evaluations=config.max_evaluations,
            horizon=config.generations,
            stall_generations=config.stall_generations,
            observability=config.observability,
            tracing=config.tracing,
            clock=clock,
        )
        provider = guidance if guidance is not None else (
            StaticHints(hints) if hints is not None else None
        )
        if provider is not None:
            # Binding validates the hints against the space and, given an
            # objective, orients author biases (stated w.r.t. the raw
            # metric) for minimization.
            provider.bind(space, bind_objective, self._counter)
        self._guidance = provider
        self.operators = GeneticOperators(space, config.mutation_rate)
        #: Domain size per param, in code-vector order (for ``health``).
        self._cardinalities = {p.name: p.cardinality for p in space.params}
        self.pipeline = BreedingPipeline(
            space,
            self.operators,
            selection,
            config.crossover_rate,
            clock=self._clock,
            score=self._scalar,
        )
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._journal = (
            CheckpointJournal(self.checkpoint_path)
            if self.checkpoint_path is not None
            else None
        )
        self._resume_from: SearchCheckpoint | None = None
        self._resume_rng: random.Random | None = None
        #: Watermarks: memo rows and records already in the journal.
        self._rows_journaled = 0
        self._records_journaled = 0

    @property
    def hints(self) -> HintSet | None:
        """The hint set in force (oriented for the objective it was bound
        to), or None on an unguided run."""
        return self._guidance.hints if self._guidance is not None else None

    def _do_start(self) -> GenerationRecord:
        if self._resume_from is not None:
            return self._restore()
        tr = self._tracer
        gen_span = (
            tr.begin("generation", parent=self._run_span, generation=0)
            if tr is not None
            else None
        )
        self._guidance_state = (
            self._guidance.start()
            if self._guidance is not None
            else GuidanceState.neutral(0)
        )
        t0 = self._clock()
        genomes = self._initial_genomes()
        t1 = self._clock()
        self._charge_operator("init", len(genomes), t1 - t0)
        if tr is not None:
            # Phase spans tile the generation window edge to edge via
            # shared boundary timestamps, so the phase budget covers the
            # wall-clock by construction. The first phase is the measured
            # window from the generation's start to its evaluation: "init"
            # here (the guidance start besides sampling), "breed" in later
            # generations (the guidance advance and the operators, which
            # operator_timings() splits).
            phases = self._begin_evaluate(gen_span, "init", t1)
        self._population = self._assess_population(genomes, 0)
        if tr is not None:
            b2 = self._clock()
            tr.end(self._eval_phase, at=b2)
            self._eval_phase = None
        self._generation = 0
        self._observe_start()
        record = self._make_record(0)
        self._best_window.append(record.best_score)
        self._emit_health(0)
        self._push_record(record)
        if tr is not None:
            b3 = self._clock()
            phases.append(
                tr.record("phase", b2, b3, parent=gen_span, phase="observe")
            )
            tr.end(gen_span, at=b3)
            self._observe_phases(phases)
        return record

    def _do_step(self) -> GenerationRecord:
        generation = self._generation + 1
        tr = self._tracer
        gen_span = (
            tr.begin("generation", parent=self._run_span, generation=generation)
            if tr is not None
            else None
        )
        # The kernel — not the engines — advances guidance: exactly one
        # provider step per generation, fed the population's best score
        # before breeding (what the adaptive controller watches).
        self._guidance_state = (
            self._guidance.advance(generation, self._guidance_feedback())
            if self._guidance is not None
            else GuidanceState.neutral(generation)
        )
        timings: dict[str, list[float]] = {}
        bred = [] if self.observability else None
        genomes = self._propose(generation, timings, bred)
        for operator, (calls, time_s) in timings.items():
            self._charge_operator(operator, calls, time_s)
        if tr is not None:
            phases = self._begin_evaluate(gen_span, "breed", self._clock())
        offspring = self._assess_population(genomes, generation)
        if tr is not None:
            b2 = self._clock()
            tr.end(self._eval_phase, at=b2)
            self._eval_phase = None
        self._emit_attribution(generation, offspring, bred)
        self._population = self._survivors(offspring)
        improved = self._observe(generation)
        if improved:
            self._stalled_generations = 0
        else:
            self._stalled_generations += 1
        self._generation = generation
        record = self._make_record(generation)
        if improved:
            self._trace.emit(
                "best-improved",
                generation,
                {"best_raw": record.best_raw, "best_score": record.best_score},
            )
        self._best_window.append(record.best_score)
        self._emit_health(generation)
        self._push_record(record)
        if tr is not None:
            b3 = self._clock()
            phases.append(
                tr.record("phase", b2, b3, parent=gen_span, phase="observe")
            )
        if self._journal is not None:
            self._snapshot()
        if tr is not None:
            b4 = self._clock()
            phases.append(
                tr.record("phase", b3, b4, parent=gen_span, phase="checkpoint")
            )
            tr.end(gen_span, at=b4)
            self._observe_phases(phases)
        return record

    def _assess_population(self, genomes: Sequence[Genome], generation: int):
        """Score a whole generation through the stack's batch primitive.

        When the evaluator exposes a parallel backend the generation's new
        designs are evaluated concurrently — the population-sized
        parallelism the paper's Section 2 discusses. Results are identical
        to the sequential path. Emits one ``eval-batch`` event per batch;
        with tracing on, also one ``eval-batch`` span (under the evaluate
        phase) carrying per-task child spans stitched from the fleet.
        """
        tr = self._tracer
        batch_span = None
        if tr is not None:
            batch_span = tr.begin(
                "eval-batch", parent=self._eval_phase, size=len(genomes)
            )
            # Hand the span context to the evaluation stack so the fleet
            # backend can propagate it through the protocol frames (local
            # backends ignore it).
            self._counter.push_trace_context(
                {"trace": tr.trace_id, "parent": batch_span.span_id}
            )
        before = self._counter.stats()
        outcomes = self._counter.evaluate_many(genomes)
        delta = self._counter.stats().minus(before)
        self._last_batch = (len(genomes), delta.infeasible)
        payload = {
            "size": len(genomes),
            "distinct": delta.distinct,
            "cache_hits": delta.cache_hits,
            "infeasible": delta.infeasible,
            "wall_time_s": delta.wall_time_s,
        }
        # Backend-specific annotations (e.g. which fleet workers served the
        # batch); local backends return None and the payload is unchanged.
        extra = self._counter.pop_annotations()
        if extra:
            payload.update(extra)
        self._trace.emit("eval-batch", generation, payload)
        if tr is not None:
            tr.end(
                batch_span,
                distinct=delta.distinct,
                cache_hits=delta.cache_hits,
                infeasible=delta.infeasible,
            )
            self._materialize_eval_spans(
                batch_span, self._counter.pop_cache_writes()
            )
        return self._to_individuals(genomes, outcomes)

    def _finish(self, reason: str) -> None:
        super()._finish(reason)
        if self._journal is not None:
            self._compact()

    # -- checkpointing (format in repro.core.checkpoint) -------------------------

    def _cache_rows(self, start: int = 0) -> list[dict[str, Any]]:
        rows = []
        for (__, values), outcome in self._counter.memo_items(start):
            metrics = None if isinstance(outcome, Exception) else dict(outcome)
            rows.append({"values": list(values), "metrics": metrics})
        return rows

    def _checkpoint(self, cache, records) -> SearchCheckpoint:
        return SearchCheckpoint(
            space_name=self.space.name,
            generation=self._generation,
            population=[list(ind.genome.codes) for ind in self._population],
            params=list(self.space.param_names),
            rng_streams=_rng_payload(self.rng),
            records=[{f: getattr(r, f) for f in _RECORD_FIELDS} for r in records],
            cache=cache,
            stalled=self._stalled_generations,
            guidance=(
                self._guidance.state_dict() if self._guidance is not None else None
            ),
            eval_stats=self._counter.stats().counts(),
        )

    def _snapshot(self) -> None:
        """Append one journal line: the state plus what is new since the
        previous line."""
        rows = self._cache_rows(self._rows_journaled)
        records = self._records[self._records_journaled:]
        self._journal.append(self._checkpoint(rows, records))
        self._rows_journaled += len(rows)
        self._records_journaled += len(records)

    def _compact(self) -> None:
        """Replace the journal with one full line (tmp + replace)."""
        self._journal.close()
        checkpoint = self._checkpoint(self._cache_rows(), self._records)
        checkpoint.save(self.checkpoint_path)
        self._rows_journaled = len(checkpoint.cache)
        self._records_journaled = len(checkpoint.records)
        self._journal = CheckpointJournal(
            self.checkpoint_path, keep=self.checkpoint_path.stat().st_size
        )

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()

    def resume(self, path: str | Path | None = None):
        """Load a journal (default: ``checkpoint_path``); the next
        :meth:`start` continues from it.

        The evaluation cache and counters are restored immediately (so even
        pre-run lookups are free) and the generator's state is decoded (a
        damaged state raises :class:`NautilusError` here); population,
        generator and history take effect when the search starts. A journal
        with no complete line (killed during its first append) resumes
        nothing: the search starts fresh and overwrites it.
        """
        path = Path(path) if path is not None else self.checkpoint_path
        if path is None:
            raise NautilusError("resume() needs a path or a checkpoint_path")
        checkpoint = SearchCheckpoint.read(path)
        if checkpoint is None:
            return self
        if checkpoint.space_name != self.space.name:
            raise NautilusError(
                f"checkpoint is for space {checkpoint.space_name!r}, "
                f"not {self.space.name!r}"
            )
        if checkpoint.params is not None and tuple(checkpoint.params) != self.space.param_names:
            raise NautilusError(
                f"checkpoint parameter order {tuple(checkpoint.params)!r} does "
                f"not match space {self.space.name!r} parameters "
                f"{self.space.param_names!r}"
            )
        rng = _rng_from_payload(checkpoint.rng_streams)
        self._counter.preload(
            (self.space.genome(config), metrics)
            for config, metrics in checkpoint.cache_configs(self.space)
        )
        self._counter.restore_counts(checkpoint.eval_stats)
        if (
            self.checkpoint_path is not None
            and path.resolve() == self.checkpoint_path.resolve()
        ):
            # Continue this journal; everything restored is already in it.
            self._journal = CheckpointJournal(path, keep=checkpoint.end)
            self._rows_journaled = len(checkpoint.cache)
            self._records_journaled = len(checkpoint.records)
        self._resume_from = checkpoint
        self._resume_rng = rng
        return self

    def _restore(self) -> GenerationRecord:
        """Start from the journal :meth:`resume` loaded.

        The population, generator, history, best-so-far, the stall
        counter and the evaluation counters are all reconstituted, so the
        continued step sequence is exactly the run that would have happened
        without the interruption — including ``stall_generations`` cutoffs
        and :class:`~repro.core.evalstack.EvalStats`. The restored history
        emits no event (its events reached the sinks before the
        interruption), so the continued run's events start again at
        ``seq`` 0. Returns the record of the last completed generation.
        """
        checkpoint, self.rng = self._resume_from, self._resume_rng
        self._resume_from = self._resume_rng = None
        self._restore_population(checkpoint)
        for payload in checkpoint.records:
            self._replay_record(payload)
        self._generation = checkpoint.generation
        self._stalled_generations = checkpoint.stalled or 0
        if self._guidance is not None:
            if checkpoint.guidance is not None:
                self._guidance.load_state_dict(checkpoint.guidance)
            # Rebuild the in-force state for the checkpointed generation so
            # the next step's advance() continues the provider's sequence.
            self._guidance_state = self._guidance.peek(checkpoint.generation)
        else:
            self._guidance_state = GuidanceState.neutral(checkpoint.generation)
        records = self._records
        return records[-1] if records else self._make_record(self._generation)

    # -- tracing (see repro.obs.tracing; zero RNG draws by construction) ---------

    def _begin_evaluate(self, gen_span, label: str, at: float) -> list:
        """Record the generation's first phase, ``label`` (``init`` or
        ``breed``), from the generation's start to ``at``, and open its
        ``evaluate`` phase there; returns both spans, in order."""
        tr = self._tracer
        first = tr.record(
            "phase", gen_span.start_s, at, parent=gen_span, phase=label
        )
        self._eval_phase = tr.begin(
            "phase", parent=gen_span, at=at, phase="evaluate"
        )
        return [first, self._eval_phase]

    def _observe_phases(self, spans: list) -> None:
        """Observe a generation's phase spans into the stack registry's
        ``nautilus_phase_seconds`` histogram (when it has one). Each label
        occurs once per generation, so every observation equals the
        generation's row in :func:`~repro.obs.tracing.phase_budget`."""
        registry = self._counter.registry
        if registry is None:
            return
        histogram = registry.histogram(
            "nautilus_phase_seconds",
            "Wall-clock seconds per generation phase.",
            labelnames=("phase",),
        )
        for span in spans:
            histogram.observe(span.duration_s, phase=span.attrs["phase"])

    def _materialize_eval_spans(self, batch_span, writes: list) -> None:
        """Stitch fleet task timelines and the batch's cache ``writes``
        (:meth:`EvaluationStack.pop_cache_writes`) into the batch span.

        The coordinator reports each task's dispatch/retry/completion as
        *offsets relative to batch submission* (worker and coordinator
        clocks share no epoch with ours); anchoring those offsets at the
        batch span's start and clamping into its window guarantees child
        durations never exceed their parent. Retries and first-result-wins
        duplicates become children/attributes of the one owning task span.
        """
        tr = self._tracer
        lo, hi = batch_span.start_s, batch_span.end_s

        def _at(offset) -> float:
            return min(max(lo + float(offset), lo), hi)

        for trace in self._counter.pop_task_traces():
            events = trace.get("events") or []
            first = events[0]["offset_s"] if events else 0.0
            last = events[-1]["offset_s"] if events else 0.0
            task_span = tr.record(
                "task",
                _at(first),
                _at(last),
                parent=batch_span,
                task=trace.get("task", ""),
                worker=trace.get("worker", ""),
                attempts=int(trace.get("attempts", 1)),
                duplicate_results=int(trace.get("duplicates", 0)),
            )
            for i, event in enumerate(events):
                kind = event.get("event")
                start = _at(event.get("offset_s", 0.0))
                nxt = (
                    _at(events[i + 1].get("offset_s", 0.0))
                    if i + 1 < len(events)
                    else task_span.end_s
                )
                if kind == "dispatch":
                    tr.record(
                        "dispatch", start, nxt, parent=task_span,
                        worker=event.get("worker", ""),
                    )
                elif kind == "retry":
                    tr.record(
                        "retry", start, nxt, parent=task_span,
                        worker=event.get("worker", ""),
                        reason=event.get("reason", ""),
                    )
                elif kind == "done":
                    exec_s = float(event.get("exec_s", 0.0))
                    tr.record(
                        "worker-exec",
                        max(start - exec_s, lo),
                        start,
                        parent=task_span,
                        worker=event.get("worker", ""),
                        queue_s=float(event.get("queue_s", 0.0)),
                        exec_s=exec_s,
                    )
        for write in writes:
            duration = max(float(write.get("duration_s", 0.0)), 0.0)
            tr.record(
                "cache-write",
                max(hi - duration, lo),
                hi,
                parent=batch_span,
                entries=int(write.get("entries", 0)),
            )

    # -- observability (see repro.obs; draws nothing from the generator) --------

    # Both events are deferred (RunEvent.deferred): each captures only
    # flat, immutable inputs — tuples, numbers and the run's own mappings,
    # never the population, an Individual or the offspring list, whose
    # object graphs would stay alive with the event in a sink that keeps
    # it and be walked by the cyclic GC — and builds its payload on first
    # read.

    def _emit_attribution(
        self, generation: int, offspring: Sequence[Any], children: list | None
    ) -> None:
        """One ``hint-attribution`` event joining the provenance ``breed``
        recorded with the offspring's freshly computed scores (when a child
        was bred)."""
        if not children:
            return
        confidence, hinted, importance = self._attribution_context(generation)
        # The bred children close the offspring; copied elites lead it.
        bred = offspring[len(offspring) - len(children):]
        self._trace.emit(
            "hint-attribution",
            generation,
            build=partial(
                _attribution_payload,
                children,
                tuple(map(self._scalar, bred)),
                confidence,
                hinted,
                importance,
            ),
        )

    def _emit_health(self, generation: int) -> None:
        """One ``health`` event summarizing the surviving population."""
        if not self.observability or not self._population:
            return
        batch_size, batch_infeasible = self._last_batch
        self._health_event = self._trace.emit(
            "health",
            generation,
            build=partial(
                _health_payload,
                tuple(ind.genome.codes for ind in self._population),
                self._cardinalities,
                tuple(self._best_window),
                self._stalled_generations,
                self.stall_generations,
                batch_size,
                batch_infeasible,
            ),
        )

    def _attribution_context(
        self, generation: int
    ) -> tuple[float, bool, Mapping[str, float]]:
        """(confidence, hinted, effective importance) for the event.

        Read straight off the generation's :class:`GuidanceState` — the
        same channel provenance the operators acted on — rather than
        recomputed from a hint set.
        """
        state = self._guidance_state
        if state is None or state.hints is None:
            return 0.0, False, {}
        return state.confidence, True, state.effective_importance

    # -- what both generational engines share ------------------------------------

    def _guidance_feedback(self) -> float | None:
        """Best scalar score of the incoming population, fed to the
        provider's ``advance``."""
        if not self._population:
            return None
        return max(map(self._scalar, self._population))

    def _propose(
        self,
        generation: int,
        timings: dict[str, list[float]],
        bred: list[tuple] | None,
    ) -> list[Genome]:
        """The next generation's genomes: the elites, then children bred
        up to the population size (per-operator timings out, and each
        child's provenance into ``bred`` when it is a list).

        The whole generation is bred before any of it is scored —
        breeding never reads the offspring's fitness, so this equals
        assessing each child as it is bred, and it gives the stack
        population-sized batches to fan out.
        """
        genomes = [ind.genome for ind in self._elites()]
        genomes += self.pipeline.breed(
            self._population,
            self._guidance_state,
            self.rng,
            self.config.population_size - len(genomes),
            timings,
            bred,
        )
        return genomes

    def _to_individuals(
        self, genomes: Sequence[Genome], outcomes: Sequence[Any]
    ) -> list:
        """The engine's individuals for evaluation outcomes, in order: an
        :class:`InfeasibleDesignError` gives the engine's worst individual,
        and any other exception is raised."""
        individuals = []
        for genome, outcome in zip(genomes, outcomes):
            if isinstance(outcome, InfeasibleDesignError):
                outcome = None
            elif isinstance(outcome, Exception):
                raise outcome
            individuals.append(self._individual(genome, outcome))
        return individuals

    def _assess_all(self, genomes: Sequence[Genome]):
        """Score genomes from the memo alone — a resume's re-assessment of
        what its checkpoint restored. Counts nothing and pays nothing; a
        design the memo lacks raises :class:`NautilusError`."""
        return self._to_individuals(genomes, self._counter.recall(genomes))

    def _make_record(self, generation: int) -> GenerationRecord:
        """Summarize the current population into a record: the best so far
        and the mean of the population's finite scalar scores."""
        scores = map(self._scalar, self._population)
        finite = [score for score in scores if score != _INFEASIBLE]
        mean_score = sum(finite) / len(finite) if finite else _INFEASIBLE
        best = self._best
        return GenerationRecord(
            generation=generation,
            best_raw=best.raw,
            best_score=best.score,
            mean_score=mean_score,
            distinct_evaluations=self._counter.distinct_evaluations,
            best_config=best.genome.as_dict(),
        )

    def _restore_population(self, checkpoint: SearchCheckpoint) -> None:
        """Install a checkpoint's population, re-scored from the restored
        memo, and observe it as a fresh start does."""
        self._population = self._assess_all(
            checkpoint.population_genomes(self.space)
        )
        self._observe_start()

    # -- hooks -------------------------------------------------------------------

    @staticmethod
    def _scalar(individual) -> float:
        """The one score of an individual that the record, the guidance
        feedback and the attribution read."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _initial_genomes(self) -> list[Genome]:
        """The generation-0 population, drawn from the generator."""
        return self.space.random_population(self.config.population_size, self.rng)

    def _elites(self) -> Sequence[Any]:
        """Individuals copied unchanged into the next generation."""
        return ()

    def _individual(self, genome: Genome, metrics: Mapping[str, float] | None):
        """The engine's individual for one evaluated genome; ``metrics`` is
        ``None`` for an infeasible design, which gets the worst scores."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _survivors(self, offspring):
        """Environmental selection: the population after this generation."""
        return offspring

    def _observe_start(self) -> None:
        """Initialize best-so-far tracking from the initial population."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _observe(self, generation: int) -> bool:
        """Update best-so-far from the new population; True if improved."""
        raise NotImplementedError  # pragma: no cover - abstract
