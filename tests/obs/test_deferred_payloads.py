"""Deferred telemetry: ``health`` and ``hint-attribution`` payloads are
built on first read, and read the same bytes as payloads built at emit
time.

A run whose events nobody reads must call neither ``population_health``
nor ``summarize_generation`` (looked up, as the kernel does, in
``repro.core.kernel``); reading an event builds its payload once, and a
second read builds nothing. Payloads read after the run must equal, byte
for byte, the payloads a sink read at emit time in an identical run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel
from repro.core import (
    AdaptiveConfidence,
    BoolParam,
    CallableEvaluator,
    ChoiceParam,
    DesignSpace,
    GAConfig,
    GeneticSearch,
    HintSet,
    InfeasibleDesignError,
    IntParam,
    ParamHints,
    ParetoSearch,
    RecordingTraceSink,
    TraceSink,
    maximize,
    minimize,
)
from repro.core.fileio import dumps

from ..conftest import run_recorded

ENGINES = ("baseline", "nautilus", "adaptive", "pareto")
DEFERRED = ("health", "hint-attribution")

SPACE = DesignSpace(
    "deferred",
    [
        IntParam("a", 0, 15),
        IntParam("b", 0, 7),
        ChoiceParam("c", ("x", "y", "z")),
        BoolParam("d"),
    ],
)


def _metrics(genome):
    # Some designs are infeasible, so -inf scores reach the attribution.
    if genome["a"] == 13 and genome["d"]:
        raise InfeasibleDesignError("a=13 with d")
    bonus = {"x": 0, "y": 3, "z": 6}[genome["c"]]
    return {
        "m": genome["a"] + 2 * genome["b"] + bonus + 4 * genome["d"],
        "cost": genome["a"] * genome["b"] + bonus,
    }


def _hints():
    return HintSet(
        {
            "a": ParamHints(importance=80, bias=0.7),
            "b": ParamHints(importance=60, target=6),
        },
        confidence=0.8,
    )


def _search(engine: str, seed: int):
    config = GAConfig(generations=12, population_size=12, seed=seed)
    evaluator = CallableEvaluator(_metrics)
    if engine == "pareto":
        return ParetoSearch(
            SPACE, evaluator, (maximize("m"), minimize("cost")), config,
            hints=_hints(),
        )
    if engine == "baseline":
        return GeneticSearch(SPACE, evaluator, maximize("m"), config)
    if engine == "nautilus":
        return GeneticSearch(
            SPACE, evaluator, maximize("m"), config, hints=_hints()
        )
    return GeneticSearch(
        SPACE, evaluator, maximize("m"), config,
        guidance=AdaptiveConfidence(_hints(), patience=2),
    )


class _EagerSink(TraceSink):
    """Reads every event's payload the moment it is emitted."""

    def __init__(self):
        self.lines: list[tuple[str, str]] = []

    def emit(self, event) -> None:
        self.lines.append((event.kind, dumps(event.as_dict())))


def _deferred_lines(lines: list[tuple[str, str]]) -> list[str]:
    return [line for kind, line in lines if kind in DEFERRED]


class _Builds:
    """Counting wrappers on the names the kernel's builders look up."""

    def __init__(self, monkeypatch):
        self.health = 0
        self.attribution = 0
        health, summarize = kernel.population_health, kernel.summarize_generation

        def counted_health(*args, **kwargs):
            self.health += 1
            return health(*args, **kwargs)

        def counted_summarize(*args, **kwargs):
            self.attribution += 1
            return summarize(*args, **kwargs)

        monkeypatch.setattr(kernel, "population_health", counted_health)
        monkeypatch.setattr(kernel, "summarize_generation", counted_summarize)

    @property
    def counts(self) -> tuple[int, int]:
        return self.health, self.attribution


@settings(max_examples=12, deadline=None)
@given(engine=st.sampled_from(ENGINES), seed=st.integers(0, 10_000))
def test_deferred_payloads_equal_payloads_read_at_emit(engine, seed):
    eager_search = _search(engine, seed)
    sink = _EagerSink()
    eager_search.attach_sink(sink)
    __, eager_events = run_recorded(eager_search)

    __, events = run_recorded(_search(engine, seed))
    later = [(event.kind, dumps(event.as_dict())) for event in events]

    assert _deferred_lines(later) == _deferred_lines(sink.lines)
    assert _deferred_lines(later), "the run must emit deferred events"
    # Every other event keeps its kind, generation and place in the trace.
    assert [(e.seq, e.kind, e.generation) for e in events] == [
        (e.seq, e.kind, e.generation) for e in eager_events
    ]


def test_run_builds_nothing_and_each_payload_once(monkeypatch):
    for engine in ENGINES:
        builds = _Builds(monkeypatch)
        result, events = run_recorded(_search(engine, seed=7))
        assert builds.counts == (0, 0), engine

        kinds = [event.kind for event in events]
        first = [event.payload for event in events]
        assert builds.counts == (
            kinds.count("health"), kinds.count("hint-attribution")
        ), engine
        second = [event.payload for event in events]
        assert builds.counts == (
            kinds.count("health"), kinds.count("hint-attribution")
        ), engine
        assert all(a is b for a, b in zip(first, second))
        # One attribution event per bred generation, one health per batch.
        assert kinds.count("hint-attribution") == result.records[-1].generation
        assert kinds.count("health") == kinds.count("eval-batch")


def test_latest_health_is_the_last_health_payload(monkeypatch):
    for engine in ENGINES:
        builds = _Builds(monkeypatch)
        search = _search(engine, seed=3)
        assert search.latest_health is None
        __, events = run_recorded(search)
        health = search.latest_health
        assert builds.health == 1, engine
        last = [e for e in events if e.kind == "health"][-1]
        assert last.payload is health
        assert builds.health == 1, engine


def test_observability_off_captures_nothing(monkeypatch):
    builds = _Builds(monkeypatch)
    search = GeneticSearch(
        SPACE, CallableEvaluator(_metrics), maximize("m"),
        GAConfig(generations=5, seed=1, observability=False), hints=_hints(),
    )
    __, events = run_recorded(search)
    assert search.latest_health is None
    assert not [e for e in events if e.kind in DEFERRED]
    assert builds.counts == (0, 0)


def test_a_sink_that_keeps_events_does_not_build_them(monkeypatch):
    builds = _Builds(monkeypatch)
    search = _search("nautilus", seed=5)
    sink = RecordingTraceSink(limit=None)
    search.attach_sink(sink)
    search.run()
    assert builds.counts == (0, 0)
    # The sink holds the whole trace, and its deferred events read back
    # the bytes a sink read at emit time in an identical run.
    eager = _EagerSink()
    twin = _search("nautilus", seed=5)
    twin.attach_sink(eager)
    twin.run()
    kept = [(e.kind, dumps(e.as_dict())) for e in sink.events()]
    assert [kind for kind, __ in kept] == [kind for kind, __ in eager.lines]
    assert _deferred_lines(kept) == _deferred_lines(eager.lines)
