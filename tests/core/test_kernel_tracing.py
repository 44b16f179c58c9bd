"""Kernel-level span tracing: structure, coverage, and bit-identity."""

import pytest

from repro.core import (
    EvaluationStack,
    GAConfig,
    GeneticSearch,
    ParetoSearch,
    RandomSearch,
    maximize,
    minimize,
)
from repro.obs import (
    FakeClock,
    MetricsRegistry,
    phase_budget,
    span_tree,
    validate_accounting,
)


def _run(toy_space, toy_evaluator, tracing, seed=5, generations=6, clock=None):
    search = GeneticSearch(
        toy_space,
        toy_evaluator,
        maximize("m"),
        GAConfig(seed=seed, generations=generations, tracing=tracing),
        clock=clock,
    )
    result = search.run()
    return search, result


class TestTracingFlag:
    def test_off_by_default_and_costless(self, toy_space, toy_evaluator):
        search, __ = _run(toy_space, toy_evaluator, tracing=False)
        assert search.tracer is None
        assert search.spans() == []

    def test_on_records_a_closed_tree(self, toy_space, toy_evaluator):
        search, __ = _run(toy_space, toy_evaluator, tracing=True)
        spans = search.spans()
        names = {span["name"] for span in spans}
        assert {"run", "generation", "phase", "eval-batch"} <= names
        assert all(span["end_s"] is not None for span in spans)
        (run,) = [s for s in spans if s["name"] == "run"]
        assert run["attrs"]["stop_reason"] == "horizon"

    def test_every_generation_has_its_span(self, toy_space, toy_evaluator):
        search, result = _run(toy_space, toy_evaluator, tracing=True)
        gens = [s for s in search.spans() if s["name"] == "generation"]
        recorded = sorted(s["attrs"]["generation"] for s in gens)
        assert recorded == list(range(len(result.records)))

    def test_accounting_closes(self, toy_space, toy_evaluator):
        search, __ = _run(toy_space, toy_evaluator, tracing=True)
        report = validate_accounting(search.spans())
        assert report["ok"], report["errors"]
        assert report["open_spans"] == 0

    def test_eval_batches_nest_under_evaluate_phase(
        self, toy_space, toy_evaluator
    ):
        search, __ = _run(toy_space, toy_evaluator, tracing=True)
        by_id, __tree = span_tree(search.spans())
        for span in search.spans():
            if span["name"] != "eval-batch":
                continue
            parent = by_id[span["parent"]]
            assert parent["name"] == "phase"
            assert parent["attrs"]["phase"] == "evaluate"


class TestPhaseCoverage:
    def test_phases_cover_generation_wall_clock(self, toy_space, toy_evaluator):
        search, __ = _run(toy_space, toy_evaluator, tracing=True)
        budget = phase_budget(search.spans())
        # Acceptance floor is 95%; the contiguous partition gives ~100%.
        assert budget["coverage"] >= 0.95
        for gen in budget["generations"]:
            assert gen["coverage"] >= 0.95

    def test_breed_window_splits_into_operator_phases(
        self, toy_space, toy_evaluator
    ):
        search, __ = _run(toy_space, toy_evaluator, tracing=True)
        budget = phase_budget(search.spans())
        # Generation 0 initializes; later generations breed.
        assert "init" in budget["generations"][0]["phases"]
        later = budget["generations"][1]["phases"]
        assert {"evaluate", "observe", "checkpoint"} <= set(later)
        assert set(later) & {"select", "crossover", "mutate"}

    def test_fake_clock_makes_durations_exact(self, toy_space, toy_evaluator):
        search, __ = _run(
            toy_space,
            toy_evaluator,
            tracing=True,
            clock=FakeClock(start=0.0, tick=1.0),
        )
        budget = phase_budget(search.spans())
        assert budget["coverage"] == pytest.approx(1.0)
        assert budget["wall_time_s"] > 0


class TestBitIdentity:
    def test_traced_run_matches_untraced(self, toy_space, toy_evaluator):
        __, traced = _run(toy_space, toy_evaluator, tracing=True, seed=11)
        __, plain = _run(toy_space, toy_evaluator, tracing=False, seed=11)
        assert traced.best_config == plain.best_config
        assert traced.curve() == plain.curve()
        assert traced.distinct_evaluations == plain.distinct_evaluations

    def test_random_search_traced_matches_untraced(
        self, toy_space, toy_evaluator
    ):
        def build(tracing):
            return RandomSearch(
                toy_space,
                toy_evaluator,
                maximize("m"),
                budget=60,
                seed=4,
                tracing=tracing,
            )

        traced, plain = build(True).run(), build(False).run()
        assert traced.best_config == plain.best_config
        assert traced.curve() == plain.curve()

    def test_phase_budget_event_emitted_only_when_tracing(
        self, toy_space, toy_evaluator
    ):
        from repro.core import RecordingTraceSink

        def events(tracing):
            sink = RecordingTraceSink(limit=None)
            search = GeneticSearch(
                toy_space,
                toy_evaluator,
                maximize("m"),
                GAConfig(seed=3, generations=4, tracing=tracing),
            )
            search.attach_sink(sink)
            search.run()
            return sink.events("phase-budget")

        traced = events(True)
        assert traced, "tracing runs must emit phase-budget events"
        for event in traced:
            assert event.payload["phases"]
            assert event.payload["coverage"] >= 0.95
            assert event.payload["wall_time_s"] >= 0
        assert events(False) == []


class TestPhaseBudgetFold:
    """Every ``phase-budget`` payload, and every ``nautilus_phase_seconds``
    observation, equals a fold over the whole span list: the generation's
    phase spans, by parent id, in creation order."""

    @pytest.mark.parametrize("engine", ["genetic", "pareto"])
    def test_payloads_equal_a_fold_over_every_span(
        self, toy_space, toy_evaluator, engine
    ):
        registry = MetricsRegistry()
        stack = EvaluationStack(toy_evaluator, registry=registry)
        config = GAConfig(seed=9, generations=15, tracing=True)
        # An uneven tick makes every duration an inexact float, so the
        # fold's order shows in the sums.
        clock = FakeClock(start=0.0, tick=0.0013)
        if engine == "genetic":
            search = GeneticSearch(
                toy_space, stack, maximize("m"), config, clock=clock
            )
        else:
            search = ParetoSearch(
                toy_space, stack, (maximize("m"), minimize("inverse")),
                config, clock=clock,
            )
        result = search.run()
        spans = search.tracer.spans()
        generations = {
            s.attrs["generation"]: s for s in spans if s.name == "generation"
        }
        budgets = [e for e in result.events if e.kind == "phase-budget"]
        assert [e.generation for e in budgets] == sorted(generations)
        observed: dict[str, list] = {}
        for event in budgets:
            gen_span = generations[event.generation]
            phases: dict[str, float] = {}
            for span in spans:
                if span.parent_id == gen_span.span_id and span.name == "phase":
                    label = str(span.attrs.get("phase", "?"))
                    phases[label] = phases.get(label, 0.0) + (
                        span.duration_s or 0.0
                    )
            wall = gen_span.duration_s or 0.0
            assert list(event.payload["phases"].items()) == list(phases.items())
            assert event.payload["wall_time_s"] == wall
            assert event.payload["coverage"] == (
                sum(phases.values()) / wall if wall > 0 else 1.0
            )
            for label, seconds in phases.items():
                total = observed.setdefault(label, [0.0, 0])
                total[0] += seconds
                total[1] += 1
        histogram = registry.histogram(
            "nautilus_phase_seconds", labelnames=("phase",)
        )
        assert observed
        for label, (seconds, count) in observed.items():
            snapshot = histogram.snapshot(phase=label)
            assert (snapshot["sum"], snapshot["count"]) == (seconds, count)
