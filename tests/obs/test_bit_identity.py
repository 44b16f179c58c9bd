"""Telemetry must never perturb the search: observability on == off.

The engine-parity CI job checks this on the real datasets; these tests pin
the same invariant on the toy space for every engine family, so a kernel
edit that makes instrumentation consume RNG fails fast in the unit suite.
"""

from repro.core import (
    AdaptiveConfidence,
    GAConfig,
    GeneticSearch,
    HintSet,
    ParamHints,
    ParetoSearch,
    maximize,
    minimize,
)

from ..conftest import run_recorded


def _hints():
    return HintSet(
        {"a": ParamHints(importance=80, bias=0.7)}, confidence=0.8
    )


def _curve(result):
    return [
        (r.generation, r.distinct_evaluations, r.best_raw, r.best_score)
        for r in result.records
    ]


def _config(observability):
    return GAConfig(generations=10, seed=4, observability=observability)


class TestBitIdentity:
    def test_genetic_search(self, toy_space, toy_evaluator):
        curves = {}
        for enabled in (True, False):
            search = GeneticSearch(
                toy_space, toy_evaluator, maximize("m"),
                _config(enabled), hints=_hints(),
            )
            curves[enabled] = _curve(search.run())
        assert curves[True] == curves[False]

    def test_adaptive_search(self, toy_space, toy_evaluator):
        curves = {}
        for enabled in (True, False):
            search = GeneticSearch(
                toy_space, toy_evaluator, maximize("m"), _config(enabled),
                guidance=AdaptiveConfidence(_hints(), patience=2),
            )
            result = search.run()
            curves[enabled] = (_curve(result), search.guidance.confidence_trace)
        assert curves[True] == curves[False]

    def test_pareto_search(self, toy_space, toy_evaluator):
        outcomes = {}
        for enabled in (True, False):
            search = ParetoSearch(
                toy_space,
                toy_evaluator,
                (maximize("m"), minimize("inverse")),
                _config(enabled),
            )
            result = search.run()
            outcomes[enabled] = (
                _curve(result),
                sorted(map(tuple, result.front_raws())),
            )
        assert outcomes[True] == outcomes[False]

    def test_breed_gets_a_list_only_when_enabled(self, toy_space, toy_evaluator):
        received = {}
        for enabled in (True, False):
            search = GeneticSearch(
                toy_space, toy_evaluator, maximize("m"), _config(enabled)
            )
            breed = search.pipeline.breed
            calls = received[enabled] = []

            def spy(population, guidance, rng, count, timings, bred, breed=breed,
                    calls=calls):
                calls.append(bred)
                return breed(population, guidance, rng, count, timings, bred)

            search.pipeline.breed = spy
            search.run()
        assert len(received[True]) == len(received[False]) == 10
        assert all(type(bred) is list and bred for bred in received[True])
        assert received[False] == [None] * 10

    def test_adaptive_run_attributes_every_bred_generation(
        self, toy_space, toy_evaluator
    ):
        config = _config(True)
        search = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), config,
            guidance=AdaptiveConfidence(_hints(), patience=2),
        )
        events = [
            e for e in run_recorded(search)[1] if e.kind == "hint-attribution"
        ]
        # Confidence moves between generations; attribution must not stop.
        assert len(set(search.guidance.confidence_trace)) > 1
        assert [e.generation for e in events] == list(range(1, 11))
        bred = config.population_size - config.elitism
        assert all(e.payload["children"] == bred for e in events)
