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

    def test_observer_attached_only_when_enabled(self, toy_space, toy_evaluator):
        on = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), _config(True)
        )
        off = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), _config(False)
        )
        assert on.operators.observer is not None
        assert off.operators.observer is None

    def test_adaptive_rebuild_keeps_observer(self, toy_space, toy_evaluator):
        search = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), _config(True),
            guidance=AdaptiveConfidence(_hints(), patience=2),
        )
        observer = search.operators.observer
        assert observer is not None
        search.run()
        # _set_confidence rebuilds the operators every generation; the
        # observer must ride along or attribution silently stops mid-run.
        assert search.operators.observer is observer
