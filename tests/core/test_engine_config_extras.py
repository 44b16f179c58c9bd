"""Tests for the auxiliary engine configuration surface."""

import pytest

from repro.core import (
    CallableEvaluator,
    DesignSpace,
    GAConfig,
    GeneticSearch,
    IntParam,
    NautilusError,
    maximize,
)


@pytest.fixture
def space():
    return DesignSpace("cfg", [IntParam("a", 0, 31), IntParam("b", 0, 31)])


@pytest.fixture
def evaluator():
    return CallableEvaluator(lambda g: {"m": float(g["a"] + g["b"])})


class TestCrossoverAndSelectionVariants:
    def test_zero_crossover_rate_is_mutation_only(self, space, evaluator):
        result = GeneticSearch(
            space,
            evaluator,
            maximize("m"),
            GAConfig(seed=2, generations=15, crossover_rate=0.0),
        ).run()
        assert result.best_raw >= 40.0

    def test_zero_elitism_allowed(self, space, evaluator):
        result = GeneticSearch(
            space,
            evaluator,
            maximize("m"),
            GAConfig(seed=3, generations=15, elitism=0),
        ).run()
        # Best-so-far tracking keeps the reported curve monotone even when
        # the population itself can regress.
        bests = [r.best_raw for r in result.records]
        assert bests == sorted(bests)

    def test_budget_validation(self):
        with pytest.raises(NautilusError):
            GAConfig(max_evaluations=0)

    def test_labels_default_by_hints(self, space, evaluator):
        from repro.core import HintSet, ParamHints

        baseline = GeneticSearch(space, evaluator, maximize("m"))
        guided = GeneticSearch(
            space,
            evaluator,
            maximize("m"),
            hints=HintSet({"a": ParamHints(bias=1.0)}),
        )
        assert baseline.label == "baseline"
        assert guided.label == "nautilus"
