"""Tests for the adaptive-confidence extension: the generational GA
guided by an :class:`AdaptiveConfidence` provider."""

import pytest

from repro.core import (
    AdaptiveConfidence,
    CallableEvaluator,
    DesignSpace,
    GAConfig,
    GeneticSearch,
    HintSet,
    IntParam,
    NautilusError,
    ParamHints,
    maximize,
)


@pytest.fixture
def space():
    return DesignSpace("ad", [IntParam("a", 0, 31), IntParam("b", 0, 31)])


@pytest.fixture
def evaluator():
    return CallableEvaluator(lambda g: {"m": float(g["a"] + g["b"])})


def good_hints(confidence=0.8):
    return HintSet(
        {"a": ParamHints(bias=1.0), "b": ParamHints(bias=1.0)},
        confidence=confidence,
    )


def wrong_hints(confidence=0.8):
    return good_hints(confidence).for_minimization()  # flipped = misleading


def adaptive(space, evaluator, config=None, hints=None, label="", **policy):
    """The GA with adaptive confidence over ``hints`` (good by default)."""
    return GeneticSearch(
        space,
        evaluator,
        maximize("m"),
        config,
        guidance=AdaptiveConfidence(hints or good_hints(), **policy),
        label=label,
    )


class TestConstruction:
    def test_requires_hints(self):
        with pytest.raises(NautilusError, match="requires hints"):
            AdaptiveConfidence(None)

    @pytest.mark.parametrize(
        "kwargs",
        [{"patience": 0}, {"backoff": 1.5}, {"backoff": 0.0}, {"recovery": 0.5}],
    )
    def test_parameter_validation(self, space, evaluator, kwargs):
        with pytest.raises(NautilusError):
            adaptive(space, evaluator, **kwargs)

    def test_default_label(self, space, evaluator):
        assert adaptive(space, evaluator).label == "nautilus"
        labelled = adaptive(space, evaluator, label="nautilus-adaptive")
        assert labelled.label == "nautilus-adaptive"


class TestAdaptation:
    def test_confidence_never_exceeds_author_setting(self, space, evaluator):
        search = adaptive(
            space, evaluator, GAConfig(seed=1, generations=30), good_hints(0.7)
        )
        search.run()
        trace = search.guidance.confidence_trace
        assert trace
        assert all(c <= 0.7 + 1e-12 for _, c in trace)
        assert all(c >= search.guidance.min_confidence for _, c in trace)

    def test_wrong_hints_trigger_backoff(self, space, evaluator):
        search = adaptive(
            space,
            evaluator,
            GAConfig(seed=2, generations=60),
            wrong_hints(0.9),
            patience=3,
        )
        search.run()
        confidences = [c for _, c in search.guidance.confidence_trace]
        assert min(confidences) < 0.9 * 0.7  # backed off at least twice

    def test_still_finds_optimum_with_wrong_hints(self, space, evaluator):
        result = adaptive(
            space,
            evaluator,
            GAConfig(seed=3, generations=60),
            wrong_hints(0.9),
            patience=3,
        ).run()
        assert result.best_raw >= 58  # optimum is 62

    def test_matches_fixed_confidence_with_good_hints(self, space, evaluator):
        threshold = 60.0
        fixed_total = adaptive_total = 0
        for seed in range(6):
            config = GAConfig(seed=seed, generations=40)
            fixed = GeneticSearch(
                space, evaluator, maximize("m"), config, hints=good_hints()
            ).run()
            adapted = adaptive(space, evaluator, config).run()
            fixed_total += fixed.evals_to_reach(threshold) or 1000
            adaptive_total += adapted.evals_to_reach(threshold) or 1000
        # Good hints keep earning trust: adaptive stays within ~40% of fixed.
        assert adaptive_total <= 1.4 * fixed_total

    def test_trace_one_entry_per_generation(self, space, evaluator):
        search = adaptive(space, evaluator, GAConfig(seed=4, generations=25))
        search.run()
        generations = [g for g, _ in search.guidance.confidence_trace]
        assert generations == sorted(set(generations))
        assert len(generations) == 25
