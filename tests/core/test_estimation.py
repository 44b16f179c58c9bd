"""Tests for empirical hint estimation (the paper's 80-design sweep)."""

import pytest

from repro.core import (
    CallableEvaluator,
    ChoiceParam,
    DesignSpace,
    EvaluationStack,
    InfeasibleDesignError,
    IntParam,
    estimate_hints,
    maximize,
    minimize,
)
from repro.core.estimation import SweepObservation, _ranks


@pytest.fixture
def monotone_space():
    return DesignSpace(
        "mono",
        [
            IntParam("up", 0, 9),       # strongly increases metric
            IntParam("down", 0, 9),     # strongly decreases metric
            IntParam("flat", 0, 9),     # no effect
            ChoiceParam("cat", ("a", "b", "c")),  # unordered effect
        ],
    )


@pytest.fixture
def monotone_evaluator():
    return CallableEvaluator(
        lambda g: {"m": 10.0 * g["up"] - 4.0 * g["down"] + (g["cat"] == "b")}
    )


class TestEstimation:
    def test_bias_signs(self, monotone_space, monotone_evaluator):
        hints, used = estimate_hints(
            monotone_space, monotone_evaluator, maximize("m"), budget=60, seed=1
        )
        assert hints.params["up"].bias > 0.5
        assert hints.params["down"].bias < -0.5

    def test_importance_ranking(self, monotone_space, monotone_evaluator):
        hints, __ = estimate_hints(
            monotone_space, monotone_evaluator, maximize("m"), budget=60, seed=1
        )
        up = hints.params["up"].importance
        down = hints.params["down"].importance
        assert up > down
        flat = hints.params.get("flat")
        assert flat is None or flat.importance < down

    def test_unordered_param_gets_no_bias(self, monotone_space, monotone_evaluator):
        hints, __ = estimate_hints(
            monotone_space, monotone_evaluator, maximize("m"), budget=60, seed=1
        )
        if "cat" in hints.params:
            assert hints.params["cat"].bias == 0.0

    def test_budget_respected(self, monotone_space, monotone_evaluator):
        counter = EvaluationStack(monotone_evaluator)
        __, used = estimate_hints(
            monotone_space, counter, maximize("m"), budget=25, seed=1
        )
        assert used <= 25
        # All evals were routed through the provided evaluator.
        assert counter.distinct_evaluations <= 25

    def test_minimize_direction_biases_raw(self, monotone_space, monotone_evaluator):
        # Biases are derived w.r.t. the RAW metric regardless of direction;
        # the engine flips for minimization later.
        hints, __ = estimate_hints(
            monotone_space, monotone_evaluator, minimize("m"), budget=60, seed=1
        )
        assert hints.params["up"].bias > 0.5

    def test_handles_infeasible_points(self, monotone_space):
        def fn(genome):
            if genome["up"] == 5:
                raise InfeasibleDesignError("hole")
            return {"m": float(genome["up"])}

        hints, used = estimate_hints(
            monotone_space, CallableEvaluator(fn), maximize("m"), budget=40, seed=2
        )
        assert hints.params["up"].bias > 0.5

    def test_confidence_passthrough(self, monotone_space, monotone_evaluator):
        hints, __ = estimate_hints(
            monotone_space,
            monotone_evaluator,
            maximize("m"),
            budget=30,
            confidence=0.33,
            seed=3,
        )
        assert hints.confidence == 0.33


class TestSweepObservation:
    def test_spearman_perfect(self):
        obs = SweepObservation("p", [(i, float(i)) for i in range(5)])
        assert obs.spearman() == pytest.approx(1.0)

    def test_spearman_inverse(self):
        obs = SweepObservation("p", [(i, float(-i)) for i in range(5)])
        assert obs.spearman() == pytest.approx(-1.0)

    def test_spearman_flat(self):
        obs = SweepObservation("p", [(i, 1.0) for i in range(5)])
        assert obs.spearman() == 0.0

    def test_spearman_too_few_points(self):
        assert SweepObservation("p", [(0, 1.0)]).spearman() == 0.0

    def test_span(self):
        obs = SweepObservation("p", [(0, 1.0), (1, 4.0), (2, 2.0)])
        assert obs.span() == 3.0

    def test_ranks_with_ties(self):
        assert _ranks([10, 10, 20]) == [1.5, 1.5, 3.0]
