"""Tests for mutate_feasible's attempts-exhaustion fallback.

In a constraint-dense space every mutation attempt can land infeasible;
the operator must then return the (feasible) input genome, report the
fallback through the observer, and consume exactly the RNG draws the
attempt loop implies — no more, no fewer — so seeded runs with and
without dense constraints stay replayable.
"""

import random

import pytest

from repro.core import (
    ChoiceParam,
    DesignSpace,
    GeneticOperators,
    GuidanceState,
    HintSet,
    IntParam,
    ParamHints,
)


class RecordingObserver:
    """Captures the operator-facing observer hooks, no behavior."""

    def __init__(self):
        self.attempted = []
        self.committed = []

    def mutation_attempted(self, mutations):
        self.attempted.append(list(mutations))

    def mutation_committed(self, attempts, fallback):
        self.committed.append((attempts, fallback))


@pytest.fixture
def dense_space():
    # Only a == 0 is feasible; a mutation (rate 1.0) always moves `a` to a
    # *different* value, so every attempt is infeasible.
    return DesignSpace(
        "dense",
        [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))],
        constraints=[lambda cfg: cfg["a"] == 0],
    )


class TestExhaustion:
    def test_fallback_returns_input_genome_object(self, dense_space):
        ops = GeneticOperators(dense_space, mutation_rate=1.0)
        genome = dense_space.genome({"a": 0, "c": "x"})
        result = ops.mutate_feasible(genome, None, random.Random(3))
        assert result is genome

    def test_fallback_reported_with_max_attempts(self, dense_space):
        ops = GeneticOperators(dense_space, mutation_rate=1.0)
        ops.observer = observer = RecordingObserver()
        genome = dense_space.genome({"a": 0, "c": "x"})
        ops.mutate_feasible(genome, None, random.Random(3))
        assert observer.committed == [(32, True)]
        # Every one of the 32 attempts reported its channels before the
        # exhaustion verdict.
        assert len(observer.attempted) == 32

    def test_custom_attempt_budget(self, dense_space):
        ops = GeneticOperators(dense_space, mutation_rate=1.0)
        ops.observer = observer = RecordingObserver()
        genome = dense_space.genome({"a": 0, "c": "x"})
        ops.mutate_feasible(genome, None, random.Random(3), max_attempts=5)
        assert observer.committed == [(5, True)]

    def test_exhaustion_consumes_exactly_the_attempt_draws(self, dense_space):
        """RNG parity: mutate_feasible == 32 bare mutate calls, draw for draw."""
        ops_a = GeneticOperators(dense_space, mutation_rate=1.0)
        ops_b = GeneticOperators(dense_space, mutation_rate=1.0)
        genome = dense_space.genome({"a": 0, "c": "x"})
        rng_a, rng_b = random.Random(9), random.Random(9)
        result = ops_a.mutate_feasible(genome, None, rng_a)
        for _ in range(32):
            ops_b.mutate(genome, None, rng_b)
        assert rng_a.getstate() == rng_b.getstate()
        assert result is genome

    def test_observer_attachment_consumes_no_draws(self, dense_space):
        plain = GeneticOperators(dense_space, mutation_rate=1.0)
        observed = GeneticOperators(dense_space, mutation_rate=1.0)
        observed.observer = RecordingObserver()
        genome = dense_space.genome({"a": 0, "c": "x"})
        rng_a, rng_b = random.Random(17), random.Random(17)
        plain.mutate_feasible(genome, None, rng_a)
        observed.mutate_feasible(genome, None, rng_b)
        assert rng_a.getstate() == rng_b.getstate()


class TestSuccessPath:
    def test_commit_reports_the_succeeding_attempt(self):
        # Constraints are pure (the space memoizes their verdicts), so the
        # seed picks the attempts: from a == 0 every attempt moves `a` to
        # 1, 2 or 3, and under seed 23 attempts 1-4 draw 1 or 2 (infeasible)
        # and attempt 5 draws 3 — the operator must commit on attempt 5
        # with fallback=False.
        space = DesignSpace(
            "top",
            [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))],
            constraints=[lambda cfg: cfg["a"] == 3],
        )
        ops = GeneticOperators(space, mutation_rate=1.0)
        ops.observer = observer = RecordingObserver()
        genome = space.genome({"a": 0, "c": "x"})
        result = ops.mutate_feasible(genome, None, random.Random(23))
        assert observer.committed == [(5, False)]
        assert result is not genome

    def test_first_attempt_success_on_unconstrained_space(self):
        space = DesignSpace(
            "free", [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))]
        )
        ops = GeneticOperators(space, mutation_rate=1.0)
        ops.observer = observer = RecordingObserver()
        genome = space.genome({"a": 0, "c": "x"})
        ops.mutate_feasible(genome, None, random.Random(3))
        assert observer.committed == [(1, False)]


class TestChannelAttribution:
    def _hinted_state(self, confidence):
        hints = HintSet(
            {"a": ParamHints(importance=80, bias=1.0)}, confidence=confidence
        )
        return GuidanceState.from_hints(hints, generation=0)

    def test_gate_lost_reports_fallback_channel(self):
        space = DesignSpace(
            "ch", [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))]
        )
        ops = GeneticOperators(space, mutation_rate=1.0)
        ops.observer = observer = RecordingObserver()
        genome = space.genome({"a": 0, "c": "x"})
        # Zero confidence: the directional gate always loses.
        ops.mutate(genome, self._hinted_state(confidence=0.0), random.Random(5))
        channels = dict(observer.attempted[0])
        assert channels["a"] == "fallback"
        assert channels["c"] == "uniform"

    def test_gate_won_reports_bias_channel(self):
        space = DesignSpace(
            "ch", [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))]
        )
        ops = GeneticOperators(space, mutation_rate=1.0)
        ops.observer = observer = RecordingObserver()
        genome = space.genome({"a": 0, "c": "x"})
        # Full confidence: the directional gate always wins.
        ops.mutate(genome, self._hinted_state(confidence=1.0), random.Random(5))
        channels = dict(observer.attempted[0])
        assert channels["a"] == "bias"

    def test_cardinality_one_reports_noop(self):
        space = DesignSpace(
            "one", [IntParam("a", 7, 7), ChoiceParam("c", ("x", "y"))]
        )
        ops = GeneticOperators(space, mutation_rate=1.0)
        ops.observer = observer = RecordingObserver()
        genome = space.genome({"a": 7, "c": "x"})
        ops.mutate(genome, None, random.Random(5))
        channels = dict(observer.attempted[0])
        assert channels["a"] == "noop"
