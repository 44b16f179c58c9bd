"""Tests for mutate_feasible's attempts-exhaustion fallback.

In a constraint-dense space every mutation attempt can land infeasible;
the operator must then return the (feasible) input genome, report the
fallback by returning ``None`` for the channel pairs, and consume exactly
the RNG draws the attempt loop implies — no more, no fewer — so seeded
runs with and without dense constraints stay replayable.
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


@pytest.fixture
def dense_space():
    # Only a == 0 is feasible; a mutation (rate 1.0) always moves `a` to a
    # *different* value, so every attempt is infeasible.
    return DesignSpace(
        "dense",
        [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))],
        constraints=[lambda cfg: cfg["a"] == 0],
    )


def _bare_attempts(space, genome, seed, attempts):
    """``attempts`` bare ``mutate`` calls: the generator after them and
    the last attempt's genome and channel pairs."""
    ops = GeneticOperators(space, mutation_rate=1.0)
    rng = random.Random(seed)
    for _ in range(attempts):
        channels = []
        mutated = ops.mutate(genome, None, rng, channels)
    return rng.getstate(), mutated, channels


class TestExhaustion:
    def test_fallback_returns_input_genome_object(self, dense_space):
        ops = GeneticOperators(dense_space, mutation_rate=1.0)
        genome = dense_space.genome({"a": 0, "c": "x"})
        result, mutations = ops.mutate_feasible(genome, None, random.Random(3))
        assert result is genome
        assert mutations is None

    def test_fallback_reported_with_max_attempts(self, dense_space):
        ops = GeneticOperators(dense_space, mutation_rate=1.0)
        genome = dense_space.genome({"a": 0, "c": "x"})
        rng = random.Random(3)
        result, mutations = ops.mutate_feasible(genome, None, rng, record=True)
        # A recorded fallback discards every attempt's channels.
        assert (result, mutations) == (genome, None)
        assert rng.getstate() == _bare_attempts(dense_space, genome, 3, 32)[0]

    def test_custom_attempt_budget(self, dense_space):
        ops = GeneticOperators(dense_space, mutation_rate=1.0)
        genome = dense_space.genome({"a": 0, "c": "x"})
        rng = random.Random(3)
        result, mutations = ops.mutate_feasible(
            genome, None, rng, max_attempts=5, record=True
        )
        assert result is genome and mutations is None
        assert rng.getstate() == _bare_attempts(dense_space, genome, 3, 5)[0]

    def test_exhaustion_consumes_exactly_the_attempt_draws(self, dense_space):
        """RNG parity: mutate_feasible == 32 bare mutate calls, draw for draw."""
        ops_a = GeneticOperators(dense_space, mutation_rate=1.0)
        ops_b = GeneticOperators(dense_space, mutation_rate=1.0)
        genome = dense_space.genome({"a": 0, "c": "x"})
        rng_a, rng_b = random.Random(9), random.Random(9)
        result, __ = ops_a.mutate_feasible(genome, None, rng_a)
        for _ in range(32):
            ops_b.mutate(genome, None, rng_b)
        assert rng_a.getstate() == rng_b.getstate()
        assert result is genome

    def test_recording_consumes_no_draws(self, dense_space):
        plain = GeneticOperators(dense_space, mutation_rate=1.0)
        recorded = GeneticOperators(dense_space, mutation_rate=1.0)
        genome = dense_space.genome({"a": 0, "c": "x"})
        rng_a, rng_b = random.Random(17), random.Random(17)
        plain.mutate_feasible(genome, None, rng_a)
        recorded.mutate_feasible(genome, None, rng_b, record=True)
        assert rng_a.getstate() == rng_b.getstate()


class TestSuccessPath:
    def test_commit_reports_the_succeeding_attempt(self):
        # Constraints are pure (the space memoizes their verdicts), so the
        # seed picks the attempts: from a == 0 every attempt moves `a` to
        # 1, 2 or 3, and under seed 23 attempts 1-4 draw 1 or 2 (infeasible)
        # and attempt 5 draws 3 — the operator must accept attempt 5 and
        # return its channel pairs.
        space = DesignSpace(
            "top",
            [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))],
            constraints=[lambda cfg: cfg["a"] == 3],
        )
        ops = GeneticOperators(space, mutation_rate=1.0)
        genome = space.genome({"a": 0, "c": "x"})
        rng = random.Random(23)
        result, mutations = ops.mutate_feasible(genome, None, rng, record=True)
        state, fifth, channels = _bare_attempts(space, genome, 23, 5)
        assert result is not genome
        assert result.codes == fifth.codes
        assert mutations == channels == [("a", "uniform"), ("c", "uniform")]
        assert rng.getstate() == state
        _, fourth, __ = _bare_attempts(space, genome, 23, 4)
        assert not space.is_feasible(fourth)

    def test_first_attempt_success_on_unconstrained_space(self):
        space = DesignSpace(
            "free", [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))]
        )
        ops = GeneticOperators(space, mutation_rate=1.0)
        genome = space.genome({"a": 0, "c": "x"})
        rng = random.Random(3)
        result, mutations = ops.mutate_feasible(genome, None, rng, record=True)
        state, first, channels = _bare_attempts(space, genome, 3, 1)
        assert result.codes == first.codes
        assert mutations == channels
        assert rng.getstate() == state

    def test_unrecorded_success_builds_no_channel_list(self):
        space = DesignSpace(
            "free", [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))]
        )
        ops = GeneticOperators(space, mutation_rate=1.0)
        genome = space.genome({"a": 0, "c": "x"})
        result, mutations = ops.mutate_feasible(genome, None, random.Random(3))
        assert result is not genome
        assert mutations == ()


class TestChannelAttribution:
    def _hinted_state(self, confidence):
        hints = HintSet(
            {"a": ParamHints(importance=80, bias=1.0)}, confidence=confidence
        )
        return GuidanceState.from_hints(hints, generation=0)

    def _channels(self, space, genome, guidance):
        ops = GeneticOperators(space, mutation_rate=1.0)
        channels = []
        ops.mutate(genome, guidance, random.Random(5), channels)
        return dict(channels)

    def test_gate_lost_reports_fallback_channel(self):
        space = DesignSpace(
            "ch", [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))]
        )
        genome = space.genome({"a": 0, "c": "x"})
        # Zero confidence: the directional gate always loses.
        channels = self._channels(
            space, genome, self._hinted_state(confidence=0.0)
        )
        assert channels["a"] == "fallback"
        assert channels["c"] == "uniform"

    def test_gate_won_reports_bias_channel(self):
        space = DesignSpace(
            "ch", [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))]
        )
        genome = space.genome({"a": 0, "c": "x"})
        # Full confidence: the directional gate always wins.
        channels = self._channels(
            space, genome, self._hinted_state(confidence=1.0)
        )
        assert channels["a"] == "bias"

    def test_cardinality_one_reports_noop(self):
        space = DesignSpace(
            "one", [IntParam("a", 7, 7), ChoiceParam("c", ("x", "y"))]
        )
        genome = space.genome({"a": 7, "c": "x"})
        channels = self._channels(space, genome, None)
        assert channels["a"] == "noop"
