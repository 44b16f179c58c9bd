"""Tests for the genetic operators, baseline and guided."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ChoiceParam,
    DesignSpace,
    GeneticOperators,
    GuidanceState,
    HintSet,
    IntParam,
    OrderedParam,
    ParamHints,
    single_point_crossover,
)


def state(hints, generation=0):
    """The GuidanceState a StaticHints provider would produce."""
    return GuidanceState.from_hints(hints, generation)


@pytest.fixture
def space():
    return DesignSpace(
        "ops",
        [
            IntParam("a", 0, 9),
            IntParam("b", 0, 9),
            OrderedParam("o", ("s", "m", "l")),
            ChoiceParam("c", ("p", "q")),
        ],
    )


class TestGeneRates:
    def test_baseline_uniform(self, space):
        ops = GeneticOperators(space, mutation_rate=0.1)
        rates = ops.gene_mutation_rates(GuidanceState.neutral())
        assert all(abs(r - 0.1) < 1e-12 for r in rates.values())

    def test_no_guidance_state_is_baseline(self, space):
        ops = GeneticOperators(space, mutation_rate=0.1)
        rates = ops.gene_mutation_rates(None)
        assert all(abs(r - 0.1) < 1e-12 for r in rates.values())

    def test_importance_preserves_expected_mutations(self, space):
        hints = HintSet(
            {"a": ParamHints(importance=100), "b": ParamHints(importance=1)},
            confidence=1.0,
        )
        ops = GeneticOperators(space, mutation_rate=0.1)
        rates = ops.gene_mutation_rates(state(hints))
        # Sum of rates == base rate * num params (expected mutations kept).
        assert abs(sum(rates.values()) - 0.1 * 4) < 0.02
        assert rates["a"] > rates["b"]

    def test_zero_confidence_is_baseline(self, space):
        hints = HintSet({"a": ParamHints(importance=100)}, confidence=0.0)
        ops = GeneticOperators(space, 0.1)
        rates = ops.gene_mutation_rates(state(hints))
        assert all(abs(r - 0.1) < 1e-12 for r in rates.values())

    def test_decay_flattens_rates_over_generations(self, space):
        hints = HintSet(
            {"a": ParamHints(importance=100)},
            confidence=1.0,
            importance_decay=0.1,
        )
        ops = GeneticOperators(space, 0.1)
        early = ops.gene_mutation_rates(state(hints, 0))["a"]
        late = ops.gene_mutation_rates(state(hints, 60))["a"]
        assert early > late
        assert abs(late - 0.1) < 0.02

    def test_invalid_mutation_rate(self, space):
        with pytest.raises(ValueError):
            GeneticOperators(space, mutation_rate=1.5)


class TestValueMutation:
    def test_baseline_changes_value(self, space):
        ops = GeneticOperators(space, 0.1)
        rng = random.Random(0)
        param = space.param("a")
        for _ in range(100):
            assert ops.mutate_value(param, 5, GuidanceState.neutral(), rng) != 5

    def test_strong_positive_bias_moves_up(self, space):
        hints = HintSet({"a": ParamHints(bias=1.0)}, confidence=1.0)
        ops = GeneticOperators(space, 0.1)
        rng = random.Random(0)
        param = space.param("a")
        ups = sum(
            ops.mutate_value(param, 4, state(hints), rng) > 4 for _ in range(200)
        )
        assert ups == 200

    def test_strong_negative_bias_moves_down(self, space):
        hints = HintSet({"a": ParamHints(bias=-1.0)}, confidence=1.0)
        ops = GeneticOperators(space, 0.1)
        rng = random.Random(0)
        param = space.param("a")
        downs = sum(
            ops.mutate_value(param, 4, state(hints), rng) < 4 for _ in range(200)
        )
        assert downs == 200

    def test_bias_at_boundary_clamps_to_no_op(self, space):
        # A converged gene re-proposes its value; the cached evaluator makes
        # that free — the "Nautilus lines stop earlier" mechanism.
        hints = HintSet({"a": ParamHints(bias=1.0)}, confidence=1.0)
        ops = GeneticOperators(space, 0.1)
        rng = random.Random(0)
        param = space.param("a")
        results = {ops.mutate_value(param, 9, state(hints), rng) for _ in range(100)}
        assert results == {9}

    def test_target_pulls_samples(self, space):
        hints = HintSet({"a": ParamHints(target=7)}, confidence=1.0)
        ops = GeneticOperators(space, 0.1)
        rng = random.Random(0)
        param = space.param("a")
        samples = [
            ops.mutate_value(param, 0, state(hints), rng) for _ in range(500)
        ]
        mean = sum(samples) / len(samples)
        assert 5.5 < mean <= 7.5
        # Stochasticity preserved: not every sample is the target itself.
        assert len(set(samples)) > 2

    def test_half_confidence_mixes_guided_and_uniform(self, space):
        hints = HintSet({"a": ParamHints(bias=1.0)}, confidence=0.5)
        ops = GeneticOperators(space, 0.1)
        rng = random.Random(0)
        param = space.param("a")
        downs = sum(
            ops.mutate_value(param, 8, state(hints), rng) < 8 for _ in range(400)
        )
        assert 50 < downs < 300  # some uniform draws go down

    def test_adaptive_confidence_override_wins(self, space):
        # GuidanceState carries the confidence in force, which an adaptive
        # provider may have backed off below the author's value.
        hints = HintSet({"a": ParamHints(bias=1.0)}, confidence=1.0)
        backed_off = GuidanceState.from_hints(hints, 0, confidence=0.0)
        ops = GeneticOperators(space, 0.1)
        rng = random.Random(0)
        param = space.param("a")
        # Zero effective confidence: pure uniform draws, some go down.
        downs = sum(
            ops.mutate_value(param, 8, backed_off, rng) < 8 for _ in range(200)
        )
        assert downs > 50

    def test_unordered_param_without_ordering_uniform(self, space):
        hints = HintSet({"c": ParamHints(importance=90)}, confidence=1.0)
        ops = GeneticOperators(space, 0.1)
        rng = random.Random(0)
        param = space.param("c")
        assert ops.mutate_value(param, "p", state(hints), rng) == "q"

    def test_ordering_hint_gives_axis_to_choice_param(self, space):
        hints = HintSet(
            {"c": ParamHints(bias=1.0, ordering=("p", "q"))}, confidence=1.0
        )
        ops = GeneticOperators(space, 0.1)
        rng = random.Random(0)
        param = space.param("c")
        assert all(
            ops.mutate_value(param, "p", state(hints), rng) == "q"
            for _ in range(50)
        )

    def test_single_value_param_unchanged(self):
        space = DesignSpace("one", [IntParam("a", 5, 5), IntParam("b", 0, 1)])
        ops = GeneticOperators(space, 0.1)
        assert (
            ops.mutate_value(
                space.param("a"), 5, GuidanceState.neutral(), random.Random(0)
            )
            == 5
        )


class TestGenomeMutation:
    def test_mutation_stays_in_domain(self, space, rng):
        ops = GeneticOperators(space, 0.5)
        genome = space.random_genome(rng)
        for _ in range(50):
            genome = ops.mutate(genome, GuidanceState.neutral(), rng)
            for param in space.params:
                assert param.contains(genome[param.name])

    def test_zero_rate_never_mutates(self, space, rng):
        ops = GeneticOperators(space, 0.0)
        genome = space.random_genome(rng)
        assert ops.mutate(genome, GuidanceState.neutral(), rng) == genome

    def test_mutate_feasible_respects_constraints(self, rng):
        space = DesignSpace(
            "cons",
            [IntParam("a", 0, 9), IntParam("b", 0, 9)],
            constraints=[lambda c: c["a"] <= c["b"]],
        )
        ops = GeneticOperators(space, 0.9)
        genome = space.genome(a=0, b=9)
        for _ in range(100):
            genome, __ = ops.mutate_feasible(genome, GuidanceState.neutral(), rng)
            assert genome["a"] <= genome["b"]


class TestCrossover:
    def test_single_point_prefix_suffix(self, space, rng):
        a = space.genome(a=0, b=0, o="s", c="p")
        b = space.genome(a=9, b=9, o="l", c="q")
        for _ in range(20):
            child = single_point_crossover(a, b, rng)
            picks = [
                0 if child[n] == a[n] else 1 for n in space.param_names
            ]
            # Once we switch to parent b we never switch back.
            assert picks == sorted(picks)


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**31 - 1),
    bias=st.floats(-1, 1),
    confidence=st.floats(0, 1),
)
def test_guided_mutation_always_in_domain_property(seed, bias, confidence):
    space = DesignSpace("prop", [IntParam("a", 0, 6), IntParam("b", 0, 6)])
    hints = HintSet({"a": ParamHints(bias=bias)}, confidence=confidence)
    ops = GeneticOperators(space, 0.5)
    rng = random.Random(seed)
    genome = space.random_genome(rng)
    for generation in range(10):
        genome = ops.mutate(genome, state(hints, generation), rng)
        assert 0 <= genome["a"] <= 6
        assert 0 <= genome["b"] <= 6
