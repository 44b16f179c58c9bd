"""Tests for roulette-wheel parent selection."""

import random

import pytest

from repro.core import DesignSpace, Individual, IntParam, roulette_selection


@pytest.fixture
def space():
    return DesignSpace("sel", [IntParam("a", 0, 99)])


def make_population(space, scores):
    return [
        Individual(space.genome(a=i), score, score) for i, score in enumerate(scores)
    ]


@pytest.mark.parametrize("select", [roulette_selection])
class TestCommonBehaviour:
    def test_prefers_better(self, select, space):
        population = make_population(space, [1.0, 2.0, 50.0])
        rng = random.Random(0)
        picks = [select(population, rng).score for _ in range(600)]
        assert picks.count(50.0) > picks.count(1.0)

    def test_single_individual(self, select, space):
        population = make_population(space, [3.0])
        assert select(population, random.Random(0)).score == 3.0

    def test_returns_member(self, select, space):
        population = make_population(space, [1.0, 2.0, 3.0, 4.0])
        rng = random.Random(1)
        for _ in range(50):
            assert select(population, rng) in population


class TestRouletteEdgeCases:
    def test_all_infeasible_uniform(self, space):
        population = make_population(space, [float("-inf")] * 4)
        rng = random.Random(0)
        picks = {id(roulette_selection(population, rng)) for _ in range(100)}
        assert len(picks) > 1

    def test_infeasible_never_selected_among_feasible(self, space):
        population = make_population(space, [float("-inf"), 1.0, 5.0])
        rng = random.Random(0)
        for _ in range(200):
            assert roulette_selection(population, rng).score != float("-inf")

    def test_identical_scores_uniform(self, space):
        population = make_population(space, [2.0, 2.0, 2.0])
        rng = random.Random(0)
        picks = {id(roulette_selection(population, rng)) for _ in range(100)}
        assert len(picks) == 3

