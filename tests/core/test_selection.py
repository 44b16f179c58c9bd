"""Tests for roulette-wheel parent selection."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DesignSpace, Individual, IntParam, roulette_selection
from repro.core.selection import roulette_wheel


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



def _scan_roulette(population, rng):
    """Roulette selection as a linear scan over the weights: how parents
    were drawn before the wheel bisected its running sums."""
    neg_inf = float("-inf")
    scores = [ind.score for ind in population]
    finite = [s for s in scores if s != neg_inf]
    if not finite:
        return population[rng.randrange(len(population))]
    floor = min(finite)
    weights = [(s - floor) if s != neg_inf else 0.0 for s in scores]
    total = sum(weights)
    if total <= 0.0:
        return population[rng.randrange(len(population))]
    pick = rng.random() * total
    acc = 0.0
    for idx, weight in enumerate(weights):
        acc += weight
        if pick <= acc:
            return population[idx]
    return population[-1]


class _Picks:
    """A generator stub whose ``random()`` returns the given values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


_SCORES = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.5, -1.0, float("-inf")]),
        # A NaN or infinite total makes a NaN pick, which no sum reaches.
        st.sampled_from([float("inf"), float("nan")]),
        st.floats(-1e6, 1e6),
    ),
    min_size=1,
    max_size=12,
)


def _rows(scores):
    space = DesignSpace("wheel", [IntParam("a", 0, 99)])
    return [Individual(space.genome(a=i), s, s) for i, s in enumerate(scores)]


class TestWheelMatchesScan:
    """The running-sum bisect picks the index the linear scan picks."""

    @settings(max_examples=300, deadline=None)
    @given(_SCORES, st.integers(0, 2**16))
    def test_same_draws_and_state(self, scores, seed):
        rows = _rows(scores)
        ours, theirs = random.Random(seed), random.Random(seed)
        wheel = roulette_wheel(rows, ours)
        drawn = [rows.index(wheel()) for _ in range(20)]
        drawn += [rows.index(roulette_selection(rows, ours)) for _ in range(5)]
        expected = [rows.index(_scan_roulette(rows, theirs)) for _ in range(25)]
        assert drawn == expected
        assert ours.getstate() == theirs.getstate()

    @settings(max_examples=300, deadline=None)
    @given(_SCORES, st.data())
    def test_picks_on_and_beside_each_running_sum(self, scores, data):
        finite = [s for s in scores if s != float("-inf")]
        if not finite or sum(s - min(finite) for s in finite) <= 0.0:
            return  # uniform: no running sums to land on
        floor = min(finite)
        weights = [
            (s - floor) if s != float("-inf") else 0.0 for s in scores
        ]
        total, acc, picks = sum(weights), 0.0, [0.0]
        for weight in weights:
            acc += weight
            exact = acc / total
            picks += [exact, math.nextafter(exact, 0.0), math.nextafter(exact, 1.0)]
        picks = [p for p in picks if 0.0 <= p < 1.0] + [0.0]
        picks += data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True)))
        rows = _rows(scores)
        wheel = roulette_wheel(rows, _Picks(picks))
        scan = _Picks(picks)
        for _ in picks:
            assert wheel() is _scan_roulette(rows, scan)

    def test_pick_exactly_on_a_running_sum(self, space):
        # Weights 1, 3, 0, 4 (total 8): picks of 1.0 and 4.0 land exactly
        # on running sums and take the first row reaching them, never the
        # zero-weight row that repeats a sum; a pick of 0 takes the first.
        rows = make_population(space, [1.0, 3.0, 0.0, 4.0])
        picks = [0.125, 0.5, 0.0, 0.999]
        wheel = roulette_wheel(rows, _Picks(picks))
        assert [rows.index(wheel()) for _ in picks] == [0, 1, 0, 3]
        scan = _Picks(picks)
        assert [rows.index(_scan_roulette(rows, scan)) for _ in picks] == [0, 1, 0, 3]

    def test_single_member_and_all_infeasible(self, space):
        for scores in ([5.0], [float("-inf")] * 3, [2.0, 2.0, 2.0]):
            rows = make_population(space, scores)
            ours, theirs = random.Random(3), random.Random(3)
            wheel = roulette_wheel(rows, ours)
            assert [wheel() for _ in range(30)] == [
                _scan_roulette(rows, theirs) for _ in range(30)
            ]
            assert ours.getstate() == theirs.getstate()
