"""Bounded draws: ``getrandbits`` with the redraw loop ``randrange`` runs.

Breeding draws its bounded integers (uniform parents, the crossover point,
a uniform mutated code) as ``getrandbits(n.bit_length())``, redrawn while
the value is out of range, instead of through ``randrange`` and its
argument checks. Seeded runs stay bit-identical only while that gives
``randrange(n)`` and ``randrange(1, n)`` draw for draw, on every
interpreter CI runs; these tests pin it for n in 1..64.
"""

import random

import pytest

from repro.core import DesignSpace, GeneticOperators, GuidanceState, IntParam
from repro.core.operators import single_point_crossover
from repro.core.selection import uniform_rows

SEEDS = (0, 1, 7, 2024, 99991)
DRAWS = 40


def below(rng, n):
    """The redraw loop, as the breeding code writes it."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


@pytest.mark.parametrize("seed", SEEDS)
def test_loop_equals_randrange(seed):
    for n in range(1, 65):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [below(ours, n) for _ in range(DRAWS)] == [
            theirs.randrange(n) for _ in range(DRAWS)
        ]
        assert ours.getstate() == theirs.getstate()
        if n > 1:
            assert [1 + below(ours, n - 1) for _ in range(DRAWS)] == [
                theirs.randrange(1, n) for _ in range(DRAWS)
            ]
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_rows_draw_randrange(seed):
    # The uniform parent draw: roulette without positive weights, and each
    # side of the NSGA-II tournament.
    for n in range(1, 65):
        ours, theirs = random.Random(seed), random.Random(seed)
        draw = uniform_rows(list(range(n)), ours)
        assert [draw() for _ in range(DRAWS)] == [
            theirs.randrange(n) for _ in range(DRAWS)
        ]
        assert ours.getstate() == theirs.getstate()


def test_uniform_rows_of_nothing_raise_like_randrange():
    with pytest.raises(ValueError):
        uniform_rows([], random.Random(0))()


@pytest.mark.parametrize("seed", SEEDS)
def test_crossover_point_draws_randrange_from_one(seed):
    for n in range(1, 65):
        space = DesignSpace("x", [IntParam(f"p{i}", 0, 1) for i in range(n)])
        zeros = space.genome_from_indices([0] * n)
        ones = space.genome_from_indices([1] * n)
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(DRAWS):
            child = single_point_crossover(zeros, ones, ours)
            point = theirs.randrange(1, n) if n > 1 else 0
            assert child.codes == (0,) * point + (1,) * (n - point)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_mutation_draws_randrange(seed):
    # Every gene fires (rate 1) and, unguided, takes a uniform different
    # code: one gate random() and one randrange(cardinality - 1).
    for cardinality in range(2, 66):
        space = DesignSpace("m", [IntParam("a", 0, cardinality - 1)])
        operators = GeneticOperators(space, mutation_rate=1.0)
        genome = space.genome_from_indices([cardinality // 2])
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(DRAWS):
            child = operators.mutate(genome, GuidanceState.neutral(), ours)
            theirs.random()
            code = theirs.randrange(cardinality - 1)
            if code >= cardinality // 2:
                code += 1
            assert child.codes == (code,)
        assert ours.getstate() == theirs.getstate()
