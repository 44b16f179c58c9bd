"""Parent selection for the generational GA.

The paper (Section 2) describes a classic generational GA where fitness
scores "are used during the ranking and selection process". Nautilus is
PyEvolve's GA with hints steering mutation, and PyEvolve selects parents
by roulette wheel, so :func:`roulette_selection` is the GA's one strategy.
It operates on *already-scored* individuals, so selection never touches
the evaluator.

It accepts any sequence of individuals. When handed a columnar
:class:`~repro.core.population.Population` it reads the cached ``scores``
column instead of walking ``ind.score`` attribute loads per draw — same
arithmetic, same RNG consumption, fewer Python-level loads in the hot loop.
"""

from __future__ import annotations

import random
from typing import Sequence

from .genome import Genome

__all__ = ["Individual", "roulette_selection"]


class Individual:
    """A genome together with its fitness score and raw metric value."""

    __slots__ = ("genome", "score", "raw")

    def __init__(self, genome: Genome, score: float, raw: float):
        self.genome = genome
        #: Internal fitness: always maximized by the engine.
        self.score = score
        #: Raw metric value as reported by the evaluator (for plotting).
        self.raw = raw

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Individual(score={self.score:.4g}, raw={self.raw:.4g})"


def roulette_selection(
    population: Sequence[Individual], rng: random.Random
) -> Individual:
    """Fitness-proportional selection with a shift to non-negative scores.

    Infeasible individuals (score ``-inf``) get zero weight. If every score
    is identical (or everything is infeasible) the draw is uniform.
    """
    # Columnar fast path: the weight table is built once per population
    # (rows are immutable after assessment) and memoized; every draw of
    # the generation then runs only its rng draw and accumulation scan.
    # The arithmetic (floor, weights, accumulation order) is identical to
    # the row-based path, so seeded picks are bit-for-bit unchanged.
    scores = getattr(population, "scores", None)
    cache = (
        population.selection_cache if scores is not None else None
    )
    table = cache.get("roulette") if cache is not None else None
    if table is None:
        if scores is None:
            scores = [ind.score for ind in population]
        neg_inf = float("-inf")
        finite = [s for s in scores if s != neg_inf]
        if not finite:
            table = (None, 0.0)
        else:
            floor = min(finite)
            weights = [(s - floor) if s != neg_inf else 0.0 for s in scores]
            table = (weights, sum(weights))
        if cache is not None:
            cache["roulette"] = table
    weights, total = table
    if weights is None:
        return population[rng.randrange(len(population))]
    if total <= 0.0:
        return population[rng.randrange(len(population))]
    pick = rng.random() * total
    acc = 0.0
    for idx, weight in enumerate(weights):
        acc += weight
        if pick <= acc:
            return population[idx]
    return population[-1]

