"""Parent selection for the generational GA.

The paper (Section 2) describes a classic generational GA where fitness
scores "are used during the ranking and selection process". Nautilus is
PyEvolve's GA with hints steering mutation, and PyEvolve selects parents
by roulette wheel, so :func:`roulette_selection` is the GA's one strategy.
It operates on *already-scored* individuals, so selection never touches
the evaluator.

A strategy is a binder: :func:`roulette_wheel` turns a population (a
list of individuals) and the generator into a function drawing one parent
per call, and the breeding pipeline binds it once per generation.
Binding draws nothing. :func:`roulette_selection` is one draw from a
fresh binding.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import partial
from itertools import accumulate
from typing import Any, Callable, Sequence

from .genome import Genome

__all__ = ["Individual", "roulette_selection", "roulette_wheel", "uniform_rows"]

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


def uniform_rows(rows: Sequence, rng: random.Random) -> Callable[[], Any]:
    """Bind a uniform draw of one of ``rows``: ``rows[randrange(len(rows))]``,
    drawn with ``getrandbits`` and the redraw loop ``randrange`` runs,
    without its argument checks."""
    n = len(rows)
    if not n:
        return partial(rng.randrange, 0)  # raises: an empty range
    getrandbits, k = rng.getrandbits, n.bit_length()

    def draw() -> Any:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return rows[r]

    return draw


def roulette_wheel(
    population: Sequence[Individual], rng: random.Random
) -> Callable[[], Individual]:
    """Bind fitness-proportional selection to a population and a generator.

    Scores are shifted by the lowest finite one; infeasible individuals
    (``-inf``) weigh nothing. With no positive weight the draw is uniform;
    otherwise ``random() * total`` bisects the weights' running sums,
    added left to right as a scan adds them: the first row whose sum
    reaches the pick, else the last.
    """
    rows, neg_inf = list(population), float("-inf")
    scores = [ind.score for ind in rows]
    finite = [s for s in scores if s != neg_inf]
    sums, total = None, 0.0
    if finite:
        floor = min(finite)
        weights = [(s - floor) if s != neg_inf else 0.0 for s in scores]
        sums, total = list(accumulate(weights)), sum(weights)
    if sums is None or total <= 0.0:
        return uniform_rows(rows, rng)
    n, draw = len(rows), rng.random

    def weighted() -> Individual:
        pick = draw() * total
        i = bisect_left(sums, pick)
        # A NaN pick (a NaN or infinite total) reaches no sum.
        return rows[i] if i < n and pick <= sums[i] else rows[-1]

    return weighted


def roulette_selection(population: Sequence[Individual], rng: random.Random) -> Individual:
    """Fitness-proportional selection with a shift to non-negative scores:
    one draw from :func:`roulette_wheel`."""
    return roulette_wheel(population, rng)()
