"""Search-health diagnostics derived from the live population.

One ``health`` trace event per generation summarizes whether the search
is still exploring or has collapsed, without consuming any RNG:

``diversity``
    Mean over varying params of the normalized Shannon entropy of the
    population's values, counted by code (1.0 = uniform spread, 0.0 =
    converged).
    Cardinality-1 params are excluded — they cannot vary.
``param_entropy`` / ``param_spread``
    The per-param breakdown: normalized entropy, and the fraction of the
    *reachable* domain (``min(population, cardinality)``) present in the
    population.
``duplicate_rate``
    Fraction of the population sharing a genome with an earlier member.
``infeasible_rate``
    Infeasible share of this generation's evaluation batch.
``convergence_velocity``
    Mean best-score improvement per generation over a recent window
    (internal score scale; 0.0 while flat).
``stalled_generations`` / ``stall_risk``
    Generations since the last best-so-far improvement, and a [0, 1]
    composite: ``min(1, 0.7 * stalled/patience + 0.3 * duplicate_rate)``
    where ``patience`` is the configured ``stall_generations`` (default
    10 when none is set). Risk ≥ ~0.7 means the stall cutoff is close or
    the population has degenerated into copies.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Mapping, Sequence

__all__ = ["population_health", "stall_risk", "DEFAULT_STALL_PATIENCE"]

#: Patience assumed by :func:`stall_risk` when no stall cutoff is set.
DEFAULT_STALL_PATIENCE = 10


def stall_risk(
    stalled_generations: int,
    patience: int | None,
    duplicate_rate: float,
) -> float:
    """Composite [0, 1] risk that the search has stopped making progress."""
    effective = patience if patience and patience > 0 else DEFAULT_STALL_PATIENCE
    pressure = stalled_generations / effective
    return min(1.0, 0.7 * pressure + 0.3 * min(max(duplicate_rate, 0.0), 1.0))


@functools.lru_cache(maxsize=4096)
def _column_stats(
    counts: tuple[int, ...], population: int, reachable: int
) -> tuple[float, float, float]:
    """A varying column's normalized entropy, and it and its spread
    rounded for the payload, from its code counts in first-seen order.

    Pure, so memoized: a converging population repeats its count
    profiles from generation to generation and across campaigns.
    """
    # Shannon entropy of the code histogram, normalized to [0, 1].
    entropy = -sum((n / population) * math.log(n / population) for n in counts)
    entropy = min(1.0, entropy / math.log(reachable))
    return entropy, round(entropy, 6), round(len(counts) / reachable, 6)


def population_health(
    code_rows: Sequence[Sequence[int]],
    *,
    cardinalities: Mapping[str, int],
    best_history: Sequence[float] = (),
    stalled_generations: int = 0,
    stall_patience: int | None = None,
    batch_size: int = 0,
    batch_infeasible: int = 0,
) -> dict[str, Any]:
    """Summarize a population into one JSON-ready ``health`` payload.

    Works on code columns, not decoded values: a param's domain holds no
    two equal values, so its codes count exactly what its values would,
    and in the same first-seen order. Each varying column is counted in
    one dict pass; its entropy and rounded values come from a memo keyed
    by ``(counts in first-seen order, population, reachable)`` and capped
    at 4,096 entries (least recently used dropped first).

    Args:
        code_rows: The surviving population's code vectors, one per
            member, each with one domain index per param in
            ``cardinalities`` order.
        cardinalities: Domain size per param name, in code-vector order.
        best_history: Recent best-so-far scores, oldest first (window for
            the convergence velocity).
        stalled_generations: Consecutive generations without improvement.
        stall_patience: The engine's ``stall_generations`` cutoff, if set.
        batch_size / batch_infeasible: This generation's evaluation batch
            totals, for the infeasible rate.
    """
    population = len(code_rows)
    param_entropy: dict[str, float] = {}
    param_spread: dict[str, float] = {}
    varying: list[float] = []
    columns = zip(*code_rows) if population else [()] * len(cardinalities)
    for (name, cardinality), column in zip(cardinalities.items(), columns):
        reachable = min(population, cardinality)
        if reachable <= 1:
            param_entropy[name] = 0.0
            param_spread[name] = 1.0 if population else 0.0
            continue
        counts: dict[int, int] = {}
        for code in column:
            counts[code] = counts.get(code, 0) + 1
        entropy, param_entropy[name], param_spread[name] = _column_stats(
            tuple(counts.values()), population, reachable
        )
        varying.append(entropy)
    diversity = sum(varying) / len(varying) if varying else 0.0

    duplicate_rate = 0.0
    if population:
        duplicate_rate = 1.0 - len(set(code_rows)) / population

    velocity = 0.0
    finite = [s for s in best_history if s == s and abs(s) != float("inf")]
    if len(finite) > 1:
        velocity = (finite[-1] - finite[0]) / (len(finite) - 1)

    infeasible_rate = batch_infeasible / batch_size if batch_size else 0.0
    return {
        "population": population,
        "diversity": round(diversity, 6),
        "param_entropy": param_entropy,
        "param_spread": param_spread,
        "duplicate_rate": round(duplicate_rate, 6),
        "infeasible_rate": round(infeasible_rate, 6),
        "convergence_velocity": round(velocity, 6),
        "stalled_generations": stalled_generations,
        "stall_risk": round(
            stall_risk(stalled_generations, stall_patience, duplicate_rate), 6
        ),
    }
