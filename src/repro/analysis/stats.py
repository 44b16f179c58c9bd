"""Statistics for comparing stochastic search engines.

The paper compares averaged curves; a rigorous reproduction should also say
whether the differences are significant across the 40 runs. This module
implements the standard toolkit without external dependencies:

* :func:`bootstrap_ci` — percentile bootstrap confidence interval of any
  statistic of a sample (default: the mean);
* :func:`mann_whitney_u` — the Mann-Whitney/Wilcoxon rank-sum test with a
  normal approximation (appropriate at n >= 8 per side, which the paper's
  40-run discipline comfortably satisfies) and tie correction;
* :func:`compare_engines` — a one-call comparison of two
  :class:`~repro.experiments.runner.MultiRunResult` objects on
  evals-to-threshold, returning medians, a p-value and a plain-English
  verdict line;
* :func:`trace_summary` — roll a structured RunEvent stream (live
  :class:`~repro.core.kernel.RunEvent` objects or the JSON dicts served by
  the service's trace endpoint) up into per-kind counts, evaluation-batch
  totals and the search's improvement history.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.runner import MultiRunResult

__all__ = [
    "bootstrap_ci",
    "mann_whitney_u",
    "EngineComparison",
    "compare_engines",
    "trace_summary",
]


def trace_summary(events: Sequence) -> dict:
    """Aggregate a RunEvent stream into headline numbers.

    Accepts either :class:`~repro.core.kernel.RunEvent` objects (the
    events a :class:`~repro.core.kernel.RecordingTraceSink` kept) or plain
    dicts (the service's persisted ``events.jsonl`` /
    ``GET /campaigns/<id>/trace`` payload). Returns::

        {
          "events": total count,
          "kinds": {kind: count},
          "generations": highest generation seen,
          "evaluations": {"requested": ..., "distinct": ..., "cache_hits": ...},
          "improvements": [(generation, best_score), ...],
          "stop_reason": reason from the final stop event, or None,
        }
    """
    kinds: dict[str, int] = {}
    requested = distinct = cache_hits = 0
    improvements: list[tuple[int, float]] = []
    generations = 0
    stop_reason = None
    for event in events:
        payload = event if isinstance(event, dict) else event.as_dict()
        kind = payload.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        generation = payload.get("generation")
        if isinstance(generation, int):
            generations = max(generations, generation)
        if kind == "eval-batch":
            requested += payload.get("size", 0)
            distinct += payload.get("distinct", 0)
            cache_hits += payload.get("cache_hits", 0)
        elif kind == "best-improved":
            improvements.append((generation, payload.get("best_score")))
        elif kind == "stop":
            stop_reason = payload.get("reason")
    return {
        "events": sum(kinds.values()),
        "kinds": kinds,
        "generations": generations,
        "evaluations": {
            "requested": requested,
            "distinct": distinct,
            "cache_hits": cache_hits,
        },
        "improvements": improvements,
        "stop_reason": stop_reason,
    }


def bootstrap_ci(
    sample: Sequence[float],
    statistic: Callable[[Sequence[float]], float] | None = None,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval of a statistic.

    Args:
        sample: Observed values (at least one).
        statistic: Function of a sample; defaults to the mean.
        confidence: Interval mass (0.95 -> the 2.5/97.5 percentiles).
        resamples: Bootstrap replicates.
        seed: Resampling RNG seed (results are deterministic).
    """
    if not sample:
        raise ValueError("bootstrap_ci needs a non-empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    stat = statistic or (lambda xs: sum(xs) / len(xs))
    rng = random.Random(seed)
    n = len(sample)
    replicates = sorted(
        stat([sample[rng.randrange(n)] for _ in range(n)])
        for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    lo_index = int(alpha * resamples)
    hi_index = min(resamples - 1, int((1.0 - alpha) * resamples))
    return replicates[lo_index], replicates[hi_index]


def _rank_with_ties(values: Sequence[float]) -> tuple[list[float], float]:
    """Fractional ranks plus the tie-correction term for the U variance."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_term = 0.0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        count = j - i + 1
        if count > 1:
            tie_term += count**3 - count
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks, tie_term


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test.

    Returns ``(U, p_value)`` using the normal approximation with tie and
    continuity corrections. With identical samples the p-value is 1.0.
    """
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    combined = list(a) + list(b)
    ranks, tie_term = _rank_with_ties(combined)
    n1, n2 = len(a), len(b)
    rank_sum_a = sum(ranks[: len(a)])
    u1 = rank_sum_a - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    u = min(u1, u2)
    mean_u = n1 * n2 / 2.0
    n = n1 + n2
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return u, 1.0
    z = (u - mean_u + 0.5) / math.sqrt(variance)
    p = 2.0 * _normal_sf(abs(z))
    return u, min(p, 1.0)


def _normal_sf(z: float) -> float:
    """Standard normal survival function via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class EngineComparison:
    """Result of comparing two engines on evals-to-threshold."""

    label_a: str
    label_b: str
    threshold: float
    median_a: float | None
    median_b: float | None
    success_a: float
    success_b: float
    p_value: float | None
    significant: bool

    def verdict(self) -> str:
        """Plain-English one-liner."""
        if self.median_a is None or self.median_b is None:
            leader = self.label_a if self.median_a is not None else self.label_b
            return (
                f"only {leader} reached {self.threshold:g} "
                f"(success {self.success_a:.0%} vs {self.success_b:.0%})"
            )
        faster = self.label_a if self.median_a < self.median_b else self.label_b
        ratio = max(self.median_a, self.median_b) / max(
            min(self.median_a, self.median_b), 1e-9
        )
        significance = (
            f"p={self.p_value:.3g}, significant"
            if self.significant
            else f"p={self.p_value:.3g}, not significant"
        )
        return (
            f"{faster} is {ratio:.2f}x faster to {self.threshold:g} "
            f"({significance} at alpha=0.05)"
        )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    middle = n // 2
    if n % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def compare_engines(
    result_a: "MultiRunResult",
    result_b: "MultiRunResult",
    threshold: float,
    alpha: float = 0.05,
    censor_at: float | None = None,
) -> EngineComparison:
    """Compare two engines' per-run evals-to-threshold distributions.

    Runs that never reach the threshold are censored at ``censor_at``
    (default: the largest observed per-run evaluation count across both
    engines) so they still count against the failing engine rather than
    being silently dropped.
    """
    def per_run(result):
        raw = [r.evals_to_reach(threshold) for r in result.results]
        return raw

    raw_a, raw_b = per_run(result_a), per_run(result_b)
    if censor_at is None:
        totals = [
            r.distinct_evaluations
            for result in (result_a, result_b)
            for r in result.results
        ]
        censor_at = float(max(totals)) + 1.0
    sample_a = [float(x) if x is not None else censor_at for x in raw_a]
    sample_b = [float(x) if x is not None else censor_at for x in raw_b]
    reached_a = [float(x) for x in raw_a if x is not None]
    reached_b = [float(x) for x in raw_b if x is not None]
    __, p_value = mann_whitney_u(sample_a, sample_b)
    return EngineComparison(
        label_a=result_a.label,
        label_b=result_b.label,
        threshold=threshold,
        median_a=_median(reached_a) if reached_a else None,
        median_b=_median(reached_b) if reached_b else None,
        success_a=len(reached_a) / len(sample_a),
        success_b=len(reached_b) / len(sample_b),
        p_value=p_value,
        significant=p_value < alpha,
    )
