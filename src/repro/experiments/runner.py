"""Multi-run experiment harness.

The paper averages every search curve over repeated runs ("results are
averaged over 40 runs for each experiment to compensate for the noisy nature
of the stochastic process", Section 4.1; Figure 3 uses 20). This module runs
an engine factory across seeds and aggregates:

* the mean convergence curve — (mean distinct evaluations, mean best raw
  metric) per generation, which is exactly how the paper's Figures 3-7 plot
  quality against cost;
* mean evaluations/generations to reach a quality threshold, with the
  fraction of runs that reached it at all (the paper's "converges to a
  solution within 1% of the best" statistics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from ..core.engine import SearchResult

__all__ = ["MultiRunResult", "ReachStats", "run_many"]


class _Runnable(Protocol):
    def run(self) -> SearchResult: ...  # pragma: no cover


@dataclass(frozen=True)
class ReachStats:
    """Cost statistics for reaching a quality threshold across runs."""

    threshold: float
    mean_evals: float | None
    mean_generations: float | None
    success_rate: float
    runs: int

    def __str__(self) -> str:
        if self.mean_evals is None:
            return f"never reached {self.threshold:g} ({self.runs} runs)"
        return (
            f"reach {self.threshold:g}: {self.mean_evals:.1f} evals / "
            f"{self.mean_generations:.1f} gens on average "
            f"({self.success_rate:.0%} of {self.runs} runs)"
        )


class MultiRunResult:
    """Aggregated outcome of repeated searches with different seeds."""

    def __init__(self, results: Sequence[SearchResult], label: str = ""):
        if not results:
            raise ValueError("need at least one run")
        self.results = list(results)
        self.label = label or results[0].label
        self.objective = results[0].objective

    @property
    def runs(self) -> int:
        return len(self.results)

    # -- curves -----------------------------------------------------------------

    def mean_curve(self) -> list[tuple[float, float]]:
        """(mean evals, mean best raw) per generation index."""
        generations = min(len(r.records) for r in self.results)
        curve = []
        for g in range(generations):
            evals = [r.records[g].distinct_evaluations for r in self.results]
            raws = [
                r.records[g].best_raw
                for r in self.results
                if not math.isnan(r.records[g].best_raw)
            ]
            if not raws:
                continue
            curve.append((sum(evals) / len(evals), sum(raws) / len(raws)))
        return curve

    def mean_score_curve(
        self, score: Callable[[float], float]
    ) -> list[tuple[int, float]]:
        """(generation, mean score(best raw)) — e.g. Figure 3's percent scale."""
        generations = min(len(r.records) for r in self.results)
        curve = []
        for g in range(generations):
            scores = [
                score(r.records[g].best_raw)
                for r in self.results
                if not math.isnan(r.records[g].best_raw)
            ]
            if scores:
                curve.append((g, sum(scores) / len(scores)))
        return curve

    # -- scalar statistics ---------------------------------------------------------

    def mean_best(self) -> float:
        """Mean final best raw metric over runs."""
        return sum(r.best_raw for r in self.results) / self.runs

    def mean_distinct_evaluations(self) -> float:
        """Mean total distinct designs evaluated per run."""
        return sum(r.distinct_evaluations for r in self.results) / self.runs

    def curve_cross(self, threshold: float) -> float | None:
        """Evals at which the *mean* convergence curve crosses a threshold.

        This is how thresholds are read off the paper's averaged figures:
        the x-position where the plotted (mean) curve reaches the bar. It
        differs from :meth:`reach`, whose per-run mean conditions on
        success and so understates the cost for methods that often fail.
        """
        maximizing = self.objective.maximizing
        for evals, raw in self.mean_curve():
            if (raw >= threshold) if maximizing else (raw <= threshold):
                return evals
        return None

    def reach(self, threshold: float) -> ReachStats:
        """Average cost of first reaching a raw-metric threshold."""
        evals = []
        gens = []
        for result in self.results:
            e = result.evals_to_reach(threshold)
            if e is not None:
                evals.append(e)
                gens.append(result.generations_to_reach(threshold))
        if not evals:
            return ReachStats(threshold, None, None, 0.0, self.runs)
        return ReachStats(
            threshold,
            sum(evals) / len(evals),
            sum(gens) / len(gens),
            len(evals) / self.runs,
            self.runs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiRunResult({self.label!r}, {self.runs} runs, "
            f"mean best={self.mean_best():.4g})"
        )


def run_many(
    factory: Callable[[int], _Runnable],
    runs: int,
    base_seed: int = 0,
    label: str = "",
) -> MultiRunResult:
    """Run ``factory(seed).run()`` for ``runs`` consecutive seeds.

    The factory receives a distinct seed per run; everything else about the
    engine (space, evaluator, hints, config) is up to the caller.
    """
    results = [factory(base_seed + i).run() for i in range(runs)]
    return MultiRunResult(results, label=label)
