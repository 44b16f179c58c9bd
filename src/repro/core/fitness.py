"""Objectives and fitness functions.

The paper stresses fitness flexibility (Section 2): a single hardware metric,
"a custom-defined composite function" combining several metrics (e.g.
throughput-per-LUT, area-delay product), or a constrained form that assigns
very low scores to undesired regions. :class:`Objective` captures all three.

Internally the engine always *maximizes* ``score``; minimization objectives
negate the raw value. ``raw`` is preserved for human-facing reporting so
plots show MHz, LUTs, MSPS/LUT etc. with their natural sign.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .errors import EvaluationError

__all__ = ["Objective", "Metrics", "maximize", "minimize"]

#: An evaluator's output: metric name to value.
Metrics = Mapping[str, float]

#: A composite metric: callable over the metrics dict.
Composite = Callable[[Metrics], float]


class Objective:
    """An optimization goal over evaluator metrics.

    Args:
        metric: A metric name (looked up in the evaluator's output dict) or a
            callable computing a composite value from the metrics dict.
        direction: ``"max"`` or ``"min"``.
        name: Human-readable label; required when ``metric`` is a callable.
        constraint: Optional predicate over the metrics dict. Designs
            violating the constraint receive a heavily penalized score
            (paper Section 2: the fitness function "can also be adapted to
            constrain the algorithm to only explore specific portions of the
            solution space").
    """

    def __init__(
        self,
        metric: str | Composite,
        direction: str = "max",
        name: str | None = None,
        constraint: Callable[[Metrics], bool] | None = None,
    ):
        if direction not in ("max", "min"):
            raise EvaluationError(f"direction must be 'max' or 'min', got {direction!r}")
        if callable(metric):
            if name is None:
                raise EvaluationError("composite objectives need an explicit name")
            self._fn: Composite = metric
            self.name = name
        else:
            metric_name = metric

            def _lookup(metrics: Metrics) -> float:
                try:
                    return float(metrics[metric_name])
                except KeyError:
                    raise EvaluationError(
                        f"evaluator produced no metric {metric_name!r}; "
                        f"available: {sorted(metrics)}"
                    ) from None

            self._fn = _lookup
            self.name = name or metric_name
        self.direction = direction
        self.constraint = constraint

    @property
    def maximizing(self) -> bool:
        """True when larger raw values are better."""
        return self.direction == "max"

    def raw(self, metrics: Metrics) -> float:
        """The raw (sign-preserving) objective value for reporting."""
        return self._fn(metrics)

    def score(self, metrics: Metrics) -> float:
        """Internal fitness — always higher-is-better.

        Constraint violations return ``-inf`` so selection never propagates
        them (but they still count as evaluated designs, as they would in a
        real flow where the synthesis run has already been paid for).
        """
        return self.assess(metrics)[1]

    def assess(self, metrics: Metrics) -> tuple[float, float]:
        """``(raw, score)`` from one read of the metric."""
        value = self._fn(metrics)
        if self.constraint is not None and not self.constraint(metrics):
            return value, float("-inf")
        return value, value if self.direction == "max" else -value

    def better(self, a: float, b: float) -> bool:
        """Whether raw value ``a`` beats raw value ``b``."""
        return a > b if self.maximizing else a < b

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Objective({self.direction} {self.name})"


def maximize(
    metric: str | Composite,
    name: str | None = None,
    constraint: Callable[[Metrics], bool] | None = None,
) -> Objective:
    """Shorthand for a maximization objective."""
    return Objective(metric, "max", name=name, constraint=constraint)


def minimize(
    metric: str | Composite,
    name: str | None = None,
    constraint: Callable[[Metrics], bool] | None = None,
) -> Objective:
    """Shorthand for a minimization objective."""
    return Objective(metric, "min", name=name, constraint=constraint)
