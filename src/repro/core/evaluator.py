"""Evaluators — the bridge between genomes and design metrics.

In the paper every fitness evaluation "requires running computationally
expensive CAD tools ... and/or simulations", so the cost of a search is the
number of *distinct* design points evaluated; revisiting an
already-synthesized design is free. That accounting — and every other
evaluation concern (memoization, persistent caching, batching,
instrumentation, parallel backends) — lives in one layered pipeline,
:class:`repro.core.evalstack.EvaluationStack`, which every engine run wraps
around the underlying evaluator.

Two base evaluators are provided:

* :class:`CallableEvaluator` — wraps any ``genome -> metrics`` function
  (e.g. the miniature synthesis flow driven by an IP generator).
* :class:`DatasetEvaluator` — replays an offline-characterized dataset,
  mirroring the paper's methodology (Section 4.1: spaces were synthesized
  offline on a cluster, then searches ran against the datasets).

Infeasibility semantics are shared: evaluators raise
:class:`~repro.core.errors.InfeasibleDesignError` for unbuildable points
and the engine turns that into ``-inf`` fitness.
"""

from __future__ import annotations

from typing import Callable, Protocol, TYPE_CHECKING

from .errors import DatasetError, InfeasibleDesignError
from .fitness import Metrics
from .genome import Genome

if TYPE_CHECKING:  # pragma: no cover
    from ..dataset.dataset import Dataset

__all__ = ["Evaluator", "CallableEvaluator", "DatasetEvaluator"]


class Evaluator(Protocol):
    """Anything that can turn a genome into a metrics dict."""

    def evaluate(self, genome: Genome) -> Metrics:
        """Return the metrics for a design point.

        Raises:
            InfeasibleDesignError: The point cannot be built.
        """
        ...  # pragma: no cover


class CallableEvaluator:
    """Adapt a plain function into an :class:`Evaluator`."""

    def __init__(self, fn: Callable[[Genome], Metrics]):
        self._fn = fn

    def evaluate(self, genome: Genome) -> Metrics:
        return self._fn(genome)


class DatasetEvaluator:
    """Serve metrics from an offline-characterized :class:`Dataset`.

    Args:
        dataset: The characterized dataset (see ``repro.dataset``).
        strict: When True (default) a lookup miss raises
            :class:`DatasetError`; a miss means the search space and dataset
            disagree, which is always a setup bug. When False a miss is
            reported as an infeasible design instead — the lenient mode for
            partially-characterized spaces, where an uncharacterized point
            simply cannot be scored.
    """

    def __init__(self, dataset: "Dataset", strict: bool = True):
        self._dataset = dataset
        self._strict = strict

    @property
    def fingerprint(self) -> str:
        """Content fingerprint for the persistent evaluation cache."""
        mode = "strict" if self._strict else "lenient"
        return f"dataset:{self._dataset.content_fingerprint()}:{mode}"

    def evaluate(self, genome: Genome) -> Metrics:
        try:
            return self._dataset.lookup(genome)
        except DatasetError:
            if self._strict:
                raise DatasetError(
                    f"design point {genome.as_dict()!r} not present in "
                    f"dataset {self._dataset.name!r}"
                ) from None
            raise InfeasibleDesignError(
                f"design point {genome.as_dict()!r} not characterized in "
                f"dataset {self._dataset.name!r} (non-strict mode)"
            ) from None
