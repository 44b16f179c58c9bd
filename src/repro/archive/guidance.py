"""Archive-mined guidance — estimated hints that never pay a sweep.

:class:`~repro.core.guidance.EstimatedHints` implements the paper's
non-expert methodology by *spending* evaluations: an 80-design sweep before
the search proper starts. But a daemon that has already served campaigns on
this (space, evaluator) sits on hundreds of paid-for design points — the
archive. :func:`mine_hints` derives the same three channels from those rows
for free:

* **importance** from the spread of per-parameter mean scores (a parameter
  whose settings separate good from bad designs matters), scaled into the
  paper's 1..100 range with the same formula the sweep estimator uses;
* **bias** from the Spearman rank correlation between a parameter's ordinal
  code and the score, for ordered parameters only (there is no "direction"
  along an unordered axis);
* **target** — the best-region centroid: when the top fraction of archived
  designs cluster tightly on one setting of an ordered parameter that shows
  no monotonic trend, the cluster's rounded mean code becomes a target.

Mining runs against :meth:`Objective.score` — the engine's internal
maximized orientation — so, unlike the sweep estimator (which observes raw
metrics and lets the provider re-orient), the mined hints are already
engine-ready and no ``for_minimization`` flip happens here. The CLI's
``nautilus archive export-hints`` applies the inverse flip before writing a
file, so exported hints read like author hints (bias w.r.t. the raw
metric) and survive the ``submit --hints`` round trip.

:class:`ArchiveGuidance` wraps the miner as a
:class:`~repro.core.guidance.GuidanceProvider` (kind ``"archive"``): lazy
mining on first use, mined hints carried in ``state_dict`` so a checkpoint
resume never re-mines — even if the archive directory has since moved.
"""

from __future__ import annotations

from typing import Any, Mapping, TYPE_CHECKING

from ..core.errors import NautilusError
from ..core.estimation import _pearson, _ranks
from ..core.evalstack import evaluator_fingerprint
from ..core.guidance import (
    GuidanceProvider,
    GuidanceState,
    hintset_from_json,
    hintset_to_json,
)
from ..core.hints import IMPORTANCE_MAX, IMPORTANCE_MIN, HintSet, ParamHints
from .store import DesignArchive

if TYPE_CHECKING:  # pragma: no cover
    from ..core.fitness import Objective
    from ..core.space import DesignSpace

__all__ = ["ArchiveGuidance", "mine_hints"]


def mine_hints(
    archive: DesignArchive,
    space: "DesignSpace",
    objective: "Objective",
    fingerprint: str,
    *,
    confidence: float = 0.5,
    min_rows: int = 20,
    min_bias: float = 0.2,
    top_fraction: float = 0.25,
) -> tuple[HintSet, int]:
    """Derive a hint set from archived rows; returns ``(hints, rows used)``.

    Below ``min_rows`` feasible rows the result is an empty (neutral) hint
    set — too little history is worse than none, and an empty set keeps the
    engine on its unguided path. Biases are stated w.r.t. the objective's
    internal maximized score; see the module docstring for orientation.
    """
    if min_rows < 1:
        raise NautilusError(f"min_rows must be >= 1, got {min_rows}")
    if not 0.0 < top_fraction <= 1.0:
        raise NautilusError(
            f"top_fraction must be in (0, 1], got {top_fraction}"
        )
    rows = archive.scored_rows(space, fingerprint, objective)
    if len(rows) < min_rows:
        return HintSet({}, confidence=confidence), len(rows)

    codec = space.codec
    scores = [score for __, score, __ in rows]
    spreads: dict[str, float] = {}
    correlations: dict[str, float] = {}
    for pos, name in enumerate(codec.names):
        by_code: dict[int, list[float]] = {}
        for codes, score, __ in rows:
            by_code.setdefault(codes[pos], []).append(score)
        means = [sum(values) / len(values) for values in by_code.values()]
        spreads[name] = max(means) - min(means) if len(means) >= 2 else 0.0
        correlation = 0.0
        if codec.ordered[pos]:
            xs = [codes[pos] for codes, __, __ in rows]
            if len(set(xs)) > 1 and len(set(scores)) > 1:
                correlation = _pearson(_ranks(xs), _ranks(scores))
        correlations[name] = correlation
    max_spread = max(spreads.values(), default=0.0)

    # The best-region rows, deterministically ordered (score desc, then
    # code vector) — the centroid source for target mining.
    top_count = max(3, round(top_fraction * len(rows)))
    top = sorted(rows, key=lambda item: (-item[1], item[0]))[:top_count]

    hints: dict[str, ParamHints] = {}
    for pos, name in enumerate(codec.names):
        if max_spread <= 0.0 or spreads[name] <= 0.0:
            continue
        importance = IMPORTANCE_MIN + round(
            (IMPORTANCE_MAX - IMPORTANCE_MIN) * (spreads[name] / max_spread)
        )
        correlation = correlations[name]
        bias = correlation if abs(correlation) >= min_bias else 0.0
        target = None
        if bias == 0.0 and codec.ordered[pos]:
            # No monotonic trend — but if the best region agrees on a
            # setting (top codes within ~one ordinal step of their mean),
            # point the target channel at the centroid.
            top_codes = [codes[pos] for codes, __, __ in top]
            mean_code = sum(top_codes) / len(top_codes)
            variance = sum((c - mean_code) ** 2 for c in top_codes) / len(
                top_codes
            )
            if variance <= 1.0:
                code = min(
                    max(round(mean_code), 0), codec.cardinalities[pos] - 1
                )
                target = codec.domains[pos][code]
        if (
            importance == ParamHints().importance
            and bias == 0.0
            and target is None
        ):
            continue
        hints[name] = ParamHints(importance=importance, bias=bias, target=target)
    result = HintSet(hints, confidence=confidence)
    result.validate(space)
    return result, len(rows)


class ArchiveGuidance(GuidanceProvider):
    """Guidance mined from the cross-campaign archive (kind ``"archive"``).

    Behaves like :class:`~repro.core.guidance.EstimatedHints` with a zero
    evaluation budget: hints materialize lazily on the first state request,
    from rows other campaigns already paid for. The mined set travels in
    ``state_dict``, so a checkpointed campaign resumes without re-mining —
    and without needing the archive directory at all.
    """

    kind = "archive"

    def __init__(
        self,
        archive: DesignArchive | None = None,
        *,
        root: str | None = None,
        confidence: float = 0.5,
        min_rows: int = 20,
        min_bias: float = 0.2,
        top_fraction: float = 0.25,
    ):
        if archive is None and root is None:
            raise NautilusError(
                "ArchiveGuidance needs a DesignArchive or its root directory"
            )
        if min_rows < 1:
            raise NautilusError(f"min_rows must be >= 1, got {min_rows}")
        if not 0.0 < top_fraction <= 1.0:
            raise NautilusError(
                f"top_fraction must be in (0, 1], got {top_fraction}"
            )
        self._archive = archive
        self.root = str(archive.root) if archive is not None else str(root)
        self.confidence = confidence
        self.min_rows = min_rows
        self.min_bias = min_bias
        self.top_fraction = top_fraction
        self.hints: HintSet | None = None
        #: Archived rows the mining pass consumed (None until it runs).
        self.rows_used: int | None = None
        self._space: "DesignSpace | None" = None
        self._objective: "Objective | None" = None
        self._evaluator: Any = None

    def bind(self, space, objective=None, evaluator=None):
        self._space = space
        self._objective = objective
        self._evaluator = evaluator
        if self.hints is not None:  # restored from a checkpoint
            self.hints.validate(space)
        return self

    def _ensure_mined(self) -> None:
        if self.hints is not None:
            return
        if self._space is None or self._objective is None:
            raise NautilusError(
                "ArchiveGuidance must be bound to a space and objective "
                "before it can mine"
            )
        archive = self._archive
        if archive is None:
            archive = DesignArchive(self.root)
            self._archive = archive
        fingerprint = (
            evaluator_fingerprint(self._evaluator)
            if self._evaluator is not None
            else ""
        )
        self.hints, self.rows_used = mine_hints(
            archive,
            self._space,
            self._objective,
            fingerprint,
            confidence=self.confidence,
            min_rows=self.min_rows,
            min_bias=self.min_bias,
            top_fraction=self.top_fraction,
        )

    def peek(self, generation: int) -> GuidanceState:
        self._ensure_mined()
        return GuidanceState.from_hints(self.hints, generation)

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "hints": None if self.hints is None else hintset_to_json(self.hints),
            "rows_used": self.rows_used,
        }

    def load_state_dict(self, payload: Mapping[str, Any]) -> None:
        self._check_kind(payload)
        hints = payload.get("hints")
        self.hints = None if hints is None else hintset_from_json(hints)
        self.rows_used = payload.get("rows_used")
