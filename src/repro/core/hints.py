"""IP-author hints — the central Nautilus contribution (paper Section 3).

The paper defines a taxonomy of hints an IP author attaches to a generator,
*per metric of interest and per IP parameter*:

* **Importance** (1..100): how drastically a parameter affects the metric.
  Skews *which* genes get picked for mutation.
* **Importance decay** (0..1): per-generation decay of importance
  *differences*, so the search focuses on important parameters early (coarse
  navigation) and spreads to the rest later (local fine-tuning).
* **Bias** (-1..1): correlation between the parameter and the metric. Skews
  the *direction* of newly assigned values.
* **Target** (a domain value): good solutions cluster around this value;
  newly assigned values are pulled toward it. Bias and target are mutually
  exclusive per parameter.
* **Confidence** (0..1): global trust knob. 0 reduces Nautilus to the
  baseline GA; 1 makes it strongly directed (gradient-descent-like).

Auxiliary settings (paper Section 3, last paragraph):

* **Ordering**: a ranking of an unordered categorical parameter's values
  with respect to the metric, so bias/target have an axis to act on.
* **Step**: mutation step granularity for ordinal parameters.

All hints are *probabilistic* — they reweight the stochastic operators but
never forbid any region of the space (footnote 1 of the paper), which is what
lets the GA recover from wrong hints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .errors import HintError
from .params import Param
from .space import DesignSpace

__all__ = [
    "ParamHints",
    "HintSet",
    "DEFAULT_IMPORTANCE",
    "IMPORTANCE_MIN",
    "IMPORTANCE_MAX",
]

IMPORTANCE_MIN = 1
IMPORTANCE_MAX = 100
#: Importance assumed for parameters the author said nothing about. With all
#: parameters at the default the gene-selection distribution is uniform,
#: which matches the baseline GA.
DEFAULT_IMPORTANCE = 50


@dataclass(frozen=True)
class ParamHints:
    """Hints for one (parameter, metric) pair.

    Attributes:
        importance: 1..100, how strongly this parameter moves the metric.
        bias: -1..1 correlation of parameter (in its ordinal axis) with the
            metric being *maximized by the engine's internal score*. Callers
            express bias with respect to the raw metric; the engine flips the
            sign for minimization objectives.
        target: A domain value good solutions cluster around. Mutually
            exclusive with ``bias``.
        ordering: For unordered categorical parameters only — the parameter's
            values ranked from "low" to "high" with respect to the metric.
        step: Typical mutation step in ordinal index units (>= 1). ``None``
            lets the operator pick a geometric default.
    """

    importance: int = DEFAULT_IMPORTANCE
    bias: float = 0.0
    target: Any = None
    ordering: tuple | None = None
    step: int | None = None

    def __post_init__(self) -> None:
        if not IMPORTANCE_MIN <= self.importance <= IMPORTANCE_MAX:
            raise HintError(
                f"importance must be in [{IMPORTANCE_MIN}, {IMPORTANCE_MAX}], "
                f"got {self.importance}"
            )
        if not -1.0 <= self.bias <= 1.0:
            raise HintError(f"bias must be in [-1, 1], got {self.bias}")
        if self.target is not None and self.bias != 0.0:
            raise HintError(
                "bias and target are mutually exclusive for a parameter "
                "(paper Section 3)"
            )
        if self.step is not None and self.step < 1:
            raise HintError(f"step must be >= 1, got {self.step}")
        if self.ordering is not None:
            object.__setattr__(self, "ordering", tuple(self.ordering))

    def with_flipped_bias(self) -> "ParamHints":
        """Return a copy with the bias sign flipped (min/max conversion)."""
        if self.bias == 0.0:
            return self
        return ParamHints(
            importance=self.importance,
            bias=-self.bias,
            target=self.target,
            ordering=self.ordering,
            step=self.step,
        )


class HintSet:
    """All author hints for one metric of interest.

    Args:
        params: Mapping of parameter name to :class:`ParamHints`. Parameters
            absent from the mapping fall back to defaults (uniform
            importance, no bias/target) — the paper allows authors to supply
            "as many or few hints as desired".
        confidence: Global trust in the hints, 0..1.
        importance_decay: Per-generation decay rate of importance
            differences, 0..1. At generation ``g`` the effective importance
            is ``mean + (importance - mean) * (1 - decay) ** g`` where
            ``mean`` is the default importance, i.e. differences shrink
            geometrically toward the uniform baseline.
    """

    def __init__(
        self,
        params: Mapping[str, ParamHints] | None = None,
        confidence: float = 0.5,
        importance_decay: float = 0.0,
    ):
        if not 0.0 <= confidence <= 1.0:
            raise HintError(f"confidence must be in [0, 1], got {confidence}")
        if not 0.0 <= importance_decay <= 1.0:
            raise HintError(
                f"importance_decay must be in [0, 1], got {importance_decay}"
            )
        self.params: dict[str, ParamHints] = dict(params or {})
        self.confidence = confidence
        self.importance_decay = importance_decay

    # -- access -----------------------------------------------------------------

    def for_param(self, name: str) -> ParamHints:
        """Hints for one parameter, defaulting when the author gave none."""
        return self.params.get(name, ParamHints())

    # -- derivation ---------------------------------------------------------------

    def with_confidence(self, confidence: float) -> "HintSet":
        """Return a copy with a different global confidence.

        The paper's "weakly guided" vs "strongly guided" Nautilus variants
        "differ only in the confidence hint" (footnote 2), which this method
        makes a one-liner.
        """
        return HintSet(self.params, confidence, self.importance_decay)

    def with_decay(self, importance_decay: float) -> "HintSet":
        """Return a copy with a different importance decay rate."""
        return HintSet(self.params, self.confidence, importance_decay)

    def for_minimization(self) -> "HintSet":
        """Return a copy with all bias signs flipped.

        Authors state bias with respect to the raw metric ("increasing the
        parameter increases the metric"); when the engine minimizes, the
        internal score is the negated metric, so biases flip.
        """
        flipped = {name: h.with_flipped_bias() for name, h in self.params.items()}
        return HintSet(flipped, self.confidence, self.importance_decay)

    def restricted_to(self, names: Sequence[str]) -> "HintSet":
        """Return a copy keeping hints only for the given parameters.

        Used by Figure-3-style experiments ("Nautilus w/ 1 bias hint",
        "w/ 2 bias hints") that feed the engine a truncated hint vector.
        """
        kept = {n: h for n, h in self.params.items() if n in set(names)}
        return HintSet(kept, self.confidence, self.importance_decay)

    # -- validation ---------------------------------------------------------------

    def validate(self, space: DesignSpace) -> None:
        """Check the hint set against a design space; raise HintError if bad."""
        for name, hints in self.params.items():
            if name not in space:
                raise HintError(
                    f"hint refers to unknown parameter {name!r} "
                    f"(space {space.name!r} has {list(space.param_names)})"
                )
            param = space.param(name)
            self._validate_param(param, hints)

    @staticmethod
    def _validate_param(param: Param, hints: ParamHints) -> None:
        if hints.target is not None and not param.contains(hints.target):
            raise HintError(
                f"target {hints.target!r} is not in the domain of "
                f"parameter {param.name!r}"
            )
        if hints.ordering is not None:
            ordering = hints.ordering
            # Each ordering entry must be an actual member of the domain
            # (same value AND same type — ``1`` is not ``True``), and the
            # entries must cover every domain index exactly once. Comparing
            # reprs, as an earlier version did, wrongly accepted foreign
            # values whose repr collides with a domain member's.
            positions: set[int] = set()
            valid = len(ordering) == param.cardinality
            if valid:
                for value in ordering:
                    if not param.contains(value):
                        valid = False
                        break
                    position = param.index_of(value)
                    if position in positions or type(param.values[position]) is not type(value):
                        valid = False
                        break
                    positions.add(position)
            if not valid:
                raise HintError(
                    f"ordering hint for {param.name!r} must be a permutation "
                    f"of its domain; got {ordering!r}"
                )
        if not param.ordered and hints.ordering is None and (
            hints.bias != 0.0 or hints.target is not None
        ):
            raise HintError(
                f"parameter {param.name!r} is unordered: bias/target hints "
                f"require an ordering hint to define the axis"
            )

    # -- effective importance --------------------------------------------------------

    def effective_importance(self, name: str, generation: int) -> float:
        """Importance of a parameter at a given generation, after decay."""
        base = float(self.for_param(name).importance)
        if self.importance_decay == 0.0 or generation <= 0:
            return base
        shrink = (1.0 - self.importance_decay) ** generation
        return DEFAULT_IMPORTANCE + (base - DEFAULT_IMPORTANCE) * shrink

    def __eq__(self, other: object) -> bool:
        """Structural equality — what JSON round-tripping must preserve."""
        if not isinstance(other, HintSet):
            return NotImplemented
        return (
            self.params == other.params
            and self.confidence == other.confidence
            and self.importance_decay == other.importance_decay
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HintSet({len(self.params)} hinted params, "
            f"confidence={self.confidence}, decay={self.importance_decay})"
        )
