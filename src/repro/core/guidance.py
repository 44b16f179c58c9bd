"""The guidance stack — hints as a serializable, provider-driven layer.

The paper's hints (Section 3) are *data* an IP author attaches to a
generator, yet a search engine consumes them through two moving parts: the
per-generation importance decay and the global confidence knob (which the
adaptive controller turns at run time). This module separates those
concerns:

* :class:`GuidanceState` is the **per-generation snapshot** the genetic
  operators consume: effective (decayed) importances, the bias/target
  channels (via the oriented :class:`~repro.core.hints.HintSet`) and the
  confidence in force *this* generation. Operators never see generation
  counters or raw hint sets.
* :class:`GuidanceProvider` is the **policy** that produces those states.
  The kernel calls :meth:`GuidanceProvider.advance` exactly once per
  generation (feeding back the population's best score) and checkpoints
  provider state alongside the RNG state, so guided searches resume
  bit-identically.

Three providers rebase the pre-existing behavior:

* :class:`StaticHints` — an author :class:`HintSet` as-is; decay is folded
  into each generation's effective importances (the classic Nautilus run).
* :class:`AdaptiveConfidence` — the stall/backoff/recovery confidence
  controller, an engine-independent policy any generational engine can
  compose (``GeneticSearch(..., guidance=AdaptiveConfidence(hints))`` is
  the adaptive-confidence extension).
* :class:`EstimatedHints` — runs an :func:`~repro.core.estimation.estimate_hints`
  sweep on first use (charged to the engine's own evaluation stack) and then
  behaves like :class:`StaticHints`; the estimated set is checkpointed so a
  resume never re-sweeps.

The second half of the module is the **wire format**: schema-versioned,
lossless JSON for :class:`ParamHints` / :class:`HintSet`, validated against a target :class:`~repro.core.space.DesignSpace` with
field-level structured errors (:class:`HintSpecError`). This is what lets
``nautilus estimate --output hints.json`` feed ``nautilus submit --hints
hints.json`` — the paper's non-expert estimate-then-search methodology
(Section 4.1) as a two-command pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import HintError, NautilusError
from .fitness import Objective
from .hints import DEFAULT_IMPORTANCE, HintSet, ParamHints
from .space import DesignSpace

__all__ = [
    "GuidanceState",
    "GuidanceProvider",
    "StaticHints",
    "AdaptiveConfidence",
    "EstimatedHints",
    "HintSpecError",
    "HINTS_SCHEMA_VERSION",
    "hintset_to_json",
    "hintset_from_json",
]

#: Version stamp carried by every serialized hint set.
HINTS_SCHEMA_VERSION = 1

#: Effective importance of a parameter the author said nothing about — the
#: same float both the decayed and undecayed code paths produce for it.
_NEUTRAL_IMPORTANCE = float(DEFAULT_IMPORTANCE)


# ---------------------------------------------------------------------------
# Per-generation state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuidanceState:
    """Everything the operators need to know about guidance, one generation.

    States are immutable snapshots and providers emit a *fresh* object every
    generation (even when nothing changed). The breeding pipeline resolves
    its generation's state against the space codec once per generation.
    The per-gene tables derived from ``hints`` are cached by hint-set
    identity for the whole search, so a hint set is never mutated in place
    once a state carries it.

    Attributes:
        generation: The generation this state applies to.
        confidence: The confidence in force (0..1). May differ from the
            author's value when an adaptive provider is steering it.
        hints: The oriented :class:`HintSet` supplying bias/target/ordering/
            step channels, or ``None`` for an unguided (baseline) run.
        effective_importance: Decayed importance per *hinted* parameter at
            this generation. Unhinted parameters are implicitly at the
            default importance (50).
    """

    generation: int
    confidence: float
    hints: HintSet | None
    effective_importance: Mapping[str, float] = field(default_factory=dict)

    @property
    def guided(self) -> bool:
        """Whether any hint channels are active this generation."""
        return self.hints is not None and bool(self.hints.params)

    def for_param(self, name: str) -> ParamHints | None:
        """Hint channels for one parameter, or None on an unguided run."""
        if self.hints is None:
            return None
        return self.hints.for_param(name)

    @classmethod
    def neutral(cls, generation: int = 0) -> "GuidanceState":
        """The unguided state: no channels, zero confidence."""
        return cls(generation=generation, confidence=0.0, hints=None)

    @classmethod
    def from_hints(
        cls,
        hints: HintSet | None,
        generation: int,
        confidence: float | None = None,
    ) -> "GuidanceState":
        """Snapshot a hint set at a generation, optionally overriding
        confidence (the adaptive controller's knob)."""
        if hints is None:
            return cls.neutral(generation)
        return cls(
            generation=generation,
            confidence=hints.confidence if confidence is None else confidence,
            hints=hints,
            effective_importance={
                name: hints.effective_importance(name, generation)
                for name in hints.params
            },
        )


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------


class GuidanceProvider:
    """Produces one :class:`GuidanceState` per generation for an engine.

    Lifecycle: the engine calls :meth:`bind` once at construction (giving
    the provider its design space, objective, and evaluation stack), the
    kernel calls :meth:`start` at generation 0 and :meth:`advance` once per
    subsequent generation, and the checkpoint layer round-trips
    :meth:`state_dict` / :meth:`load_state_dict`.
    """

    kind: str = "abstract"

    #: The oriented hint set in force, or None (unguided, or not yet
    #: estimated). Engines expose this as their ``hints`` attribute.
    hints: HintSet | None = None

    def bind(
        self,
        space: DesignSpace,
        objective: Objective | None = None,
        evaluator: Any = None,
    ) -> "GuidanceProvider":
        """Attach the provider to a search: validate hints against the
        space and orient them for the objective's direction (when one is
        given). Returns self for chaining."""
        raise NotImplementedError

    def start(self) -> GuidanceState:
        """The state for generation 0 (the initial population)."""
        return self.peek(0)

    def advance(self, generation: int, feedback: float | None = None) -> GuidanceState:
        """The state for the next generation; ``feedback`` is the best
        population score before breeding (None when unavailable)."""
        return self.peek(generation)

    def peek(self, generation: int) -> GuidanceState:
        """The state the provider would produce at a generation, without
        mutating controller state. Used on checkpoint resume."""
        raise NotImplementedError

    # -- persistence ------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable mutable state, checkpointed by the kernel."""
        return {"kind": self.kind}

    def load_state_dict(self, payload: Mapping[str, Any]) -> None:
        """Restore mutable state captured by :meth:`state_dict`."""
        self._check_kind(payload)

    def _check_kind(self, payload: Mapping[str, Any]) -> None:
        kind = payload.get("kind")
        if kind != self.kind:
            raise NautilusError(
                f"checkpointed guidance state is for provider kind {kind!r}, "
                f"but this search uses {self.kind!r}"
            )

    @staticmethod
    def _orient(
        hints: HintSet, space: DesignSpace, objective: Objective | None
    ) -> HintSet:
        oriented = hints
        if objective is not None and not objective.maximizing:
            oriented = oriented.for_minimization()
        oriented.validate(space)
        return oriented


class StaticHints(GuidanceProvider):
    """An author hint set, applied as-is; decay folds into each state."""

    kind = "static"

    def __init__(self, hints: HintSet):
        if hints is None:
            raise NautilusError("StaticHints requires a HintSet")
        self._author = hints
        self.hints = hints

    def bind(self, space, objective=None, evaluator=None):
        self.hints = self._orient(self._author, space, objective)
        return self

    def peek(self, generation: int) -> GuidanceState:
        return GuidanceState.from_hints(self.hints, generation)


class AdaptiveConfidence(GuidanceProvider):
    """The paper-faithful adaptive variant of Nautilus as a guidance policy.

    The search trusts the author's hints while they deliver: every
    generation it looks at the best score of the incoming population; on
    improvement, confidence recovers by ``recovery`` (never above the
    author's value); after ``patience`` consecutive stalled generations it
    backs off by ``backoff`` (never below ``min_confidence``), so a run
    started with wrong hints degrades toward the baseline GA instead of
    being dragged to a poor corner of the space.
    """

    kind = "adaptive"

    def __init__(
        self,
        hints: HintSet,
        patience: int = 6,
        backoff: float = 0.6,
        recovery: float = 1.15,
        min_confidence: float = 0.05,
    ):
        if hints is None:
            raise NautilusError("AdaptiveConfidence requires hints to adapt")
        if patience < 1:
            raise NautilusError(f"patience must be >= 1, got {patience}")
        if not 0.0 < backoff < 1.0:
            raise NautilusError(f"backoff must be in (0, 1), got {backoff}")
        if recovery < 1.0:
            raise NautilusError(f"recovery must be >= 1, got {recovery}")
        self._author = hints
        self.hints = hints
        self.patience = patience
        self.backoff = backoff
        self.recovery = recovery
        self.min_confidence = min_confidence
        self._author_confidence = hints.confidence
        self.confidence = hints.confidence
        self._stall = 0
        self._last_best = float("-inf")
        #: ``(generation, confidence)`` pairs, one per generation advanced —
        #: the run's confidence trajectory for analysis and plots.
        self.confidence_trace: list[tuple[int, float]] = []

    def bind(self, space, objective=None, evaluator=None):
        self.hints = self._orient(self._author, space, objective)
        return self

    def _set_confidence(self, value: float) -> None:
        self.confidence = min(max(value, self.min_confidence), self._author_confidence)

    def advance(self, generation: int, feedback: float | None = None) -> GuidanceState:
        if feedback is not None:
            if feedback > self._last_best:
                self._last_best = feedback
                self._stall = 0
                self._set_confidence(self.confidence * self.recovery)
            else:
                self._stall += 1
                if self._stall >= self.patience:
                    self._stall = 0
                    self._set_confidence(self.confidence * self.backoff)
        self.confidence_trace.append((generation, self.confidence))
        return self.peek(generation)

    def peek(self, generation: int) -> GuidanceState:
        return GuidanceState.from_hints(self.hints, generation, self.confidence)

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "confidence": self.confidence,
            "stall": self._stall,
            "last_best": self._last_best,
            "trace": [[g, c] for g, c in self.confidence_trace],
        }

    def load_state_dict(self, payload: Mapping[str, Any]) -> None:
        self._check_kind(payload)
        self.confidence = float(payload["confidence"])
        self._stall = int(payload["stall"])
        self._last_best = float(payload["last_best"])
        self.confidence_trace = [(int(g), float(c)) for g, c in payload["trace"]]


class EstimatedHints(GuidanceProvider):
    """Derive hints from a short characterization sweep, then apply them.

    The sweep (:func:`~repro.core.estimation.estimate_hints`) runs lazily on
    the first state request, against the engine's own evaluation stack — so
    sweep points are cached, charged to the run's distinct-evaluation budget,
    and shared with the search itself. The estimated set is carried in
    :meth:`state_dict`, so a checkpoint resume never re-sweeps.
    """

    kind = "estimated"

    def __init__(
        self,
        budget: int = 80,
        confidence: float = 0.5,
        seed: int | None = None,
        min_bias: float = 0.2,
        refine: bool = True,
    ):
        if budget < 1:
            raise NautilusError(f"estimation budget must be >= 1, got {budget}")
        self.budget = budget
        self.confidence = confidence
        self.seed = seed
        self.min_bias = min_bias
        self.refine = refine
        self.hints = None
        #: Distinct evaluations the sweep consumed (None until it runs).
        self.used: int | None = None
        self._space: DesignSpace | None = None
        self._objective: Objective | None = None
        self._evaluator: Any = None

    def bind(self, space, objective=None, evaluator=None):
        self._space = space
        self._objective = objective
        self._evaluator = evaluator
        if self.hints is not None:  # restored from a checkpoint
            self.hints.validate(space)
        return self

    def _ensure_estimated(self) -> None:
        if self.hints is not None:
            return
        if self._space is None or self._evaluator is None:
            raise NautilusError(
                "EstimatedHints must be bound to a space and evaluator "
                "before it can sweep"
            )
        from .estimation import estimate_hints

        hints, used = estimate_hints(
            self._space,
            self._evaluator,
            self._objective,
            budget=self.budget,
            confidence=self.confidence,
            seed=self.seed,
            min_bias=self.min_bias,
            refine=self.refine,
        )
        # estimate_hints derives bias w.r.t. the raw metric; reorient for
        # the engine's internal (maximized) score, like any author hint set.
        if self._objective is not None and not self._objective.maximizing:
            hints = hints.for_minimization()
        self.hints = hints
        self.used = used

    def peek(self, generation: int) -> GuidanceState:
        self._ensure_estimated()
        return GuidanceState.from_hints(self.hints, generation)

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "hints": None if self.hints is None else hintset_to_json(self.hints),
            "used": self.used,
        }

    def load_state_dict(self, payload: Mapping[str, Any]) -> None:
        self._check_kind(payload)
        hints = payload.get("hints")
        self.hints = None if hints is None else hintset_from_json(hints)
        self.used = payload.get("used")


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


class HintSpecError(HintError):
    """A serialized hint spec is invalid; carries field-level errors.

    ``errors`` is a list of ``{"field": ..., "message": ...}`` dicts — the
    payload the service surfaces in its HTTP 400 responses so a client can
    point at the exact offending field (``params.depth.bias``, say) instead
    of guessing from a prose message.
    """

    def __init__(self, message: str, errors: list[dict[str, str]] | None = None):
        self.errors = errors or []
        if self.errors:
            details = "; ".join(
                f"{e['field']}: {e['message']}" if e["field"] else e["message"]
                for e in self.errors
            )
            message = f"{message}: {details}"
        super().__init__(message)


def hintset_to_json(hints: HintSet) -> dict[str, Any]:
    """Serialize a :class:`HintSet` losslessly to plain JSON types."""
    params: dict[str, Any] = {}
    for name in sorted(hints.params):
        params[name] = _param_hints_to_json(hints.params[name])
    return {
        "schema": HINTS_SCHEMA_VERSION,
        "confidence": hints.confidence,
        "importance_decay": hints.importance_decay,
        "params": params,
    }


def _param_hints_to_json(hints: ParamHints) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "importance": hints.importance,
        "bias": hints.bias,
    }
    if hints.target is not None:
        payload["target"] = _value_to_json(hints.target)
    if hints.ordering is not None:
        payload["ordering"] = [_value_to_json(v) for v in hints.ordering]
    if hints.step is not None:
        payload["step"] = hints.step
    return payload


def _value_to_json(value: Any) -> Any:
    # Tuples survive the trip as lists; _value_from_json restores them.
    if isinstance(value, tuple):
        return {"__tuple__": [_value_to_json(v) for v in value]}
    return value


def _value_from_json(value: Any) -> Any:
    if isinstance(value, Mapping) and set(value) == {"__tuple__"}:
        return tuple(_value_from_json(v) for v in value["__tuple__"])
    return value


_HINTSET_KEYS = {"schema", "confidence", "importance_decay", "params"}
_PARAM_KEYS = {"importance", "bias", "target", "ordering", "step"}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def hintset_from_json(
    payload: Any, space: DesignSpace | None = None
) -> HintSet:
    """Parse a serialized hint set, collecting field-level errors.

    With ``space`` given, the result is additionally validated against that
    design space (unknown parameters, out-of-domain targets, non-permutation
    orderings), still with per-field attribution. Raises
    :class:`HintSpecError` carrying every problem found.
    """
    if not isinstance(payload, Mapping):
        raise HintSpecError(
            "invalid hint spec",
            [{"field": "", "message": f"expected a JSON object, got {type(payload).__name__}"}],
        )
    errors: list[dict[str, str]] = []
    schema = payload.get("schema")
    if schema != HINTS_SCHEMA_VERSION:
        raise HintSpecError(
            "invalid hint spec",
            [{
                "field": "schema",
                "message": f"unsupported hints schema {schema!r}; "
                f"this build speaks schema {HINTS_SCHEMA_VERSION}",
            }],
        )
    for key in sorted(set(payload) - _HINTSET_KEYS):
        errors.append({"field": key, "message": "unknown field"})

    confidence = payload.get("confidence", 0.5)
    if not _is_number(confidence):
        errors.append(
            {"field": "confidence", "message": "must be a number in [0, 1]"}
        )
        confidence = 0.5
    decay = payload.get("importance_decay", 0.0)
    if not _is_number(decay):
        errors.append(
            {"field": "importance_decay", "message": "must be a number in [0, 1]"}
        )
        decay = 0.0

    parsed: dict[str, ParamHints] = {}
    params_payload = payload.get("params", {})
    if not isinstance(params_payload, Mapping):
        errors.append({"field": "params", "message": "must be an object"})
    else:
        for name in sorted(params_payload):
            entry = params_payload[name]
            hints = _param_hints_from_json(entry, f"params.{name}", errors)
            if hints is not None:
                parsed[name] = hints

    if errors:
        raise HintSpecError("invalid hint spec", errors)

    try:
        result = HintSet(parsed, confidence=confidence, importance_decay=decay)
    except HintError as exc:
        field_name = "confidence" if "confidence" in str(exc) else "importance_decay"
        raise HintSpecError(
            "invalid hint spec", [{"field": field_name, "message": str(exc)}]
        ) from None

    if space is not None:
        for name, hints in result.params.items():
            if name not in space:
                errors.append({
                    "field": f"params.{name}",
                    "message": f"unknown parameter for space {space.name!r} "
                    f"(has {list(space.param_names)})",
                })
                continue
            try:
                HintSet._validate_param(space.param(name), hints)
            except HintError as exc:
                errors.append({"field": f"params.{name}", "message": str(exc)})
        if errors:
            raise HintSpecError("invalid hint spec", errors)
    return result


def _param_hints_from_json(
    entry: Any, field_name: str, errors: list[dict[str, str]]
) -> ParamHints | None:
    if not isinstance(entry, Mapping):
        errors.append({"field": field_name, "message": "must be an object"})
        return None
    bad = False
    for key in sorted(set(entry) - _PARAM_KEYS):
        errors.append({"field": f"{field_name}.{key}", "message": "unknown field"})
        bad = True
    kwargs: dict[str, Any] = {}
    importance = entry.get("importance", DEFAULT_IMPORTANCE)
    if not isinstance(importance, int) or isinstance(importance, bool):
        errors.append(
            {"field": f"{field_name}.importance", "message": "must be an integer"}
        )
        bad = True
    else:
        kwargs["importance"] = importance
    bias = entry.get("bias", 0.0)
    if not _is_number(bias):
        errors.append({"field": f"{field_name}.bias", "message": "must be a number"})
        bad = True
    else:
        kwargs["bias"] = bias
    if "target" in entry:
        kwargs["target"] = _value_from_json(entry["target"])
    ordering = entry.get("ordering")
    if ordering is not None:
        if not isinstance(ordering, (list, tuple)):
            errors.append(
                {"field": f"{field_name}.ordering", "message": "must be a list"}
            )
            bad = True
        else:
            kwargs["ordering"] = tuple(_value_from_json(v) for v in ordering)
    step = entry.get("step")
    if step is not None:
        if not isinstance(step, int) or isinstance(step, bool):
            errors.append(
                {"field": f"{field_name}.step", "message": "must be an integer >= 1"}
            )
            bad = True
        else:
            kwargs["step"] = step
    if bad:
        return None
    try:
        return ParamHints(**kwargs)
    except HintError as exc:
        errors.append({"field": field_name, "message": str(exc)})
        return None
