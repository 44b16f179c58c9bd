"""Campaign specs and runtime state.

A :class:`CampaignSpec` is the unit of work a user submits: one named query
(see :mod:`repro.queries`), an engine choice, and the search
hyper-parameters. Specs are plain JSON-serializable dataclasses — they ride
over the REST API and into the on-disk store unchanged.

:func:`build_search` turns a spec into a concrete engine instance. GA
campaigns (:class:`~repro.core.GeneticSearch` or
:class:`~repro.core.ParetoSearch`) are built with a ``checkpoint_path`` in
the campaign directory, so they append one checkpoint-journal line per
generation, which is what lets a restarted daemon resume them: each line
carries the population, RNG streams, guidance state and evaluation
counters, plus the generation's new records and evaluation-cache rows. A
kill loses only the generation being stepped.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from ..core import (
    EvaluationStack,
    GAConfig,
    GeneticSearch,
    NautilusError,
    ParetoSearch,
    RandomSearch,
    hintset_from_json,
)
from ..core.evalstack import PersistentCache
from ..core.evaluator import DatasetEvaluator
from ..queries import (
    MULTI_QUERIES,
    QUERIES,
    build_hints,
    resolve_multi_objectives,
    resolve_objective,
)

__all__ = [
    "CampaignState",
    "CampaignSpec",
    "Campaign",
    "build_search",
    "query_space",
]

_ENGINES = ("nautilus", "baseline", "random", "pareto")

#: Spec fields that must hold an ``int`` (never a ``bool``), and those that
#: may also be None. A JSON body can carry any type in any field; an
#: unchecked ``"priority": "hi"`` would reach the scheduler's priority sort.
_INT_FIELDS = ("generations", "seed", "priority", "budget")
_OPTIONAL_INT_FIELDS = (
    "max_evaluations", "workers", "trace_max_events", "warm_start",
)


def query_space(spec: "CampaignSpec") -> str:
    """The dataset space a spec's query runs against (any engine)."""
    registry = MULTI_QUERIES if spec.engine == "pareto" else QUERIES
    return registry[spec.query].space


class CampaignState:
    """Lifecycle states of a campaign (plain strings for JSON friendliness).

    ``QUEUED -> RUNNING -> DONE`` is the happy path; ``FAILED`` captures an
    engine exception, ``CANCELLED`` a user's DELETE. ``RUNNING`` campaigns
    found in the store at daemon startup are re-queued and resumed from
    their checkpoint.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    #: States a restarted daemon picks back up.
    IN_FLIGHT = (QUEUED, RUNNING)
    #: States no scheduler tick will ever touch again.
    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to (re)build one search campaign.

    Attributes:
        query: A named query from :data:`repro.queries.QUERIES` — or, for
            the ``"pareto"`` engine, from
            :data:`repro.queries.MULTI_QUERIES`.
        engine: ``"nautilus"`` (guided), ``"baseline"`` (unguided GA),
            ``"random"``, or ``"pareto"`` (NSGA-II over a named
            multi-objective query).
        generations: GA horizon (ignored by the random engine).
        seed: RNG seed — campaigns are deterministic given their spec.
        priority: Higher is served first; campaigns of equal priority share
            the scheduler round-robin fairly.
        confidence: Optional hint-confidence override (nautilus engine);
            for the ``pareto`` engine, setting it opts the campaign into
            the multi-query's hint guidance.
        hints: Optional inline hint set in the schema-versioned JSON wire
            format (see :func:`repro.core.hintset_to_json`), replacing the
            query's bundled ``hint_kind``. Guided engines only (nautilus /
            pareto). Structure is validated here (a 400 at submission);
            the scheduler additionally validates against the query's
            design space before enqueueing.
        budget: Random-search draw budget (random engine only).
        max_evaluations: Optional distinct-evaluation cutoff for GA runs.
        workers: Optional per-campaign evaluation pool size, overriding the
            daemon-wide default (``nautilus submit --workers N``). Must be
            >= 1 — validated here so a bad value is a 400 at submission,
            not a failed campaign later.
        trace_max_events: Optional cap on this campaign's persisted event
            log (see :class:`~repro.core.CappedJsonlTraceSink`); overrides
            the service-wide default. ``None`` keeps every event.
        tracing: Record a span tree for the campaign (see
            :mod:`repro.obs.tracing`), persisted as ``spans.jsonl`` and
            served by ``GET /campaigns/<id>/spans`` / ``nautilus
            profile``. Off by default; spans consume zero RNG draws, so a
            traced campaign's results are bit-identical to an untraced
            one.
        warm_start: Seed the initial population with this many of the best
            designs the daemon's cross-campaign archive holds for the
            query (single-objective GA engines only). Requires the daemon
            to run with ``--archive`` — validated by the scheduler at
            submission. At most ``population_size - 1`` seeds are
            injected, keeping at least one random individual.
        label: Free-form tag carried into results.
    """

    query: str
    engine: str = "nautilus"
    generations: int = 80
    seed: int = 0
    priority: int = 0
    confidence: float | None = None
    hints: dict | None = None
    budget: int = 400
    max_evaluations: int | None = None
    workers: int | None = None
    trace_max_events: int | None = None
    tracing: bool = False
    warm_start: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        self._check_types()
        if self.engine not in _ENGINES:
            raise NautilusError(
                f"unknown engine {self.engine!r}; choose from {_ENGINES}"
            )
        registry = MULTI_QUERIES if self.engine == "pareto" else QUERIES
        if self.query not in registry:
            raise NautilusError(
                f"unknown query {self.query!r} for engine {self.engine!r}; "
                f"choose from {sorted(registry)}"
            )
        if self.generations < 1:
            raise NautilusError("generations must be >= 1")
        if self.budget < 1:
            raise NautilusError("budget must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise NautilusError("workers must be >= 1")
        if self.trace_max_events is not None and self.trace_max_events < 4:
            raise NautilusError("trace_max_events must be >= 4")
        if self.warm_start is not None:
            if self.warm_start < 1:
                raise NautilusError("warm_start must be >= 1")
            if self.engine not in ("nautilus", "baseline"):
                raise NautilusError(
                    f"warm_start requires a single-objective GA engine "
                    f"(nautilus or baseline), not {self.engine!r}"
                )
        if self.hints is not None:
            if self.engine not in ("nautilus", "pareto"):
                raise NautilusError(
                    f"inline hints require a guided engine (nautilus or "
                    f"pareto), not {self.engine!r}"
                )
            # Structural validation only — raises HintSpecError with
            # field-level errors. Space-level validation needs the dataset
            # and happens in Scheduler.validate_spec.
            hintset_from_json(self.hints)

    def _check_types(self) -> None:
        for name in _INT_FIELDS + _OPTIONAL_INT_FIELDS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_INT_FIELDS:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise NautilusError(f"{name} must be an integer, got {value!r}")
        confidence = self.confidence
        if confidence is not None and (
            isinstance(confidence, bool) or not isinstance(confidence, numbers.Real)
        ):
            raise NautilusError(
                f"confidence must be a number or null, got {confidence!r}"
            )
        if not isinstance(self.tracing, bool):
            raise NautilusError(f"tracing must be a boolean, got {self.tracing!r}")
        for name in ("query", "engine", "label"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise NautilusError(f"{name} must be a string, got {value!r}")

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "CampaignSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise NautilusError(f"unknown campaign spec fields: {sorted(unknown)}")
        return cls(**payload)


def _inline_hints(spec: CampaignSpec, dataset):
    """Deserialize a spec's inline hints, validated against the space.

    A spec-level ``confidence`` composes with inline hints the same way it
    re-weights a bundled hint kind.
    """
    hints = hintset_from_json(spec.hints, dataset.space)
    if spec.confidence is not None:
        hints = hints.with_confidence(spec.confidence)
    return hints


def build_search(
    spec: CampaignSpec,
    dataset,
    campaign_dir: str | Path | None = None,
    workers: int = 1,
    persistent: PersistentCache | None = None,
    registry=None,
    fleet=None,
    archive=None,
    campaign_id: str = "",
    executor=None,
    objective=None,
):
    """Instantiate the engine a spec describes, against a shared dataset.

    This is the one place an engine is built from a query: the daemon,
    perfbench, ``nautilus optimize``, the paper's figure builders and the
    engine-parity smoke all call it.

    GA engines journal a checkpoint line every generation under
    ``campaign_dir`` so the scheduler can resume them after a daemon
    restart; the random baseline is cheap and deterministic, so on restart
    it simply replays from its seed. The evaluator is a full
    :class:`~repro.core.EvaluationStack` per campaign — its own memo cache
    and counters, a thread-pool backend when ``workers > 1``
    (population-sized parallelism), and optionally a shared ``persistent``
    on-disk cache so campaigns over the same space never re-pay a
    synthesis job, across processes and daemon restarts. ``executor`` is
    the pool the thread backend runs on (the scheduler's shared pool,
    which the stack never shuts down); without it, each batch starts its
    own. ``registry`` is
    the daemon's shared metrics registry; each stack publishes its
    ``nautilus_eval_*`` families there. ``fleet`` is an optional
    :class:`~repro.distributed.FleetCoordinator`; when given, the stack's
    backend dispatches distinct evaluations to the worker fleet instead of
    a local pool (degrading to inline execution while the fleet is empty).
    A spec's own ``workers`` overrides the daemon-wide default.

    ``archive`` is the daemon's shared
    :class:`~repro.archive.DesignArchive`: when given, the stack records
    every evaluation it pays for through it under ``campaign_id`` (with
    ``persistent``, it must be ``archive.store``), and a spec with
    ``warm_start`` gets the archive's top designs injected into its
    initial population (single-objective GA engines only).

    ``objective`` replaces the query's objective for the ``nautilus``,
    ``baseline`` and ``random`` engines (``nautilus optimize --metric``).
    The query's bundled hint kind describes the query's own metric, so a
    ``nautilus`` spec built this way is guided by its inline ``hints``
    alone.
    """
    effective_workers = spec.workers or workers
    if fleet is not None:
        backend = "fleet"
    elif effective_workers > 1:
        backend = "thread"
    else:
        backend = "inline"
    checkpoint_path = (
        Path(campaign_dir) / "checkpoint.json" if campaign_dir is not None else None
    )
    evaluator = EvaluationStack(
        DatasetEvaluator(dataset),
        backend=backend,
        workers=effective_workers,
        executor=executor,
        persistent=persistent,
        registry=registry,
        fleet=fleet,
        archive=archive,
        campaign=campaign_id or spec.label,
    )
    if spec.engine == "pareto":
        multi = MULTI_QUERIES[spec.query]
        objectives, hint_kind = resolve_multi_objectives(multi)
        # Pareto campaigns are unguided by default; inline hints or an
        # explicit confidence (opting into the query's hint kind, mirroring
        # nautilus-vs-baseline) turn guidance on.
        hints = None
        if spec.hints is not None:
            hints = _inline_hints(spec, dataset)
        elif hint_kind and spec.confidence is not None:
            hints = build_hints(hint_kind, spec.confidence)
        config = GAConfig(
            population_size=24,
            generations=spec.generations,
            seed=spec.seed,
            max_evaluations=spec.max_evaluations,
            tracing=spec.tracing,
        )
        return ParetoSearch(
            dataset.space,
            evaluator,
            objectives,
            config,
            hints=hints,
            label=spec.label or "pareto",
            checkpoint_path=checkpoint_path,
        )
    hint_kind = None
    if objective is None:
        objective, hint_kind = resolve_objective(QUERIES[spec.query])
    if spec.engine == "random":
        return RandomSearch(
            dataset.space,
            evaluator,
            objective,
            budget=spec.budget,
            seed=spec.seed,
            label=spec.label or "random",
            tracing=spec.tracing,
        )
    hints = None
    if spec.engine == "nautilus":
        if spec.hints is not None:
            hints = _inline_hints(spec, dataset)
        elif hint_kind is not None:
            hints = build_hints(hint_kind, spec.confidence)
    warm_start: tuple = ()
    if spec.warm_start and archive is not None:
        # Keep at least one random individual: warm seeds replace a prefix
        # of the population, never all of it.
        population_size = GAConfig.__dataclass_fields__["population_size"].default
        count = min(spec.warm_start, population_size - 1)
        warm_start = tuple(
            archive.warm_start_configs(
                dataset.space, evaluator.fingerprint, objective, count
            )
        )
    config = GAConfig(
        generations=spec.generations,
        seed=spec.seed,
        max_evaluations=spec.max_evaluations,
        tracing=spec.tracing,
        warm_start=warm_start,
    )
    return GeneticSearch(
        dataset.space,
        evaluator,
        objective,
        config,
        hints=hints,
        label=spec.label,
        checkpoint_path=checkpoint_path,
    )


@dataclass
class Campaign:
    """The scheduler's live view of one campaign."""

    id: str
    spec: CampaignSpec
    state: str = CampaignState.QUEUED
    error: str = ""
    generations_done: int = 0
    cancel_requested: bool = False
    search: Any = field(default=None, repr=False)
    result: Any = field(default=None, repr=False)
    #: Terminal outcome reloaded from the store after a daemon restart —
    #: served when no live engine object exists for this campaign.
    stored_result: dict[str, Any] | None = field(default=None, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in CampaignState.TERMINAL

    def status_payload(self) -> dict[str, Any]:
        """The JSON body served by ``GET /campaigns/<id>``."""
        payload: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_json(),
            "generations_done": self.generations_done,
        }
        if self.error:
            payload["error"] = self.error
        source = self.result or self.search
        if source is None:
            if self.stored_result:
                for key in (
                    "best_raw", "best_score", "best_config",
                    "distinct_evaluations", "stop_reason", "front", "health",
                ):
                    if key in self.stored_result:
                        payload[key] = self.stored_result[key]
            return payload
        records = source.records
        if records:
            last = records[-1]
            payload["best_raw"] = last.best_raw
            payload["best_score"] = last.best_score
            payload["best_config"] = last.best_config
        payload["distinct_evaluations"] = source.distinct_evaluations
        health = getattr(self.search, "latest_health", None)
        if health is not None:
            payload["health"] = dict(health)
        stop = getattr(source, "stop_reason", None)
        if self.terminal and stop:
            payload["stop_reason"] = stop
        front_raws = getattr(source, "front_raws", None)
        if callable(front_raws):
            try:
                payload["front"] = [list(raws) for raws in front_raws()]
            except NautilusError:  # search built but not started yet
                pass
        return payload

    def curve_payload(self) -> list[dict[str, Any]]:
        """The JSON body served by ``GET /campaigns/<id>/curve``."""
        source = self.result or self.search
        if source is None:
            if self.stored_result:
                return list(self.stored_result.get("curve", []))
            return []
        return [
            {
                "generation": r.generation,
                "distinct_evaluations": r.distinct_evaluations,
                "best_raw": r.best_raw,
                "best_score": r.best_score,
            }
            for r in source.records
        ]
