"""Search engines: the baseline generational GA, the Nautilus guided GA, and
a random-sampling baseline.

The two GAs share one implementation — :class:`GeneticSearch` — because the
paper's Nautilus *is* the baseline GA with hint-aware operators swapped in;
passing ``hints=None`` yields exactly the baseline behaviour. Configuration
defaults follow Section 4.1: population 10, per-gene mutation rate 0.1,
80 generations.

Both engines are thin strategies over the shared
:class:`~repro.core.kernel.SearchKernel`: the kernel owns lifecycle
(start/step/finished/stop_reason with the budget → horizon → stall
precedence), the one seeded generator, and the structured
:class:`~repro.core.kernel.RunEvent` trace; :class:`GeneticSearch` only
declares its scalar score, parent selection, elites, warm start and
best-so-far rule (the generational loop, records and checkpoints are
:class:`~repro.core.kernel.GenerationalEngine`'s), and
:class:`RandomSearch` its draw loop.

Cost accounting: every engine pulls evaluations through an
:class:`~repro.core.evalstack.EvaluationStack`, so result curves are
expressed in *distinct designs evaluated* (synthesis jobs) — the x-axis of
Figures 4-7. Passing a pre-built stack as the ``evaluator`` lets callers
share layers across runs (the service shares a persistent on-disk cache
between campaigns this way); a bare evaluator is wrapped in a fresh
memo-only stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Mapping

from .checkpoint import SearchCheckpoint
from .errors import InfeasibleDesignError, NautilusError
from .evaluator import Evaluator
from .fitness import Objective
from .genome import Genome
from .guidance import GuidanceProvider
from .hints import HintSet
from .kernel import (
    GenerationalEngine,
    GenerationRecord,
    SearchKernel,
    SearchResult,
)
from .selection import Individual, roulette_wheel
from .space import DesignSpace

__all__ = [
    "GAConfig",
    "GenerationRecord",
    "SearchResult",
    "GeneticSearch",
    "RandomSearch",
    "exhaustive_best",
]


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the generational GA (paper Section 4.1 defaults).

    The operators are fixed, as in the PyEvolve GA the paper built on:
    roulette-wheel parent selection, single-point crossover, and one
    seeded generator behind every draw.

    Attributes:
        population_size: Individuals per generation (paper: 10).
        generations: Number of generations to run (paper: 80).
        mutation_rate: Per-gene mutation probability (paper: 0.1).
        crossover_rate: Probability an offspring is bred from two parents
            rather than cloned from one.
        elitism: Number of top individuals copied unchanged into the next
            generation (keeps the best-of-population curve monotone).
        seed: RNG seed; ``None`` draws from the global entropy pool.
            ``0`` is a real seed.
        max_evaluations: Optional hard budget of *distinct* designs
            evaluated (synthesis jobs). The run stops at the end of the
            first generation that exhausts it — the natural stopping rule
            when each evaluation costs CAD-tool hours.
        stall_generations: Optional early-stopping patience: stop after
            this many consecutive generations without best-so-far
            improvement. ``None`` (default) always runs the full horizon,
            as the paper's experiments do.
        observability: Emit per-generation ``hint-attribution`` and
            ``health`` trace events (see :mod:`repro.obs`). On by default;
            the telemetry is derived from already-computed state and
            consumes no RNG draws, so seeded curves are identical with it
            on or off. Each payload is built the first time something
            reads the event, so turning this off saves only the
            provenance tuple ``breed`` records per child and the capture
            of each event's inputs.
        tracing: Record a span tree for the run (see
            :mod:`repro.obs.tracing`): run → generation → phase (``init``
            or ``breed``, then ``evaluate``, ``observe`` and
            ``checkpoint``, each measured) → eval-batch → task. It emits
            no event. Off by default. Same guarantee as observability:
            span ids come from counters, not RNG, so seeded curves are
            bit-identical with tracing on or off.
        warm_start: Known-good configurations (``{param: value}``
            mappings, best first — typically
            :meth:`~repro.archive.DesignArchive.warm_start_configs`)
            injected into the initial population. The full random
            population is drawn exactly as without seeds and the seeds
            then *replace* a prefix of it, so RNG consumption is
            identical either way: an empty tuple is bit-identical to
            today's engine-parity baseline. Seeds go through the
            validating codec path; infeasible or duplicate entries are
            dropped. At most ``population_size`` seeds (leave slack below
            that to retain random diversity).

    Stopping precedence: cutoffs are evaluated between generations, in a
    fixed order — evaluation budget, then generation horizon, then stall
    patience. When several cutoffs trigger on the same generation the first
    in that order wins and becomes ``SearchResult.stop_reason`` (so a run
    that exhausts ``max_evaluations`` on the exact generation its stall
    patience runs out always reports ``"budget"``, deterministically). The
    produced records are identical regardless of which cutoff fired.
    """

    population_size: int = 10
    generations: int = 80
    mutation_rate: float = 0.1
    crossover_rate: float = 0.9
    elitism: int = 1
    seed: int | None = None
    max_evaluations: int | None = None
    stall_generations: int | None = None
    observability: bool = True
    tracing: bool = False
    warm_start: tuple = ()

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise NautilusError("population_size must be >= 2")
        if self.generations < 1:
            raise NautilusError("generations must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise NautilusError("crossover_rate must be in [0, 1]")
        if self.elitism < 0 or self.elitism >= self.population_size:
            raise NautilusError("elitism must be in [0, population_size)")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise NautilusError("max_evaluations must be >= 1")
        if self.stall_generations is not None and self.stall_generations < 1:
            raise NautilusError("stall_generations must be >= 1")
        if self.warm_start:
            seeds = []
            for entry in self.warm_start:
                if not isinstance(entry, Mapping):
                    raise NautilusError(
                        "warm_start entries must be {param: value} mappings"
                    )
                seeds.append(dict(entry))
            if len(seeds) > self.population_size:
                raise NautilusError(
                    "warm_start cannot carry more seeds than population_size"
                )
            object.__setattr__(self, "warm_start", tuple(seeds))
        elif self.warm_start != ():
            object.__setattr__(self, "warm_start", ())


class GeneticSearch(GenerationalEngine):
    """The generational GA engine (baseline when ``hints is None``).

    The engine exposes an *incremental* API so external schedulers (see
    :mod:`repro.service`) can interleave generations from many concurrent
    searches: :meth:`start` evaluates the initial population and returns the
    generation-0 record, each :meth:`step` advances exactly one generation
    and returns its record (or ``None`` once a cutoff fires), and
    :meth:`result` packages the state reached so far. :meth:`run` is a thin
    loop over those three calls, so stepping a search one generation at a
    time — even interleaved with other searches — produces bit-identical
    results to a blocking ``run()``.

    Args:
        space: Design space to search.
        evaluator: Metric source for design points — either a bare
            :class:`~repro.core.evaluator.Evaluator` (wrapped in a fresh
            :class:`~repro.core.evalstack.EvaluationStack` internally) or a
            pre-built stack to share caches/backends with other runs.
        objective: What to optimize.
        config: GA hyper-parameters.
        hints: IP-author hints; ``None`` gives the paper's baseline GA.
            Shorthand for ``guidance=StaticHints(hints)``.
        label: Free-form label carried into the result (for plots).
        guidance: A :class:`~repro.core.guidance.GuidanceProvider` steering
            the operators generation by generation. Mutually exclusive with
            ``hints``. ``guidance=AdaptiveConfidence(hints)`` is the
            adaptive-confidence extension.
        checkpoint_path: Journal file for checkpoint/resume (see
            :class:`~repro.core.kernel.GenerationalEngine`); ``None``
            writes no journal.
    """

    def __init__(
        self,
        space: DesignSpace,
        evaluator: Evaluator,
        objective: Objective,
        config: GAConfig | None = None,
        hints: HintSet | None = None,
        label: str = "",
        guidance: GuidanceProvider | None = None,
        checkpoint_path: str | Path | None = None,
        clock=None,
    ):
        config = config or GAConfig()
        guided = hints is not None or guidance is not None
        super().__init__(
            space,
            evaluator,
            objective,
            config,
            label=label or ("nautilus" if guided else "baseline"),
            selection=roulette_wheel,
            bind_objective=objective,
            hints=hints,
            guidance=guidance,
            checkpoint_path=checkpoint_path,
            clock=clock,
        )
        #: Archived seeds actually injected into generation 0 (stays 0 on a
        #: cold start *and* on a checkpoint resume, which never re-seeds).
        self.warm_start_seeds = 0

    # -- scoring ------------------------------------------------------------------

    #: Records, guidance feedback and attribution read the one score.
    _scalar = staticmethod(attrgetter("score"))

    def _individual(self, genome: Genome, metrics) -> Individual:
        if metrics is None:
            return Individual(genome, float("-inf"), float("nan"))
        raw, score = self.objective.assess(metrics)
        return Individual(genome, score, raw)

    # -- kernel hooks --------------------------------------------------------------

    def _initial_genomes(self) -> list[Genome]:
        genomes = super()._initial_genomes()
        # Warm-start seeds replace a prefix *after* the full random draw,
        # so RNG consumption is identical with or without seeds — an empty
        # warm_start stays bit-identical to the engine-parity baseline.
        seeds = self._warm_start_genomes()
        for position, seed in enumerate(seeds):
            genomes[position] = seed
        self.warm_start_seeds = len(seeds)
        return genomes

    def _warm_start_genomes(self) -> list[Genome]:
        seeds: list[Genome] = []
        seen: set[tuple[int, ...]] = set()
        for config in self.config.warm_start:
            genome = self.space.genome(config)  # validating codec path
            if genome.codes in seen or not self.space.is_feasible(genome):
                continue
            seen.add(genome.codes)
            seeds.append(genome)
        return seeds

    def _elites(self) -> list[Individual]:
        ranked = sorted(self._population, key=lambda i: i.score, reverse=True)
        return ranked[: self.config.elitism]

    def _observe_start(self) -> None:
        self._best = max(self._population, key=lambda ind: ind.score)

    def _observe(self, generation: int) -> bool:
        gen_best = max(self._population, key=lambda ind: ind.score)
        if gen_best.score > self._best.score:
            self._best = gen_best
            return True
        return False

    def _restore_population(self, checkpoint: SearchCheckpoint) -> None:
        super()._restore_population(checkpoint)
        # The best so far may have left the population (elitism 0).
        for row in checkpoint.records:
            if row["best_score"] > self._best.score:
                genome = self.space.genome(row["best_config"])
                self._best = self._assess_all([genome])[0]


class RandomSearch(SearchKernel):
    """Uniform random sampling baseline (paper footnote 3).

    Samples feasible points without replacement until the budget is spent,
    recording the best-so-far curve with the same bookkeeping as the GA so
    the two are directly comparable.

    Exposes the same incremental surface as :class:`GeneticSearch`
    (:meth:`start` / :meth:`step` / :meth:`result`), where one step is one
    budget-consuming draw, so the service scheduler can interleave random
    baselines with GA campaigns.
    """

    def __init__(
        self,
        space: DesignSpace,
        evaluator: Evaluator,
        objective: Objective,
        budget: int,
        seed: int | None = None,
        label: str = "random",
        tracing: bool = False,
        clock=None,
    ):
        if budget < 1:
            raise NautilusError("budget must be >= 1")
        super().__init__(
            space, evaluator, objective, label=label, seed=seed,
            tracing=tracing, clock=clock,
        )
        self.budget = budget
        self._draws = 0
        self._attempts = 0
        self._max_attempts = budget * 50

    @property
    def generation(self) -> int:
        """Budget-consuming draws so far (the random analogue of a generation)."""
        return self._draws

    def _do_start(self) -> None:
        """Nothing to do; random search has no generation 0."""
        return None

    def _do_step(self) -> GenerationRecord | None:
        """Consume budget until one feasible draw lands; return its record.

        Infeasible draws consume budget (the synthesis attempt was paid
        for) but produce no record; the step keeps drawing until a feasible
        design is found or a cutoff fires (``None``: budget spent, or the
        rejection-sampling attempt cap was hit on a near-exhausted space).
        """
        rng = self.rng
        while self._draws < self.budget and self._attempts < self._max_attempts:
            self._attempts += 1
            genome = self.space.random_genome(rng)
            if self._counter.seen(genome):
                continue
            try:
                metrics = self._counter.evaluate(genome)
                individual = Individual(
                    genome,
                    self.objective.score(metrics),
                    self.objective.raw(metrics),
                )
            except InfeasibleDesignError:
                self._draws += 1
                continue
            self._draws += 1
            improved = self._best is None or individual.score > self._best.score
            if improved:
                self._best = individual
            record = GenerationRecord(
                generation=self._draws,
                best_raw=self._best.raw,
                best_score=self._best.score,
                mean_score=self._best.score,
                distinct_evaluations=self._counter.distinct_evaluations,
                best_config=self._best.genome.as_dict(),
            )
            if improved:
                self._trace.emit(
                    "best-improved",
                    self._draws,
                    {"best_raw": record.best_raw, "best_score": record.best_score},
                )
            self._push_record(record)
            return record
        self._finish("budget" if self._draws >= self.budget else "exhausted")
        return None

    def result(self) -> SearchResult:
        if self._best is None:
            raise NautilusError("random search evaluated no feasible design")
        return super().result()


def exhaustive_best(
    space: DesignSpace, evaluator: Evaluator, objective: Objective
) -> Individual:
    """Brute-force the whole space; reference optimum for quality-of-results.

    Only tractable because our substrates replace hours-long synthesis with a
    fast analytical flow; the paper used a 200+ core cluster for the same
    preparatory step.
    """
    best: Individual | None = None
    for genome in space.iter_genomes():
        try:
            metrics = evaluator.evaluate(genome)
        except InfeasibleDesignError:
            continue
        individual = Individual(
            genome, objective.score(metrics), objective.raw(metrics)
        )
        if best is None or individual.score > best.score:
            best = individual
    if best is None:
        raise NautilusError(f"space {space.name!r} has no feasible design")
    return best
