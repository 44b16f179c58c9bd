"""Multi-objective (Pareto) search — an extension beyond the paper's queries.

The paper's related-work section contrasts Nautilus with active-learning
approaches that "model the entire Pareto-optimal set of design points across
a multi-objective space" and argues query-based search scales better. Still,
IP users often want to *see* a trade-off front (Figure 2 is one), so this
module extends the engine with an NSGA-II-style multi-objective GA that
reuses the whole Nautilus substrate:

* the same genomes/spaces/evaluators (and distinct-evaluation accounting);
* the same hint-guided mutation operators — importance, decay, orderings and
  steps apply unchanged; bias/target hints, which are inherently directional,
  are taken as authored (pointing at the region of interest);
* non-dominated sorting over the pool's distinct score vectors plus
  crowding-distance selection (Deb et al., 2002);
* the same :class:`~repro.core.kernel.SearchKernel` substrate as the
  single-objective engines — NSGA-II is just a different selection
  strategy (rank/crowding tournament) and survivor rule plugged into the
  shared generational loop, so :class:`ParetoSearch` speaks the full
  incremental protocol (``start()``/``step()``/``stop_reason``,
  ``max_evaluations``/``stall_generations`` cutoffs, RNG-stream
  checkpointing, and the structured :class:`~repro.core.kernel.RunEvent`
  trace) and the service can schedule and resume Pareto campaigns like any
  other engine.

Progress bookkeeping: the per-generation :class:`GenerationRecord` curve is
the projection of the front onto the *first* objective (best raw/score of
the non-dominated set), so multi-objective campaigns plot on the same axes
as single-objective ones; stall detection instead watches the whole front —
a generation "improves" when the non-dominated set changes at all.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Mapping, Sequence

from .checkpoint import SearchCheckpoint
from .engine import GAConfig
from .errors import InfeasibleDesignError, NautilusError
from .evalstack import EvalStats
from .evaluator import Evaluator
from .fitness import Objective
from .genome import Genome
from .guidance import GuidanceProvider
from .hints import HintSet
from .kernel import GenerationalEngine, GenerationRecord, RunEvent, _copy_timings
from .selection import Individual
from .space import DesignSpace

__all__ = [
    "ParetoIndividual",
    "ParetoResult",
    "ParetoSearch",
    "dominates",
    "non_dominated_sort",
    "crowding_distances",
    "hypervolume_2d",
]


class ParetoIndividual:
    """A genome scored against several objectives."""

    __slots__ = ("genome", "raws", "scores", "rank", "crowding")

    def __init__(self, genome: Genome, raws: tuple[float, ...], scores: tuple[float, ...]):
        self.genome = genome
        #: Raw metric values in objective order (natural signs).
        self.raws = raws
        #: Internal scores, each higher-is-better.
        self.scores = scores
        self.rank = 0
        self.crowding = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParetoIndividual(raws={self.raws}, rank={self.rank})"


def _dominance(a: Sequence[float], b: Sequence[float]) -> int:
    """1 if ``a`` dominates ``b``, -1 if ``b`` dominates ``a``, else 0.

    The one dominance rule (higher is better): at least as good on every
    objective and strictly better on one. A NaN on either side makes the
    pair incomparable.
    """
    a_better = b_better = False
    for x, y in zip(a, b):
        if x > y:
            if b_better:
                return 0
            a_better = True
        elif y > x:
            if a_better:
                return 0
            b_better = True
        elif x != y:  # NaN: neither >= holds
            return 0
    if a_better:
        return 1
    return -1 if b_better else 0


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether score vector ``a`` Pareto-dominates ``b`` (higher is better)."""
    return _dominance(a, b) > 0


def non_dominated_sort(
    population: Sequence[ParetoIndividual],
) -> list[list[ParetoIndividual]]:
    """Non-dominated sorting into fronts (front 0 = non-dominated).

    Works on the distinct score vectors, not the members: GA pools hold
    many copies of one vector, and copies never dominate each other.
    Sorted descending lexicographically, a later vector can never
    dominate an earlier one, and an earlier one is already >= on the
    first objective, so it dominates a later one exactly when it is >= on
    every other objective: one test per unordered pair. A vector holding
    a NaN is incomparable to every other and takes rank 0.

    Sets ``rank`` on every member to its front's index. Order contract,
    which survivor truncation and the index-drawing tournament depend on
    (it is the textbook member-by-member peel-off's order): front 0 lists
    its members in population order; a member of a later front follows
    the position of its last dominator in the previous front, and members
    freed by the same dominator follow population order.
    """
    members: dict[tuple, list[int]] = {}
    for i, ind in enumerate(population):
        members.setdefault(ind.scores, []).append(i)
    vectors = sorted(
        (v for v in members if not any(map(math.isnan, v))), reverse=True
    )
    groups = [members[v] for v in vectors]
    group_of = [-1] * len(population)
    # beaten[g]: the vectors g dominates; count[g]: the number of
    # *members* dominating g, decremented by a whole group at once.
    beaten: list[Sequence[int]] = []
    count = [0] * len(vectors)
    # The sort settles the first objective; filter on the others.
    others = list(zip(*vectors))[1:]
    for a, top in enumerate(vectors):
        for i in groups[a]:
            group_of[i] = a
        below: Sequence[int] = range(a + 1, len(vectors))
        for column, bound in zip(others, top[1:]):
            below = [b for b in below if column[b] <= bound]
        beaten.append(below)
        for b in below:
            count[b] += len(groups[a])
    front = [i for i, g in enumerate(group_of) if g < 0 or not count[g]]
    fronts: list[list[ParetoIndividual]] = []
    while front:
        fronts.append([population[i] for i in front])
        for ind in fronts[-1]:
            ind.rank = len(fronts) - 1
        next_front: list[int] = []
        for i in front:
            g = group_of[i]
            # A group's members share one front, and its last member in
            # front order is its highest index; a vector it dominates is
            # freed exactly when that member would free it.
            if g < 0 or groups[g][-1] != i:
                continue
            freed = []
            for b in beaten[g]:
                count[b] -= len(groups[g])
                if not count[b]:
                    freed.append(b)
            if freed:
                next_front.extend(sorted(j for b in freed for j in groups[b]))
        front = next_front
    return fronts


def crowding_distances(front: Sequence[ParetoIndividual]) -> None:
    """Assign crowding distances in place (extremes get infinity)."""
    n = len(front)
    for individual in front:
        individual.crowding = 0.0
    if n <= 2:
        for individual in front:
            individual.crowding = float("inf")
        return
    num_objectives = len(front[0].scores)
    for m in range(num_objectives):
        ordered = sorted(front, key=lambda ind: ind.scores[m])
        ordered[0].crowding = float("inf")
        ordered[-1].crowding = float("inf")
        span = ordered[-1].scores[m] - ordered[0].scores[m]
        # A zero, infinite or NaN span (ties, or -inf scores of infeasible
        # members) leaves this objective to the extremes alone.
        if not 0.0 < span < float("inf"):
            continue
        for k in range(1, n - 1):
            ordered[k].crowding += (
                ordered[k + 1].scores[m] - ordered[k - 1].scores[m]
            ) / span


def hypervolume_2d(
    front: Sequence[tuple[float, float]], reference: tuple[float, float]
) -> float:
    """2-D hypervolume (higher-is-better scores) w.r.t. a reference point."""
    points = sorted(
        (p for p in front if p[0] > reference[0] and p[1] > reference[1]),
        key=lambda p: p[0],
    )
    # Keep only the non-dominated staircase.
    volume = 0.0
    best_y = reference[1]
    for x, y in sorted(points, key=lambda p: -p[0]):
        if y > best_y:
            volume += (x - reference[0]) * (y - best_y)
            best_y = y
    return volume


class ParetoResult:
    """Outcome of a multi-objective search."""

    def __init__(
        self,
        objectives: Sequence[Objective],
        front: list[ParetoIndividual],
        distinct_evaluations: int,
        eval_stats: EvalStats | None = None,
        label: str = "pareto",
        stop_reason: str = "horizon",
        records: Sequence[GenerationRecord] = (),
        events: Sequence[RunEvent] = (),
        operator_timings: Mapping[str, Mapping[str, float]] | None = None,
    ):
        self.objectives = list(objectives)
        self.front = front
        self.distinct_evaluations = distinct_evaluations
        #: Evaluation-pipeline counters/timers for the whole run.
        self.eval_stats = eval_stats or EvalStats()
        self.label = label
        #: Why the search ended (same vocabulary as single-objective runs).
        self.stop_reason = stop_reason
        #: First-objective projection of the front, one record per generation.
        self.records = list(records)
        #: The structured trace of the run (empty for hand-built results).
        self.events = list(events)
        self._operator_timings = _copy_timings(operator_timings or {})

    def front_raws(self) -> list[tuple[float, ...]]:
        """Raw metric tuples of the non-dominated set, sorted by the first."""
        return sorted(ind.raws for ind in self.front)

    def front_configs(self) -> list[dict[str, Any]]:
        """Parameter assignments of the non-dominated set."""
        return [ind.genome.as_dict() for ind in self.front]

    def curve(self) -> list[tuple[int, float]]:
        """(distinct evals, first-objective best raw) after each generation."""
        return [(r.distinct_evaluations, r.best_raw) for r in self.records]

    def operator_timings(self) -> dict[str, dict[str, float]]:
        """{operator: {calls, time_s}} over the run, as the search's
        :meth:`~repro.core.kernel.SearchKernel.operator_timings` read at
        result time."""
        return _copy_timings(self._operator_timings)

    def hypervolume(self, reference_raws: tuple[float, float]) -> float:
        """2-objective hypervolume against a reference point in raw units."""
        if len(self.objectives) != 2:
            raise NautilusError("hypervolume() supports exactly 2 objectives")
        ref = tuple(
            raw if obj.maximizing else -raw
            for obj, raw in zip(self.objectives, reference_raws)
        )
        points = [
            tuple(
                raw if obj.maximizing else -raw
                for obj, raw in zip(self.objectives, ind.raws)
            )
            for ind in self.front
        ]
        return hypervolume_2d(points, ref)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParetoResult({len(self.front)} non-dominated designs, "
            f"{self.distinct_evaluations} evals)"
        )


class ParetoSearch(GenerationalEngine):
    """NSGA-II-style multi-objective search over a design space.

    Args:
        space: Design space.
        evaluator: Metric source (wrapped in a counting cache).
        objectives: Two or more objectives; each may be a metric name
            wrapped by :func:`~repro.core.fitness.maximize` /
            :func:`~repro.core.fitness.minimize` or a composite.
        config: Reuses :class:`~repro.core.engine.GAConfig`; multi-objective
            runs usually want a larger population than single-query runs.
            ``max_evaluations`` and ``stall_generations`` cut the run off
            with the same budget → horizon → stall precedence as the
            single-objective engines (a generation counts as *stalled* when
            the non-dominated front did not change).
        hints: Optional author hints; see the module docstring for how the
            directional hints are interpreted. Shorthand for
            ``guidance=StaticHints(hints)``.
        label: Free-form label carried into the result.
        guidance: A :class:`~repro.core.guidance.GuidanceProvider`;
            mutually exclusive with ``hints``. Providers are bound without
            an orienting objective — multi-objective hints are taken as
            authored (see the module docstring).
        checkpoint_path: Journal file for checkpoint/resume, as for
            :class:`~repro.core.engine.GeneticSearch`. Scores are not
            journaled: a resume re-assesses the population from the
            restored evaluation cache and re-ranks it, so the NSGA-II state
            (ranks, crowding, front signature) is rebuilt bit-identically.
    """

    def __init__(
        self,
        space: DesignSpace,
        evaluator: Evaluator,
        objectives: Sequence[Objective],
        config: GAConfig | None = None,
        hints: HintSet | None = None,
        label: str = "pareto",
        guidance: GuidanceProvider | None = None,
        checkpoint_path: str | Path | None = None,
        clock=None,
    ):
        if len(objectives) < 2:
            raise NautilusError("ParetoSearch needs at least 2 objectives")
        self.objectives = list(objectives)
        super().__init__(
            space,
            evaluator,
            # Records/curves project onto the first objective.
            self.objectives[0],
            config or GAConfig(population_size=24, elitism=1),
            label=label,
            selection=self._tournament,
            # No orienting objective: directional hints point at the region
            # of interest as authored (module docstring), so only validate.
            bind_objective=None,
            hints=hints,
            guidance=guidance,
            checkpoint_path=checkpoint_path,
            clock=clock,
        )
        self._front_signature: tuple = ()

    # -- scoring ------------------------------------------------------------------

    def _assess(self, genome: Genome) -> ParetoIndividual:
        return self._assess_all([genome])[0]

    def _assess_all(self, genomes: Sequence[Genome]) -> list[ParetoIndividual]:
        """Score genomes as one batch, outside the kernel's traced path."""
        return self._to_individuals(genomes, self._counter.evaluate_many(genomes))

    def _to_individuals(
        self, genomes: Sequence[Genome], outcomes: Sequence
    ) -> list[ParetoIndividual]:
        individuals = []
        for genome, outcome in zip(genomes, outcomes):
            if isinstance(outcome, InfeasibleDesignError):
                worst = tuple(float("-inf") for _ in self.objectives)
                nan = tuple(float("nan") for _ in self.objectives)
                individuals.append(ParetoIndividual(genome, nan, worst))
            elif isinstance(outcome, Exception):
                raise outcome
            else:
                raws = tuple(obj.raw(outcome) for obj in self.objectives)
                scores = tuple(obj.score(outcome) for obj in self.objectives)
                individuals.append(ParetoIndividual(genome, raws, scores))
        return individuals

    @staticmethod
    def _tournament(
        population: Sequence[ParetoIndividual], rng
    ) -> ParetoIndividual:
        a = population[rng.randrange(len(population))]
        b = population[rng.randrange(len(population))]
        if a.rank != b.rank:
            return a if a.rank < b.rank else b
        return a if a.crowding >= b.crowding else b

    # -- kernel hooks --------------------------------------------------------------

    def _guidance_feedback(self) -> float | None:
        # Project onto the first objective, like the record/curve bookkeeping.
        if not self._population:
            return None
        return max(ind.scores[0] for ind in self._population)

    def _initial_genomes(self) -> list[Genome]:
        return self.space.random_population(
            self.config.population_size, self.rngs.init
        )

    def _propose(
        self, generation: int, timings: dict[str, list[float]]
    ) -> list[Genome]:
        # Breed the whole generation first, then score it as one batch —
        # breeding never reads fitness of the offspring, so this is
        # bit-identical to assessing each child as it is bred, and it
        # gives the stack population-sized batches to fan out. NSGA-II's
        # elitism lives in the survivor rule (parents compete in the pool),
        # so no individuals are copied here.
        return self.pipeline.breed(
            self._population,
            self._guidance_state,
            self.rngs,
            self.config.population_size,
            timings,
        )

    def _offspring_attribution(self, offspring) -> tuple[float, ...]:
        # Every offspring is bred (NSGA-II elitism lives in the survivor
        # rule); attribution projects onto the first objective like the
        # record/curve bookkeeping.
        return tuple(ind.scores[0] for ind in offspring)

    def _survivors(self, offspring: list[ParetoIndividual]) -> list[ParetoIndividual]:
        # Environmental selection over the combined parent+offspring pool.
        pool = self._population + offspring
        fronts = non_dominated_sort(pool)
        survivors: list[ParetoIndividual] = []
        for front in fronts:
            crowding_distances(front)
            if len(survivors) + len(front) <= self.config.population_size:
                survivors.extend(front)
            else:
                remaining = self.config.population_size - len(survivors)
                survivors.extend(
                    sorted(front, key=lambda ind: -ind.crowding)[:remaining]
                )
                break
        self._rank(survivors)
        return survivors

    def _observe_start(self) -> None:
        self._rank(self._population)
        self._front_signature = self._signature()
        self._best = self._projected_best()

    def _observe(self, generation: int) -> bool:
        signature = self._signature()
        improved = signature != self._front_signature
        self._front_signature = signature
        self._best = self._projected_best()
        return improved

    def _make_record(self, generation: int) -> GenerationRecord:
        finite = [
            ind.scores[0]
            for ind in self._population
            if ind.scores[0] != float("-inf")
        ]
        mean_score = sum(finite) / len(finite) if finite else float("-inf")
        return GenerationRecord(
            generation=generation,
            best_raw=self._best.raw,
            best_score=self._best.score,
            mean_score=mean_score,
            distinct_evaluations=self._counter.distinct_evaluations,
            best_config=self._best.genome.as_dict(),
        )

    def _restore_population(self, checkpoint: SearchCheckpoint) -> None:
        self._population = self._assess_all(
            checkpoint.population_genomes(self.space)
        )
        self._rank(self._population)
        self._front_signature = self._signature()
        self._best = self._projected_best()

    # -- front bookkeeping ---------------------------------------------------------

    def _signature(self) -> tuple:
        """Canonical fingerprint of the current non-dominated set.

        Built on code vectors: signatures are only ever compared for
        equality (stall detection), and within one space codes identify a
        design exactly — no value decode needed.
        """
        return tuple(
            sorted(
                (ind.genome.codes, ind.scores)
                for ind in self._finite_front()
            )
        )

    def _finite_front(self) -> list[ParetoIndividual]:
        """Deduplicated feasible front-0 members of the current population.

        Read from the ranks that start, the survivor step and checkpoint
        resume assign to every population they install. A member with a
        ``-inf`` score never dominates one without, so the finite rank-0
        members, in population order, are exactly front 0 of sorting the
        finite members alone.
        """
        seen: set[tuple] = set()
        front = []
        for ind in self._population:
            if (
                ind.rank == 0
                and float("-inf") not in ind.scores
                and ind.genome.codes not in seen
            ):
                seen.add(ind.genome.codes)
                front.append(ind)
        return front

    def _projected_best(self) -> Individual:
        """The population's best design on the first objective, as an
        :class:`Individual`, for the record/curve projection."""
        best = max(self._population, key=lambda ind: ind.scores[0])
        return Individual(best.genome, best.scores[0], best.raws[0])

    def front(self) -> list[ParetoIndividual]:
        """The current non-dominated set (live view, callable mid-run)."""
        if not self.started:
            raise NautilusError("search has not started")
        return self._finite_front()

    def front_raws(self) -> list[tuple[float, ...]]:
        """Raw metric tuples of the current front, sorted by the first."""
        return sorted(ind.raws for ind in self.front())

    # -- results -------------------------------------------------------------------

    def result(self) -> ParetoResult:
        """Package the non-dominated set reached so far."""
        if self._best is None:
            raise NautilusError("search has not started")
        return ParetoResult(
            self.objectives,
            self._finite_front(),
            self._counter.distinct_evaluations,
            eval_stats=self._counter.stats(),
            label=self.label,
            stop_reason=self.stop_reason or "cancelled",
            records=self.records,
            events=self.trace_events,
            operator_timings=self._operators,
        )

    def run(self) -> ParetoResult:
        """Evolve the population and return the final non-dominated set."""
        return super().run()

    @staticmethod
    def _rank(population: list[ParetoIndividual]) -> None:
        for front in non_dominated_sort(population):
            crowding_distances(front)
