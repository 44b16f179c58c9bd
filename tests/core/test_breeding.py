"""Whole-generation breeding equals the per-child breeding sequence.

:meth:`BreedingPipeline.breed` produces a generation in one loop and charges
per-operator timings once per call. The reference below is the per-child
sequence it replaced, written out step by step: it must consume the same
RNG draws, produce the same genomes, make the same observer calls and
charge the same timings (read from a counting clock, so even the float
sums compare exactly).
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ChoiceParam,
    DesignSpace,
    GeneticOperators,
    GuidanceState,
    HintSet,
    IntParam,
    ParamHints,
    scalar_score,
)
from repro.core.kernel import RngStreams
from repro.core.operators import _CROSSOVERS, BreedingPipeline
from repro.core.population import Population
from repro.core.selection import SELECTION_STRATEGIES, Individual


class CountingClock:
    """Each read returns the next multiple of 1/8 (exact in binary)."""

    def __init__(self):
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self.reads * 0.125


class RecordingObserver:
    """Every breeding-observer call, in order."""

    def __init__(self):
        self.calls = []

    def child_started(self, parent_score):
        self.calls.append(("child_started", parent_score))

    def crossover_applied(self):
        self.calls.append(("crossover_applied",))

    def child_finished(self):
        self.calls.append(("child_finished",))

    def mutation_attempted(self, mutations):
        self.calls.append(("mutation_attempted", tuple(mutations)))

    def mutation_committed(self, attempts, fallback):
        self.calls.append(("mutation_committed", attempts, fallback))


def _charge(timings, operator, seconds):
    entry = timings.setdefault(operator, [0, 0.0])
    entry[0] += 1
    entry[1] += seconds


def reference_breed(pipeline, population, guidance, rngs, count, timings):
    """One child at a time, each operator charged as soon as it ran."""
    observer = pipeline.operators.observer
    clock = pipeline.clock
    children = []
    for _ in range(count):
        if timings is not None:
            t0 = clock()
        parent = pipeline.select(population, rngs.selection)
        genome = parent.genome
        if timings is not None:
            _charge(timings, "selection", clock() - t0)
        if observer is not None:
            observer.child_started(scalar_score(parent))
        if rngs.crossover.random() < pipeline.crossover_rate:
            if timings is not None:
                t1 = clock()
            other = pipeline.select(population, rngs.selection)
            if timings is not None:
                t2 = clock()
                _charge(timings, "selection", t2 - t1)
            for _ in range(pipeline.CROSSOVER_ATTEMPTS):
                candidate = pipeline.crossover(
                    parent.genome, other.genome, rngs.crossover
                )
                if pipeline.space.is_feasible(candidate):
                    genome = candidate
                    if observer is not None:
                        observer.crossover_applied()
                    break
            if timings is not None:
                _charge(timings, "crossover", clock() - t2)
        if timings is not None:
            t3 = clock()
        children.append(
            pipeline.operators.mutate_feasible(genome, guidance, rngs.mutation)
        )
        if timings is not None:
            _charge(timings, "mutation", clock() - t3)
        if observer is not None:
            observer.child_finished()
    return children


@st.composite
def breeding_cases(draw):
    params = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            params.append(IntParam(f"p{i}", 0, draw(st.integers(0, 4))))
        else:
            values = ("u", "v", "w")[: draw(st.integers(2, 3))]
            params.append(ChoiceParam(f"p{i}", values))
    names = [p.name for p in params]
    points = list(itertools.product(*(p.values for p in params)))
    forbidden = set()
    if draw(st.booleans()):
        # A pure constraint over the whole config: a drawn set of forbidden
        # points, always leaving at least one feasible.
        forbidden = {
            points[i]
            for i in draw(st.sets(st.integers(0, len(points) - 1)))
        }
        forbidden.discard(points[draw(st.integers(0, len(points) - 1))])
    constraints = (
        [lambda cfg: tuple(cfg[n] for n in names) not in forbidden]
        if forbidden
        else []
    )
    space = DesignSpace("breed", params, constraints=constraints)

    generation = draw(st.integers(0, 5))
    if draw(st.booleans()):
        guidance = GuidanceState.neutral(generation)
    else:
        hints = {}
        for param in params:
            if not draw(st.booleans()):
                continue
            importance = draw(st.integers(1, 100))
            if param.cardinality < 2:
                hints[param.name] = ParamHints(importance=importance)
            elif isinstance(param, IntParam) and draw(st.booleans()):
                hints[param.name] = ParamHints(
                    importance=importance,
                    target=draw(st.sampled_from(param.values)),
                )
            else:
                ordering = (
                    None
                    if isinstance(param, IntParam)
                    else tuple(draw(st.permutations(param.values)))
                )
                hints[param.name] = ParamHints(
                    importance=importance,
                    bias=draw(st.floats(-1.0, 1.0)),
                    ordering=ordering,
                    step=draw(st.one_of(st.none(), st.integers(1, 4))),
                )
        hint_set = HintSet(
            hints,
            confidence=draw(st.floats(0.0, 1.0)),
            importance_decay=draw(st.sampled_from((0.0, 0.2))),
        )
        hint_set.validate(space)
        guidance = GuidanceState.from_hints(hint_set, generation)

    return {
        "space": space,
        "guidance": guidance,
        "select": draw(st.sampled_from(sorted(SELECTION_STRATEGIES))),
        "crossover": draw(st.sampled_from(sorted(_CROSSOVERS))),
        "crossover_rate": draw(st.sampled_from((0.0, 0.5, 0.9, 1.0))),
        "mutation_rate": draw(st.sampled_from((0.0, 0.1, 0.5, 1.0))),
        "population_size": draw(st.integers(1, 8)),
        "scores": draw(
            st.lists(
                st.one_of(st.floats(-10.0, 10.0), st.just(float("-inf"))),
                min_size=8,
                max_size=8,
            )
        ),
        "seed": draw(st.integers(0, 2**16)),
        "split": draw(st.booleans()),
        "count": draw(st.integers(1, 30)),
        "timed": draw(st.booleans()),
        "observed": draw(st.booleans()),
    }


def _pipeline(case):
    operators = GeneticOperators(case["space"], case["mutation_rate"])
    if case.get("observed", True):
        operators.observer = RecordingObserver()
    return BreedingPipeline(
        case["space"],
        operators,
        SELECTION_STRATEGIES[case["select"]],
        _CROSSOVERS[case["crossover"]],
        case["crossover_rate"],
        clock=CountingClock(),
    )


def _population(case):
    space = case["space"]
    genomes = space.random_population(
        case["population_size"], random.Random(case["seed"])
    )
    return Population(
        [
            Individual(genome, score, score)
            for genome, score in zip(genomes, case["scores"])
        ]
    )


@settings(max_examples=150, deadline=None)
@given(breeding_cases())
def test_generation_breed_equals_per_child_sequence(case):
    population = _population(case)
    runs = []
    for breed in ("generation", "reference"):
        pipeline = _pipeline(case)
        rngs = RngStreams(case["seed"], split=case["split"])
        timings = {} if case["timed"] else None
        if breed == "generation":
            children = pipeline.breed(
                population, case["guidance"], rngs, case["count"], timings
            )
        else:
            children = reference_breed(
                pipeline, population, case["guidance"], rngs, case["count"],
                timings,
            )
        runs.append(
            (
                [child.codes for child in children],
                [rngs.stream(name).getstate() for name in RngStreams.NAMES],
                getattr(pipeline.operators.observer, "calls", None),
                None if timings is None else list(timings.items()),
                pipeline.clock.reads,
            )
        )
    generation, reference = runs
    space = case["space"]
    assert len(generation[0]) == case["count"]
    assert all(
        space.is_feasible(space.genome_from_indices(codes))
        for codes in generation[0]
    )
    assert generation[0] == reference[0]
    assert generation[1] == reference[1]
    assert generation[2] == reference[2]
    # Same keys in the same order (the order the kernel charges its
    # operator totals in), same call counts, same float sums.
    assert generation[3] == reference[3]
    assert generation[4] == reference[4]
    if not case["timed"]:
        assert generation[4] == 0


def test_zero_count_breeds_nothing_and_charges_nothing():
    space = DesignSpace("z", [IntParam("a", 0, 3)])
    case = {
        "space": space, "select": "roulette", "crossover": "uniform",
        "crossover_rate": 0.9, "mutation_rate": 0.1,
    }
    pipeline = _pipeline(case)
    population = Population(
        [Individual(g, 1.0, 1.0) for g in space.random_population(4, random.Random(1))]
    )
    rngs = RngStreams(5)
    before = rngs.mutation.getstate()
    timings = {}
    assert pipeline.breed(population, GuidanceState.neutral(), rngs, 0, timings) == []
    assert timings == {}
    assert rngs.mutation.getstate() == before


class TestHintTablesPerSearch:
    @pytest.fixture
    def hints(self):
        return HintSet(
            {
                "a": ParamHints(importance=90, bias=0.8),
                "c": ParamHints(importance=20, bias=-0.5, ordering=("y", "x", "z")),
            },
            confidence=0.7,
            importance_decay=0.3,
        )

    @pytest.fixture
    def space(self):
        return DesignSpace(
            "tables", [IntParam("a", 0, 7), ChoiceParam("c", ("x", "y", "z"))]
        )

    def test_tables_built_once_per_hint_set(self, space, hints, monkeypatch):
        import repro.core.operators as operators_module

        builds = []
        real = operators_module._gene_guides

        def counting(codec, hint_set):
            builds.append(hint_set)
            return real(codec, hint_set)

        monkeypatch.setattr(operators_module, "_gene_guides", counting)
        ops = GeneticOperators(space, 0.3)
        genome = space.genome({"a": 3, "c": "x"})
        rng = random.Random(4)
        for generation in range(6):
            ops.mutate(genome, GuidanceState.from_hints(hints, generation), rng)
        assert builds == [hints]
        other = hints.with_confidence(0.2)
        ops.mutate(genome, GuidanceState.from_hints(other, 6), rng)
        ops.mutate(genome, GuidanceState.neutral(7), rng)
        assert builds == [hints, other, None]

    def test_shared_tables_mutate_like_fresh_ones(self, space, hints):
        # One operators object across generations (tables reused) against a
        # fresh one per generation (tables rebuilt): same draws, same genomes.
        shared = GeneticOperators(space, 0.4)
        genome = space.genome({"a": 3, "c": "x"})
        rng_a, rng_b = random.Random(11), random.Random(11)
        for generation in range(8):
            state = GuidanceState.from_hints(hints, generation)
            fresh = GeneticOperators(space, 0.4)
            for _ in range(5):
                a = shared.mutate(genome, state, rng_a)
                b = fresh.mutate(genome, state, rng_b)
                assert a.codes == b.codes
            assert shared.gene_mutation_rates(state) == fresh.gene_mutation_rates(
                state
            )
        assert rng_a.getstate() == rng_b.getstate()
