"""Tests for the multi-objective (NSGA-II style) extension."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    CallableEvaluator,
    DesignSpace,
    GAConfig,
    GeneticSearch,
    HintSet,
    InfeasibleDesignError,
    IntParam,
    NautilusError,
    ParamHints,
    ParetoIndividual,
    ParetoSearch,
    crowding_distances,
    dominates,
    hypervolume_2d,
    maximize,
    minimize,
    non_dominated_sort,
)


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((2.0, 2.0), (1.0, 1.0))
        assert dominates((2.0, 1.0), (1.0, 1.0))

    def test_no_self_dominance(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_incomparable(self):
        assert not dominates((2.0, 0.0), (0.0, 2.0))
        assert not dominates((0.0, 2.0), (2.0, 0.0))

    def test_nan_is_incomparable(self):
        nan = float("nan")
        assert not dominates((nan, 2.0), (1.0, 1.0))
        assert not dominates((2.0, 2.0), (nan, 1.0))
        assert not dominates((1.0, 1.0), (2.0, nan))
        assert not dominates((nan, nan), (nan, nan))

    def test_all_negative_infinity(self):
        ninf = float("-inf")
        assert not dominates((ninf, ninf), (ninf, ninf))
        assert dominates((0.0, ninf), (ninf, ninf))
        assert not dominates((ninf, ninf), (0.0, ninf))


def _reference_dominates(a, b):
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def _reference_sort(population):
    """The textbook double loop over ordered pairs: the sort's oracle."""
    dominated_by = [[] for _ in population]
    domination_count = [0] * len(population)
    fronts = [[]]
    for i, a in enumerate(population):
        for j, b in enumerate(population):
            if i == j:
                continue
            if _reference_dominates(a.scores, b.scores):
                dominated_by[i].append(j)
            elif _reference_dominates(b.scores, a.scores):
                domination_count[i] += 1
        if domination_count[i] == 0:
            population[i].rank = 0
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    population[j].rank = current + 1
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [[population[i] for i in front] for front in fronts if front]


# A small value pool makes ties and duplicate vectors common (-0.0 == 0.0
# makes two unequal-looking vectors one).
_SCORE = st.sampled_from([0.0, -0.0, 1.0, 2.0, float("-inf"), float("nan")])


def _small_pool(m):
    return st.lists(st.tuples(*[_SCORE] * m), max_size=96)


def _duplicate_heavy_pool(m):
    # A handful of distinct vectors, each repeated many times: the shape
    # of a converging GA pool.
    distinct = st.lists(
        st.tuples(*[st.integers(-3, 3).map(float)] * m), min_size=1, max_size=6
    )
    return distinct.flatmap(
        lambda vs: st.lists(st.sampled_from(vs), max_size=96)
    )


def _chain_pool(m):
    # Level k dominates level k - 1 on every objective: up to 96 fronts,
    # shuffled, with some levels repeated and a few incomparable members.
    level = st.integers(0, 95).map(lambda k: (float(k),) * m)
    sideways = st.integers(0, 95).map(
        lambda k: (float(k) + 0.5,) + (float(95 - k),) * (m - 1)
    )
    return st.lists(st.one_of(level, level, level, sideways), max_size=96)


def _distinct_pool(m):
    return st.lists(
        st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * m),
        max_size=96,
        unique=True,
    )


_SCORE_VECTORS = st.integers(2, 4).flatmap(
    lambda m: st.one_of(
        _small_pool(m), _duplicate_heavy_pool(m), _chain_pool(m),
        _distinct_pool(m),
    )
)


def _front_positions(population, fronts):
    index = {id(ind): k for k, ind in enumerate(population)}
    return [[index[id(ind)] for ind in front] for front in fronts]


def _individual(space, a, scores):
    return ParetoIndividual(space.genome(a=a), tuple(scores), tuple(scores))


@pytest.fixture
def space():
    return DesignSpace("p", [IntParam("a", 0, 99)])


class TestSorting:
    def test_fronts(self, space):
        population = [
            _individual(space, 0, (3.0, 3.0)),  # front 0
            _individual(space, 1, (1.0, 1.0)),  # front 1 (dominated by all)
            _individual(space, 2, (3.5, 1.5)),  # front 0 (incomparable w/ first)
            _individual(space, 3, (2.0, 2.0)),  # front 1
        ]
        fronts = non_dominated_sort(population)
        assert len(fronts) == 3
        front0 = {ind.genome["a"] for ind in fronts[0]}
        assert front0 == {0, 2}
        assert {ind.genome["a"] for ind in fronts[1]} == {3}
        assert {ind.genome["a"] for ind in fronts[2]} == {1}

    def test_single_front_when_all_incomparable(self, space):
        population = [
            _individual(space, i, (float(i), float(10 - i))) for i in range(5)
        ]
        fronts = non_dominated_sort(population)
        assert len(fronts) == 1 and len(fronts[0]) == 5

    @settings(max_examples=600, deadline=None)
    @given(_SCORE_VECTORS)
    # Front 0 is A, B, A; B alone dominates D, and C is freed by the
    # second A: the reference's front 1 is D, C, not index order C, D.
    @example([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 0.0), (-1.0, 1.0)])
    def test_matches_reference_sort(self, vectors):
        genome = DesignSpace("p", [IntParam("a", 0, 99)]).genome(a=0)
        expected_pop = [ParetoIndividual(genome, v, v) for v in vectors]
        actual_pop = [ParetoIndividual(genome, v, v) for v in vectors]
        expected = _front_positions(expected_pop, _reference_sort(expected_pop))
        actual = _front_positions(actual_pop, non_dominated_sort(actual_pop))
        assert actual == expected
        assert [ind.rank for ind in actual_pop] == [
            ind.rank for ind in expected_pop
        ]


class TestCrowding:
    def test_extremes_infinite(self, space):
        front = [
            _individual(space, i, (float(i), float(10 - i))) for i in range(5)
        ]
        crowding_distances(front)
        by_a = {ind.genome["a"]: ind.crowding for ind in front}
        assert by_a[0] == float("inf") and by_a[4] == float("inf")
        assert all(0 < by_a[i] < float("inf") for i in (1, 2, 3))

    def test_tiny_front_all_infinite(self, space):
        front = [_individual(space, 0, (1.0, 2.0)), _individual(space, 1, (2.0, 1.0))]
        crowding_distances(front)
        assert all(ind.crowding == float("inf") for ind in front)

    def test_all_infeasible_front_has_no_nan(self, space):
        inf = float("inf")
        front = [_individual(space, i, (-inf, -inf)) for i in range(4)]
        crowding_distances(front)
        assert [ind.crowding for ind in front] == [inf, 0.0, 0.0, inf]

    def test_one_negative_infinite_score_has_no_nan(self, space):
        inf = float("inf")
        front = [
            _individual(space, 0, (-inf, 3.0)),
            _individual(space, 1, (1.0, 2.0)),
            _individual(space, 2, (2.0, 1.0)),
            _individual(space, 3, (3.0, 0.0)),
        ]
        crowding_distances(front)
        # The first objective's span is infinite, so only the second
        # objective spaces the interior members.
        assert [ind.crowding for ind in front] == [inf, 2 / 3, 2 / 3, inf]


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume_2d([(2.0, 3.0)], (0.0, 0.0)) == 6.0

    def test_staircase(self):
        hv = hypervolume_2d([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)], (0.0, 0.0))
        assert hv == pytest.approx(3.0 + 2.0 + 1.0)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume_2d([(2.0, 2.0)], (0.0, 0.0))
        with_dominated = hypervolume_2d([(2.0, 2.0), (1.0, 1.0)], (0.0, 0.0))
        assert with_dominated == base

    def test_points_below_reference_ignored(self):
        assert hypervolume_2d([(-1.0, 5.0)], (0.0, 0.0)) == 0.0


class TestParetoSearch:
    @pytest.fixture
    def biobjective(self):
        space = DesignSpace("bi", [IntParam("a", 0, 30), IntParam("b", 0, 30)])
        # x = a; y = 30 - a (conflict), with b pure overhead on y.
        evaluator = CallableEvaluator(
            lambda g: {"x": float(g["a"]), "y": float(30 - g["a"] - 0.2 * g["b"])}
        )
        return space, evaluator

    def test_needs_two_objectives(self, biobjective):
        space, evaluator = biobjective
        with pytest.raises(NautilusError):
            ParetoSearch(space, evaluator, [maximize("x")])

    def test_recovers_known_front(self, biobjective):
        space, evaluator = biobjective
        result = ParetoSearch(
            space,
            evaluator,
            [maximize("x"), maximize("y")],
            GAConfig(population_size=24, generations=40, seed=2, elitism=1),
        ).run()
        # True front: b == 0, any a; y = 30 - a. Check found points are on
        # or near it and cover both extremes.
        raws = result.front_raws()
        assert len(raws) >= 8
        for x, y in raws:
            assert y >= 30 - x - 1.0  # near the b=0 line
        xs = [x for x, _ in raws]
        assert min(xs) <= 3 and max(xs) >= 27  # extremes covered

    def test_front_is_mutually_non_dominated(self, biobjective):
        space, evaluator = biobjective
        result = ParetoSearch(
            space,
            evaluator,
            [maximize("x"), maximize("y")],
            GAConfig(population_size=16, generations=15, seed=3, elitism=1),
        ).run()
        for a in result.front:
            for b in result.front:
                assert not dominates(a.scores, b.scores) or a is b

    def test_min_max_mix(self, biobjective):
        space, evaluator = biobjective
        result = ParetoSearch(
            space,
            evaluator,
            [maximize("x"), minimize("y")],
            GAConfig(population_size=16, generations=20, seed=4, elitism=1),
        ).run()
        # max x and min y agree: the single best point dominates everything.
        assert len(result.front) == 1
        assert result.front[0].genome["a"] == 30

    def test_infeasible_points_excluded(self, space):
        def fn(genome):
            if genome["a"] % 2 == 0:
                raise InfeasibleDesignError("odd only")
            return {"x": float(genome["a"]), "y": float(-genome["a"])}

        result = ParetoSearch(
            space,
            CallableEvaluator(fn),
            [maximize("x"), maximize("y")],
            GAConfig(population_size=12, generations=15, seed=5, elitism=1),
        ).run()
        assert all(ind.genome["a"] % 2 == 1 for ind in result.front)

    def test_hints_reduce_cost_at_equal_quality(self, biobjective):
        # Guided mutation converges onto the b=0 front line and re-proposes
        # cached designs, so the front costs fewer distinct evaluations for
        # comparable hypervolume (aggregated over seeds to damp noise).
        space, evaluator = biobjective
        objectives = [maximize("x"), maximize("y")]
        hints = HintSet({"b": ParamHints(importance=95, bias=-1.0)}, confidence=0.8)
        reference = (0.0, -10.0)
        plain_hv = guided_hv = 0.0
        plain_cost = guided_cost = 0
        for seed in range(6, 10):
            config = GAConfig(
                population_size=16, generations=25, seed=seed, elitism=1
            )
            plain = ParetoSearch(space, evaluator, objectives, config).run()
            guided = ParetoSearch(
                space, evaluator, objectives, config, hints=hints
            ).run()
            plain_hv += plain.hypervolume(reference)
            guided_hv += guided.hypervolume(reference)
            plain_cost += plain.distinct_evaluations
            guided_cost += guided.distinct_evaluations
        assert guided_hv >= 0.97 * plain_hv
        assert guided_cost < 0.9 * plain_cost

    def test_front_configs_and_dedup(self, biobjective):
        space, evaluator = biobjective
        result = ParetoSearch(
            space,
            evaluator,
            [maximize("x"), maximize("y")],
            GAConfig(population_size=16, generations=10, seed=7, elitism=1),
        ).run()
        configs = result.front_configs()
        keys = [tuple(sorted(c.items())) for c in configs]
        assert len(keys) == len(set(keys))


class TestParetoIncremental:
    """The kernel lifecycle surface the service scheduler depends on."""

    OBJECTIVES = staticmethod(lambda: [maximize("x"), maximize("y")])

    @pytest.fixture
    def biobjective(self):
        space = DesignSpace("bi", [IntParam("a", 0, 30), IntParam("b", 0, 30)])
        evaluator = CallableEvaluator(
            lambda g: {"x": float(g["a"]), "y": float(30 - g["a"] - 0.2 * g["b"])}
        )
        return space, evaluator

    def test_stepping_matches_blocking_run(self, biobjective):
        space, evaluator = biobjective
        config = GAConfig(population_size=16, generations=12, seed=9, elitism=1)
        blocking = ParetoSearch(
            space, evaluator, self.OBJECTIVES(), config
        ).run()
        stepped = ParetoSearch(space, evaluator, self.OBJECTIVES(), config)
        stepped.start()
        steps = 0
        while stepped.step() is not None:
            steps += 1
        result = stepped.result()
        assert steps == 12
        assert result.front_raws() == blocking.front_raws()
        assert result.records == blocking.records
        assert result.distinct_evaluations == blocking.distinct_evaluations
        assert result.stop_reason == blocking.stop_reason == "horizon"

    def test_records_project_first_objective(self, biobjective):
        space, evaluator = biobjective
        result = ParetoSearch(
            space,
            evaluator,
            self.OBJECTIVES(),
            GAConfig(population_size=16, generations=8, seed=9, elitism=1),
        ).run()
        assert len(result.records) == 9  # generation 0 plus the horizon
        # best-on-first-objective never regresses: the x-extreme individual
        # has infinite crowding and always survives NSGA-II truncation.
        raws = [r.best_raw for r in result.records]
        assert raws == sorted(raws)
        assert result.curve()[-1][0] == result.distinct_evaluations

    def test_budget_cutoff(self, biobjective):
        space, evaluator = biobjective
        search = ParetoSearch(
            space,
            evaluator,
            self.OBJECTIVES(),
            GAConfig(
                population_size=16, generations=50, seed=9, elitism=1,
                max_evaluations=20,
            ),
        )
        result = search.run()
        assert result.stop_reason == "budget"
        assert len(result.records) < 51

    def test_stall_cutoff_uses_front_signature(self):
        # One-point space: the front can never change after generation 0.
        space = DesignSpace("flat", [IntParam("a", 0, 0)])
        evaluator = CallableEvaluator(lambda g: {"x": 1.0, "y": 1.0})
        result = ParetoSearch(
            space,
            evaluator,
            self.OBJECTIVES(),
            GAConfig(
                population_size=4, generations=50, seed=1, elitism=1,
                stall_generations=3,
            ),
        ).run()
        assert result.stop_reason == "stall"
        assert len(result.records) == 4  # gen 0 + three stalled generations

    def test_front_requires_start(self, biobjective):
        space, evaluator = biobjective
        search = ParetoSearch(space, evaluator, self.OBJECTIVES())
        with pytest.raises(NautilusError, match="not started"):
            search.front()

    def test_cancelled_mid_flight_result(self, biobjective):
        space, evaluator = biobjective
        search = ParetoSearch(
            space,
            evaluator,
            self.OBJECTIVES(),
            GAConfig(population_size=16, generations=30, seed=9, elitism=1),
        )
        search.start()
        search.step()
        search.stop()
        result = search.result()
        assert result.stop_reason == "cancelled"
        assert len(result.records) == 2
        assert result.front_raws()  # best-so-far front still served

    def test_eval_stats_travel_on_result(self, biobjective):
        space, evaluator = biobjective
        result = ParetoSearch(
            space,
            evaluator,
            self.OBJECTIVES(),
            GAConfig(population_size=16, generations=6, seed=9, elitism=1),
        ).run()
        stats = result.eval_stats
        assert stats.distinct == result.distinct_evaluations
        assert stats.requests >= stats.distinct


class TestFrontFromRanks:
    """``front()`` reads front 0 from ranks instead of sorting again."""

    OBJECTIVES = staticmethod(lambda: [maximize("x"), maximize("y")])

    @staticmethod
    def _evaluator():
        # Infeasible-heavy: a third of the designs raise; a sixth score
        # -inf on x but the best y, so they hold rank 0 and the front must
        # filter them out; coarse metrics tie and converge to duplicates.
        def fn(genome):
            a = genome["a"]
            if a % 3 == 0:
                raise InfeasibleDesignError("multiple of three")
            if a % 6 == 1:
                return {"x": float("-inf"), "y": 10.0}
            return {"x": float(a % 7), "y": float(-(a // 10))}

        return CallableEvaluator(fn)

    @staticmethod
    def _reference_front(population):
        """Front 0 of sorting the finite members afresh, deduplicated."""
        finite = [
            ind
            for ind in population
            if all(score != float("-inf") for score in ind.scores)
        ]
        copies = [ParetoIndividual(ind.genome, ind.raws, ind.scores) for ind in finite]
        fronts = _front_positions(copies, _reference_sort(copies))
        seen = set()
        front = []
        for k in fronts[0] if fronts else []:
            if finite[k].genome.codes not in seen:
                seen.add(finite[k].genome.codes)
                front.append(finite[k])
        return front

    def _assert_front(self, search):
        expected = self._reference_front(search._population)
        assert [id(ind) for ind in search.front()] == [id(ind) for ind in expected]

    def test_front_matches_fresh_sort_every_step(self, space):
        search = ParetoSearch(
            space,
            self._evaluator(),
            self.OBJECTIVES(),
            GAConfig(population_size=12, generations=20, seed=5, elitism=1),
        )
        search.start()
        while True:
            self._assert_front(search)
            assert any(
                ind.rank == 0 and float("-inf") in ind.scores
                for ind in search._population
            )
            if search.step() is None:
                break

    def test_front_matches_fresh_sort_after_resume(self, space, tmp_path):
        config = GAConfig(population_size=12, generations=12, seed=6, elitism=1)
        path = tmp_path / "pareto.json"
        first = ParetoSearch(
            space, self._evaluator(), self.OBJECTIVES(), config,
            checkpoint_path=path,
        )
        first.start()
        for _ in range(4):
            first.step()
        before = [ind.genome.codes for ind in first.front()]
        resumed = ParetoSearch(
            space, self._evaluator(), self.OBJECTIVES(), config,
            checkpoint_path=path,
        )
        resumed.resume()
        resumed.start()
        self._assert_front(resumed)
        assert [ind.genome.codes for ind in resumed.front()] == before
        while resumed.step() is not None:
            self._assert_front(resumed)


def _two_sort_survivors(parents, offspring, room):
    """Survivor selection as it ran with two sorts a generation: sort the
    pool, keep whole fronts and the most crowded rest of the truncated one,
    then sort the survivors again to rank and crowd them."""
    fronts = non_dominated_sort(parents + offspring)
    survivors = []
    for front in fronts:
        crowding_distances(front)
        if len(survivors) + len(front) <= room:
            survivors.extend(front)
        else:
            remaining = room - len(survivors)
            survivors.extend(
                sorted(front, key=lambda ind: -ind.crowding)[:remaining]
            )
            break
    for front in non_dominated_sort(survivors):
        crowding_distances(front)
    return survivors


_SURVIVOR_SCORE = st.sampled_from(
    [0.0, 1.0, 1.0, 2.0, 3.0, -1.5, float("-inf"), float("nan")]
)


@st.composite
def _survivor_pools(draw):
    m = draw(st.integers(2, 3))
    vector = st.one_of(
        st.tuples(*[_SURVIVOR_SCORE] * m),
        st.just((float("-inf"),) * m),  # an infeasible member
        st.tuples(*[st.integers(0, 4).map(float)] * m),  # ties, many fronts
        st.tuples(*[st.floats(-5.0, 5.0)] * m),
    )
    pool = draw(st.lists(vector, min_size=2, max_size=24))
    split = draw(st.integers(1, len(pool) - 1))
    parents, offspring = pool[:split], pool[split:]
    genome = DesignSpace("p", [IntParam("a", 0, 99)]).genome(a=0)
    sizes = [len(front) for front in non_dominated_sort(
        [ParetoIndividual(genome, v, v) for v in pool]
    )]
    boundaries = [sum(sizes[: k + 1]) for k in range(len(sizes))]
    room = draw(st.one_of(st.integers(1, len(pool)), st.sampled_from(boundaries)))
    return parents, offspring, room


class TestOneSortSurvivors:
    """``_survivors`` ranks and crowds the survivors as sorting them again
    did, from the pool's one sort."""

    @settings(max_examples=600, deadline=None)
    @given(_survivor_pools())
    @example(([(1.0, 1.0), (0.0, 2.0)], [(2.0, 0.0), (0.5, 0.5)], 3))
    # The truncated front keeps (1, 3, 0) and (3, 3, 1), freed in that
    # order while crowding keeps them the other way round; re-crowded in
    # survivor order, the tie on the second objective scores them apart.
    @example((
        [(0.0, 3.0, 1.0), (4.0, 1.0, 0.0), (2.0, 2.0, 1.0)],
        [(1.0, 0.0, 4.0), (4.0, 2.0, 1.0), (1.0, 3.0, 0.0), (3.0, 3.0, 1.0),
         (0.0, 3.0, 3.0)],
        7,
    ))
    def test_equals_sorting_the_survivors_again(self, case):
        parents, offspring, room = case
        genome = DesignSpace("p", [IntParam("a", 0, 99)]).genome(a=0)

        def members(vectors):
            return [ParetoIndividual(genome, v, v) for v in vectors]

        expected_pool = members(parents + offspring)
        expected = _two_sort_survivors(
            expected_pool[: len(parents)], expected_pool[len(parents):], room
        )
        actual_pool = members(parents + offspring)
        engine = type("Stub", (), {})()
        engine._population = actual_pool[: len(parents)]
        engine.config = type("Config", (), {"population_size": room})()
        actual = ParetoSearch._survivors(engine, actual_pool[len(parents):])

        def view(pool, survivors):
            index = {id(ind): k for k, ind in enumerate(pool)}
            return [
                (index[id(ind)], ind.rank, repr(ind.crowding)) for ind in survivors
            ]

        assert view(actual_pool, actual) == view(expected_pool, expected)
