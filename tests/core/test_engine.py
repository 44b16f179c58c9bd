"""Tests for the search engines: baseline GA, Nautilus, random, exhaustive."""

import pytest

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
    RandomSearch,
    exhaustive_best,
    maximize,
    minimize,
)

TOY_BEST = 15 + 64 + 10 + 4 + 5  # a=15, b=64, c=z, d=True, e=fast


class TestGAConfig:
    def test_defaults_match_paper(self):
        config = GAConfig()
        assert config.population_size == 10
        assert config.generations == 80
        assert config.mutation_rate == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"generations": 0},
            {"crossover_rate": 1.5},
            {"elitism": 10},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(NautilusError):
            GAConfig(**kwargs)


class TestBaselineGA:
    def test_finds_good_solution(self, toy_space, toy_evaluator):
        result = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), GAConfig(seed=1)
        ).run()
        assert result.best_raw >= 0.95 * TOY_BEST

    def test_best_curve_monotone(self, toy_space, toy_evaluator):
        result = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), GAConfig(seed=2)
        ).run()
        raws = [r.best_raw for r in result.records]
        assert raws == sorted(raws)
        evals = [r.distinct_evaluations for r in result.records]
        assert evals == sorted(evals)

    def test_deterministic_given_seed(self, toy_space, toy_evaluator):
        run = lambda: GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), GAConfig(seed=7)
        ).run()
        r1, r2 = run(), run()
        assert r1.best_config == r2.best_config
        assert r1.curve() == r2.curve()

    def test_minimization(self, toy_space, toy_evaluator):
        result = GeneticSearch(
            toy_space, toy_evaluator, minimize("m"), GAConfig(seed=3)
        ).run()
        assert result.best_raw <= 5  # a=0, b=1, c=x, d=False, e=slow -> 1

    def test_records_have_config(self, toy_space, toy_evaluator):
        result = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), GAConfig(seed=4, generations=5)
        ).run()
        assert set(result.records[-1].best_config) == set(toy_space.param_names)
        assert len(result.records) == 6  # initial population + 5 generations


class TestNautilusGA:
    def hints(self, confidence=0.8):
        return HintSet(
            {
                "a": ParamHints(importance=80, bias=1.0),
                "b": ParamHints(importance=90, bias=1.0),
                "e": ParamHints(importance=40, bias=1.0),
            },
            confidence=confidence,
        )

    def test_guided_not_worse_and_cheaper(self, toy_space, toy_evaluator):
        threshold = 0.98 * TOY_BEST
        base_evals, guided_evals = [], []
        for seed in range(8):
            base = GeneticSearch(
                toy_space, toy_evaluator, maximize("m"), GAConfig(seed=seed)
            ).run()
            guided = GeneticSearch(
                toy_space,
                toy_evaluator,
                maximize("m"),
                GAConfig(seed=seed),
                hints=self.hints(),
            ).run()
            base_evals.append(base.evals_to_reach(threshold) or 10_000)
            guided_evals.append(guided.evals_to_reach(threshold) or 10_000)
        assert sum(guided_evals) < sum(base_evals)

    def test_minimization_reorients_bias(self, toy_space, toy_evaluator):
        # Hints say a/b INCREASE the metric; when minimizing, Nautilus must
        # flip them internally and still find the small corner fast.
        result = GeneticSearch(
            toy_space,
            toy_evaluator,
            minimize("m"),
            GAConfig(seed=5),
            hints=self.hints(),
        ).run()
        assert result.best_raw <= 5

    def test_hints_cause_more_revisits(self, toy_space, toy_evaluator):
        base = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), GAConfig(seed=6)
        ).run()
        guided = GeneticSearch(
            toy_space,
            toy_evaluator,
            maximize("m"),
            GAConfig(seed=6),
            hints=self.hints(),
        ).run()
        # Guided runs converge and re-propose cached designs, so they
        # synthesize fewer distinct designs over the same generations.
        assert guided.distinct_evaluations < base.distinct_evaluations

    def test_labels(self, toy_space, toy_evaluator):
        search = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), hints=self.hints()
        )
        assert search.label == "nautilus"


class TestInfeasibleHandling:
    def test_engine_survives_infeasible_points(self, toy_space):
        def fn(genome):
            if genome["a"] % 3 == 0:
                raise InfeasibleDesignError("hole")
            return {"m": genome["a"]}

        result = GeneticSearch(
            toy_space,
            CallableEvaluator(fn),
            maximize("m"),
            GAConfig(seed=8, generations=20),
        ).run()
        assert result.best_raw == 14  # best non-multiple-of-3


class TestSearchResultQueries:
    def test_evals_and_generations_to_reach(self, toy_space, toy_evaluator):
        result = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), GAConfig(seed=9)
        ).run()
        evals = result.evals_to_reach(50.0)
        gens = result.generations_to_reach(50.0)
        assert evals is not None and gens is not None
        assert result.evals_to_reach(10_000.0) is None

    def test_curves(self, toy_space, toy_evaluator):
        result = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), GAConfig(seed=10, generations=3)
        ).run()
        assert len(result.curve()) == 4
        assert [r.generation for r in result.records] == [0, 1, 2, 3]


class TestRandomSearch:
    def test_budget_respected(self, toy_space, toy_evaluator):
        result = RandomSearch(toy_space, toy_evaluator, maximize("m"), 50, seed=1).run()
        assert result.distinct_evaluations == 50

    def test_budget_validation(self, toy_space, toy_evaluator):
        with pytest.raises(NautilusError):
            RandomSearch(toy_space, toy_evaluator, maximize("m"), 0)

    def test_monotone_best(self, toy_space, toy_evaluator):
        result = RandomSearch(toy_space, toy_evaluator, maximize("m"), 80, seed=2).run()
        raws = [r.best_raw for r in result.records]
        assert raws == sorted(raws)

    def test_ga_beats_random_on_toy(self, toy_space, toy_evaluator):
        ga_wins = 0
        for seed in range(6):
            ga = GeneticSearch(
                toy_space, toy_evaluator, maximize("m"), GAConfig(seed=seed)
            ).run()
            random_result = RandomSearch(
                toy_space, toy_evaluator, maximize("m"),
                budget=ga.distinct_evaluations, seed=seed,
            ).run()
            ga_wins += ga.best_raw >= random_result.best_raw
        assert ga_wins >= 4


class TestExhaustive:
    def test_matches_known_optimum(self, toy_space, toy_evaluator):
        best = exhaustive_best(toy_space, toy_evaluator, maximize("m"))
        assert best.raw == TOY_BEST
        assert best.genome["a"] == 15 and best.genome["b"] == 64

    def test_min_direction(self, toy_space, toy_evaluator):
        best = exhaustive_best(toy_space, toy_evaluator, minimize("m"))
        assert best.raw == 1

    def test_all_infeasible_raises(self, toy_space):
        def fn(genome):
            raise InfeasibleDesignError("all holes")

        with pytest.raises(NautilusError):
            exhaustive_best(toy_space, CallableEvaluator(fn), maximize("m"))
