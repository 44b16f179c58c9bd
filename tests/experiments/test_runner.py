"""Tests for the multi-run harness."""

import pytest

from repro.core import (
    CallableEvaluator,
    DesignSpace,
    GAConfig,
    GeneticSearch,
    IntParam,
    maximize,
)
from repro.experiments import MultiRunResult, run_many


@pytest.fixture
def space():
    return DesignSpace("mr", [IntParam("a", 0, 31), IntParam("b", 0, 31)])


@pytest.fixture
def factory(space):
    evaluator = CallableEvaluator(lambda g: {"m": float(g["a"] + g["b"])})

    def build(seed):
        return GeneticSearch(
            space,
            evaluator,
            maximize("m"),
            GAConfig(seed=seed, generations=15),
        )

    return build


class TestRunMany:
    def test_runs_counted(self, factory):
        result = run_many(factory, 5, base_seed=0)
        assert result.runs == 5

    def test_distinct_seeds_distinct_runs(self, factory):
        result = run_many(factory, 5, base_seed=0)
        curves = {tuple(r.curve()) for r in result.results}
        assert len(curves) > 1

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            MultiRunResult([])


class TestAggregation:
    def test_mean_curve_shape(self, factory):
        result = run_many(factory, 4)
        curve = result.mean_curve()
        assert len(curve) == 16  # initial + 15 generations
        evals = [x for x, _ in curve]
        assert evals == sorted(evals)
        raws = [y for _, y in curve]
        assert raws == sorted(raws)  # mean of monotone curves is monotone

    def test_mean_generation_curve(self, factory):
        result = run_many(factory, 4)
        # The identity score is the (generation, mean best raw) curve.
        curve = result.mean_score_curve(lambda raw: raw)
        assert curve[0][0] == 0 and curve[-1][0] == 15
        assert curve[-1][1] == pytest.approx(result.mean_best())

    def test_mean_score_curve(self, factory):
        result = run_many(factory, 3)
        curve = result.mean_score_curve(lambda raw: raw / 62.0 * 100.0)
        assert all(0 <= y <= 100.0 for _, y in curve)

    def test_mean_best_and_evals(self, factory):
        result = run_many(factory, 4)
        assert 40.0 < result.mean_best() <= 62.0
        assert result.mean_distinct_evaluations() > 10


class TestReach:
    def test_reach_stats(self, factory):
        result = run_many(factory, 6)
        stats = result.reach(40.0)
        assert stats.success_rate > 0.5
        assert stats.mean_evals is not None and stats.mean_evals > 0
        assert "evals" in str(stats)

    def test_unreachable_threshold(self, factory):
        result = run_many(factory, 3)
        stats = result.reach(10_000.0)
        assert stats.success_rate == 0.0
        assert stats.mean_evals is None
        assert "never" in str(stats)

    def test_curve_cross(self, factory):
        result = run_many(factory, 4)
        cross_easy = result.curve_cross(20.0)
        cross_hard = result.curve_cross(55.0)
        assert cross_easy is not None
        if cross_hard is not None:
            assert cross_hard >= cross_easy
        assert result.curve_cross(10_000.0) is None
