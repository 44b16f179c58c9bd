"""Tests for warm-started populations and their checkpoint interaction."""

import pytest

from repro.archive import ArchiveGuidance, DesignArchive
from repro.core import (
    CallableEvaluator,
    DesignSpace,
    GAConfig,
    GeneticSearch,
    IntParam,
    NautilusError,
    maximize,
)
from repro.core.evalstack import evaluator_fingerprint

#: The toy space's known optimum (score 98, see tests/conftest.py).
TOY_BEST = {"a": 15, "b": 64, "c": "z", "d": True, "e": "fast"}


class TestGAConfigValidation:
    def test_entries_must_be_mappings(self):
        with pytest.raises(NautilusError):
            GAConfig(warm_start=("a=1",))

    def test_cannot_exceed_population(self):
        seeds = tuple({"a": a} for a in range(GAConfig().population_size + 1))
        with pytest.raises(NautilusError):
            GAConfig(warm_start=seeds)

    def test_default_empty(self):
        assert GAConfig().warm_start == ()
        assert GAConfig(warm_start=[]).warm_start == ()


class TestSeeding:
    def test_seeds_replace_prefix_without_extra_rng_draws(
        self, toy_space, toy_evaluator
    ):
        plain = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"), GAConfig(seed=3)
        )
        warm = GeneticSearch(
            toy_space,
            toy_evaluator,
            maximize("m"),
            GAConfig(seed=3, warm_start=(TOY_BEST,)),
        )
        plain.start()
        warm.start()
        unseeded = [ind.genome for ind in plain._population]
        seeded = [ind.genome for ind in warm._population]
        assert warm.warm_start_seeds == 1
        assert plain.warm_start_seeds == 0
        assert seeded[0].as_dict() == TOY_BEST
        # Identical RNG consumption: only the seeded prefix differs.
        assert [g.codes for g in seeded[1:]] == [g.codes for g in unseeded[1:]]

    def test_duplicate_seeds_injected_once(self, toy_space, toy_evaluator):
        warm = GeneticSearch(
            toy_space,
            toy_evaluator,
            maximize("m"),
            GAConfig(seed=3, warm_start=(TOY_BEST, dict(TOY_BEST))),
        )
        warm.start()
        assert warm.warm_start_seeds == 1
        assert warm._population[0].genome.as_dict() == TOY_BEST

    def test_invalid_seed_value_rejected(self, toy_space, toy_evaluator):
        warm = GeneticSearch(
            toy_space,
            toy_evaluator,
            maximize("m"),
            GAConfig(warm_start=({"a": 99, "b": 1, "c": "x", "d": False, "e": "slow"},)),
        )
        # The validating codec path refuses out-of-domain seeds loudly.
        with pytest.raises(NautilusError):
            warm.start()

    def test_seeded_run_starts_from_the_seed(self, toy_space, toy_evaluator):
        result = GeneticSearch(
            toy_space,
            toy_evaluator,
            maximize("m"),
            GAConfig(seed=4, generations=2, warm_start=(TOY_BEST,)),
        ).run()
        assert result.records[0].best_raw == 98.0

    def test_empty_warm_start_is_bit_identical(self, toy_space, toy_evaluator):
        baseline = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"),
            GAConfig(seed=11, generations=6),
        ).run()
        explicit = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"),
            GAConfig(seed=11, generations=6, warm_start=()),
        ).run()
        assert explicit.curve() == baseline.curve()
        assert explicit.best_config == baseline.best_config


@pytest.fixture
def space():
    return DesignSpace("ck", [IntParam("a", 0, 63), IntParam("b", 0, 63)])


@pytest.fixture
def counting_evaluator():
    calls = []

    def fn(genome):
        calls.append(1)
        return {"m": float(genome["a"] + genome["b"])}

    return CallableEvaluator(fn), calls


SEED_CFG = {"a": 50, "b": 50}


class TestResumeWithWarmStart:
    """A resumed warm-started campaign must not re-inject, re-mine, or
    double-pay — its curve lands exactly on the uninterrupted one."""

    def test_resume_does_not_reinject_or_diverge(
        self, space, counting_evaluator, tmp_path
    ):
        evaluator, calls = counting_evaluator
        config = dict(seed=5, warm_start=(SEED_CFG,))
        reference = GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(generations=20, **config),
            checkpoint_path=tmp_path / "ref.json",
        ).run()
        assert reference.records[0].best_raw >= 100.0  # the seed took

        path = tmp_path / "interrupted.json"
        GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(generations=8, **config),
            checkpoint_path=path,
        ).run()
        phase1 = len(calls)
        calls.clear()

        search = GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(generations=20, **config),
            checkpoint_path=path,
        ).resume()
        resumed = search.run()
        # No re-injection: the restored population already contains
        # whatever survived of the seeds.
        assert search.warm_start_seeds == 0
        # No double-pay: only genuinely new designs cost evaluations.
        assert len(calls) < phase1
        # And the curve is exactly the uninterrupted one.
        assert resumed.curve() == reference.curve()
        assert resumed.best_config == reference.best_config

    def test_resume_does_not_remine_guidance(
        self, space, counting_evaluator, tmp_path
    ):
        evaluator, __ = counting_evaluator
        fingerprint = evaluator_fingerprint(evaluator)
        archive = DesignArchive(tmp_path / "archive")
        rows = [
            (space.genome({"a": a, "b": b}), {"m": float(a + b)})
            for a in range(0, 64, 9)
            for b in range(0, 64, 9)
        ]
        archive.record_many(rows, fingerprint, campaign="history")

        def run(generations, provider, path):
            return GeneticSearch(
                space, evaluator, maximize("m"),
                GAConfig(seed=7, generations=generations, warm_start=(SEED_CFG,)),
                guidance=provider,
                checkpoint_path=path,
            )

        reference = run(
            16, ArchiveGuidance(archive, min_rows=1), tmp_path / "r.json"
        ).run()

        path = tmp_path / "i.json"
        run(6, ArchiveGuidance(archive, min_rows=1), path).run()

        # Resume against an archive root that no longer exists: the mined
        # hints travel in the checkpoint, so nothing touches the disk.
        restored = ArchiveGuidance(root=str(tmp_path / "gone"), min_rows=1)
        search = run(16, restored, path).resume()
        resumed = search.run()
        assert search.warm_start_seeds == 0
        assert restored.rows_used is not None  # restored, not re-mined
        assert resumed.curve() == reference.curve()
