"""Hint attribution: breeding's provenance records, report math, and
end-to-end signs."""

import random
from operator import attrgetter

import pytest

from repro.core import (
    DesignSpace,
    GAConfig,
    GeneticOperators,
    GeneticSearch,
    GuidanceState,
    HintSet,
    IntParam,
    ParamHints,
    maximize,
)
from repro.core.operators import BreedingPipeline
from repro.core.selection import Individual
from repro.obs import HintEffectReport, hint_effect_report
from repro.obs.attribution import summarize_generation

from ..conftest import run_recorded


def _bred(space, genomes, scores, *, crossover_rate, mutation_rate, count):
    """``breed``'s records for ``count`` children of a population whose
    parents are selected in turn (first, second, ... then round again)."""
    population = [
        Individual(genome, score, score) for genome, score in zip(genomes, scores)
    ]

    def in_turn(population, rng):
        turn = iter(range(10**6))
        return lambda: population[next(turn) % len(population)]

    pipeline = BreedingPipeline(
        space,
        GeneticOperators(space, mutation_rate),
        in_turn,
        crossover_rate,
        score=attrgetter("score"),
    )
    bred = []
    pipeline.breed(
        population, GuidanceState.neutral(), random.Random(7), count, None, bred
    )
    return bred


class TestBreedRecords:
    """``breed`` records each child as one ``(parent_score, crossover,
    mutations, fallback)`` tuple."""

    def test_collects_children_in_order(self):
        space = DesignSpace("free", [IntParam("a", 0, 3), IntParam("b", 0, 3)])
        genomes = [space.genome(a=0, b=0), space.genome(a=3, b=3)]
        bred = _bred(
            space, genomes, [1.0, 2.0],
            crossover_rate=0.0, mutation_rate=1.0, count=3,
        )
        assert bred == [
            (1.0, False, [("a", "uniform"), ("b", "uniform")], False),
            (2.0, False, [("a", "uniform"), ("b", "uniform")], False),
            (1.0, False, [("a", "uniform"), ("b", "uniform")], False),
        ]
        # Floats, bools and the channel lists only: never an Individual.
        for parent_score, crossed, mutations, fallback in bred:
            assert type(parent_score) is float
            assert type(crossed) is bool and type(fallback) is bool
            assert type(mutations) is list

    def test_fallback_discards_mutations(self):
        # Only a == 0 is feasible and every gene fires: each attempt moves
        # `a` away from 0, so mutation falls back to the parent.
        space = DesignSpace(
            "dense", [IntParam("a", 0, 3)], constraints=[lambda cfg: cfg["a"] == 0]
        )
        bred = _bred(
            space, [space.genome(a=0)], [1.0],
            crossover_rate=0.0, mutation_rate=1.0, count=2,
        )
        assert bred == [(1.0, False, (), True), (1.0, False, (), True)]

    def test_crossed_only_on_a_feasible_crossover(self):
        # With a == b required, the one crossover point of (0, 0) x (3, 3)
        # always gives (0, 3) or (3, 0): every candidate is infeasible and
        # the child keeps its parent, not crossed.
        def crossed(constraints):
            space = DesignSpace(
                "pair", [IntParam("a", 0, 3), IntParam("b", 0, 3)],
                constraints=constraints,
            )
            genomes = [space.genome(a=0, b=0), space.genome(a=3, b=3)]
            return _bred(
                space, genomes, [1.0, 2.0],
                crossover_rate=1.0, mutation_rate=0.0, count=2,
            )

        # No gene fires: an accepted attempt with no mutations, not a
        # fallback.
        assert crossed([lambda cfg: cfg["a"] == cfg["b"]]) == [
            (1.0, False, [], False), (1.0, False, [], False),
        ]
        assert crossed([]) == [(1.0, True, [], False), (1.0, True, [], False)]


class TestSummarize:
    def test_no_children_yields_none(self):
        assert summarize_generation([], []) is None

    def test_deltas_and_channels(self):
        payload = summarize_generation(
            [
                (10.0, False, [("a", "bias")], False),
                (10.0, False, [("a", "uniform"), ("b", "uniform")], False),
            ],
            [(13.0, True), (9.0, True)],
            confidence=0.7,
            hinted=True,
            effective_importance={"a": 42.5},
        )
        assert payload["children"] == 2 and payload["improved"] == 1
        bias = payload["channels"]["bias"]
        assert bias == {
            "proposals": 1, "feasible": 1, "improved": 1, "delta_sum": 3.0,
        }
        uniform = payload["channels"]["uniform"]
        assert uniform["proposals"] == 2 and uniform["delta_sum"] == -2.0
        assert payload["params"]["a"]["proposals"] == 2
        assert payload["effective_importance"] == {"a": 42.5}

    def test_infeasible_child_counts_proposal_only(self):
        payload = summarize_generation(
            [(10.0, False, [("a", "target")], False)], [(float("-inf"), False)]
        )
        target = payload["channels"]["target"]
        assert target["proposals"] == 1 and target["feasible"] == 0
        assert target["delta_sum"] == 0.0


class TestReport:
    def test_from_events(self):
        payload = summarize_generation(
            [(1.0, False, [("a", "bias")], False)], [(2.0, True)]
        )
        events = [
            {"kind": "eval-batch", "generation": 1, "size": 1},
            {"kind": "hint-attribution", "generation": 1, **payload},
        ]
        one = HintEffectReport.from_events(events)
        assert one.generations == 1 and one.children == 1
        rates = one.as_dict()["channels"]["bias"]
        assert rates["proposals"] == 1
        assert rates["improvement_rate"] == 1.0
        assert rates["mean_delta"] == pytest.approx(1.0)

    def test_dict_shape(self):
        report = hint_effect_report(
            [{"kind": "hint-attribution", "children": 1, "improved": 0,
              "channels": {"uniform": {"proposals": 1, "feasible": 1,
                                       "improved": 0, "delta_sum": -0.5}}}]
        )
        assert report["generations"] == 1
        assert report["channels"]["uniform"]["mean_delta"] == -0.5


class TestEndToEnd:
    def _report(self, toy_space, toy_evaluator, bias):
        hints = HintSet(
            {
                "a": ParamHints(importance=90, bias=bias),
                "b": ParamHints(importance=90, bias=bias),
            },
            confidence=0.9,
        )
        search = GeneticSearch(
            toy_space,
            toy_evaluator,
            maximize("m"),
            GAConfig(generations=12, seed=5),
            hints=hints,
        )
        __, events = run_recorded(search)
        return HintEffectReport.from_events(events)

    def test_guided_run_attributes_bias_channel(
        self, toy_space, toy_evaluator
    ):
        report = self._report(toy_space, toy_evaluator, bias=0.9)
        assert report.hinted
        assert report.channels["bias"]["proposals"] > 0
        assert report.last_effective_importance  # decay series surfaced

    def test_wrong_hints_show_worse_bias_deltas(
        self, toy_space, toy_evaluator
    ):
        good = self._report(toy_space, toy_evaluator, bias=0.9)
        wrong = self._report(toy_space, toy_evaluator, bias=-0.9)
        good_delta = good.as_dict()["channels"]["bias"]["mean_delta"]
        wrong_delta = wrong.as_dict()["channels"]["bias"]["mean_delta"]
        # Wrong hints push children downhill: negative-or-neutral mean
        # delta, and strictly worse than the well-aimed hints.
        assert wrong_delta <= 0.0
        assert wrong_delta < good_delta

    def test_unguided_run_uses_uniform_channel_only(
        self, toy_space, toy_evaluator
    ):
        search = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"),
            GAConfig(generations=8, seed=3),
        )
        report = HintEffectReport.from_events(run_recorded(search)[1])
        assert not report.hinted
        assert "bias" not in report.channels
        assert "target" not in report.channels
        assert report.channels["uniform"]["proposals"] > 0

    def test_observability_off_emits_no_attribution(
        self, toy_space, toy_evaluator
    ):
        search = GeneticSearch(
            toy_space, toy_evaluator, maximize("m"),
            GAConfig(generations=8, seed=3, observability=False),
        )
        report = HintEffectReport.from_events(run_recorded(search)[1])
        assert report.generations == 0
