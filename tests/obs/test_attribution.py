"""Hint attribution: observer bookkeeping, report math, and end-to-end signs."""

import pytest

from repro.core import GAConfig, GeneticSearch, HintSet, ParamHints, maximize
from repro.obs import BreedingObserver, HintEffectReport, hint_effect_report
from repro.obs.attribution import summarize_generation


def _child(observer, parent_score, mutations, fallback=False, crossover=False):
    observer.child_started(parent_score)
    if crossover:
        observer.crossover_applied()
    observer.mutation_attempted(mutations)
    observer.mutation_committed(1, fallback=fallback)
    observer.child_finished()


class TestObserver:
    """Each child is one ``(parent_score, crossover, mutations, fallback)``
    tuple."""

    def test_collects_children_in_order(self):
        observer = BreedingObserver()
        _child(observer, 1.0, [("a", "bias")], crossover=True)
        _child(observer, 2.0, [("b", "uniform")])
        assert observer.drain() == [
            (1.0, True, [("a", "bias")], False),
            (2.0, False, [("b", "uniform")], False),
        ]
        assert observer.drain() == []  # drain resets

    def test_fallback_discards_mutations(self):
        observer = BreedingObserver()
        _child(observer, 1.0, [("a", "bias")], fallback=True)
        (child,) = observer.drain()
        assert child == (1.0, False, (), True)

    def test_hooks_outside_a_child_record_nothing(self):
        observer = BreedingObserver()
        observer.crossover_applied()
        observer.mutation_attempted([("a", "bias")])
        observer.mutation_committed(1, fallback=False)
        observer.child_finished()
        assert observer.drain() == []
        observer.child_started(3.0)
        observer.child_finished()
        assert observer.drain() == [(3.0, False, (), False)]

    def test_has_no_instance_dict(self):
        assert not hasattr(BreedingObserver(), "__dict__")


class TestSummarize:
    def test_no_children_yields_none(self):
        assert summarize_generation([], []) is None

    def test_deltas_and_channels(self):
        observer = BreedingObserver()
        _child(observer, 10.0, [("a", "bias")])
        _child(observer, 10.0, [("a", "uniform"), ("b", "uniform")])
        payload = summarize_generation(
            observer.drain(),
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
        observer = BreedingObserver()
        _child(observer, 10.0, [("a", "target")])
        payload = summarize_generation(
            observer.drain(), [(float("-inf"), False)]
        )
        target = payload["channels"]["target"]
        assert target["proposals"] == 1 and target["feasible"] == 0
        assert target["delta_sum"] == 0.0


class TestReport:
    def test_from_events_and_merge(self):
        observer = BreedingObserver()
        _child(observer, 1.0, [("a", "bias")])
        payload = summarize_generation(observer.drain(), [(2.0, True)])
        events = [
            {"kind": "generation-start", "generation": 1},
            {"kind": "hint-attribution", "generation": 1, **payload},
        ]
        one = HintEffectReport.from_events(events)
        assert one.generations == 1 and one.children == 1
        merged = HintEffectReport().merge(one).merge(one)
        assert merged.channels["bias"]["proposals"] == 2
        rates = merged.channel_rates("bias")
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
        result = search.run()
        return HintEffectReport.from_events(result.events)

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
        good_delta = good.channel_rates("bias")["mean_delta"]
        wrong_delta = wrong.channel_rates("bias")["mean_delta"]
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
        report = HintEffectReport.from_events(search.run().events)
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
        report = HintEffectReport.from_events(search.run().events)
        assert report.generations == 0
