"""Tests for the guidance stack: providers, states, and the JSON wire format."""

import json

import pytest

from repro.core import (
    AdaptiveConfidence,
    CallableEvaluator,
    ChoiceParam,
    DesignSpace,
    EstimatedHints,
    GAConfig,
    GeneticSearch,
    GuidanceState,
    HintError,
    HintSpecError,
    HintSet,
    IntParam,
    NautilusError,
    ParamHints,
    StaticHints,
    hintset_from_json,
    hintset_to_json,
    maximize,
    minimize,
)
from repro.core.hints import DEFAULT_IMPORTANCE


@pytest.fixture
def space():
    return DesignSpace(
        "gd",
        [
            IntParam("a", 0, 15),
            IntParam("b", 0, 15),
            ChoiceParam("c", ("p", "q", "r")),
        ],
    )


@pytest.fixture
def evaluator():
    return CallableEvaluator(lambda g: {"m": float(g["a"] + g["b"])})


def author_hints(confidence=0.8, decay=0.0):
    return HintSet(
        {"a": ParamHints(importance=90, bias=0.9), "b": ParamHints(bias=-0.4)},
        confidence=confidence,
        importance_decay=decay,
    )


class TestGuidanceState:
    def test_neutral_is_unguided(self):
        state = GuidanceState.neutral(3)
        assert state.generation == 3
        assert state.confidence == 0.0
        assert state.hints is None
        assert not state.guided
        assert state.for_param("a") is None

    def test_from_hints_snapshots_decayed_importance(self):
        hints = author_hints(decay=0.5)
        state = GuidanceState.from_hints(hints, 2)
        assert state.guided
        assert state.confidence == hints.confidence
        assert state.effective_importance == {
            "a": hints.effective_importance("a", 2),
            "b": hints.effective_importance("b", 2),
        }

    def test_from_hints_confidence_override(self):
        state = GuidanceState.from_hints(author_hints(0.8), 0, confidence=0.2)
        assert state.confidence == 0.2
        # The hint set itself is untouched — only the in-force value moved.
        assert state.hints.confidence == 0.8

    def test_from_none_is_neutral(self):
        assert GuidanceState.from_hints(None, 5) == GuidanceState.neutral(5)


class TestStaticHints:
    def test_bind_validates_against_space(self, space):
        bad = HintSet({"zz": ParamHints(bias=1)})
        with pytest.raises(HintError, match="unknown parameter"):
            StaticHints(bad).bind(space)

    def test_bind_orients_for_minimization(self, space):
        provider = StaticHints(author_hints()).bind(space, minimize("m"))
        assert provider.hints.for_param("a").bias == -0.9
        assert provider.hints.for_param("b").bias == 0.4

    def test_bind_without_objective_keeps_orientation(self, space):
        provider = StaticHints(author_hints()).bind(space)
        assert provider.hints.for_param("a").bias == 0.9

    def test_states_follow_decay(self, space):
        hints = author_hints(decay=0.3)
        provider = StaticHints(hints).bind(space, maximize("m"))
        assert provider.start() == GuidanceState.from_hints(hints, 0)
        assert provider.advance(7) == GuidanceState.from_hints(hints, 7)

    def test_engine_guidance_matches_hints_shorthand(self, space, evaluator):
        config = GAConfig(seed=11, generations=12)
        via_hints = GeneticSearch(
            space, evaluator, maximize("m"), config, hints=author_hints()
        ).run()
        via_provider = GeneticSearch(
            space,
            evaluator,
            maximize("m"),
            config,
            guidance=StaticHints(author_hints()),
        ).run()
        assert [r.best_score for r in via_hints.records] == [
            r.best_score for r in via_provider.records
        ]
        assert via_hints.best_config == via_provider.best_config

    def test_hints_and_guidance_mutually_exclusive(self, space, evaluator):
        with pytest.raises(NautilusError, match="not both"):
            GeneticSearch(
                space,
                evaluator,
                maximize("m"),
                hints=author_hints(),
                guidance=StaticHints(author_hints()),
            )


class TestAdaptiveConfidence:
    def test_parameter_validation(self):
        with pytest.raises(NautilusError):
            AdaptiveConfidence(author_hints(), patience=0)
        with pytest.raises(NautilusError):
            AdaptiveConfidence(author_hints(), backoff=1.5)
        with pytest.raises(NautilusError):
            AdaptiveConfidence(author_hints(), recovery=0.5)

    def test_backoff_after_patience_stalls(self, space):
        provider = AdaptiveConfidence(
            author_hints(0.8), patience=2, backoff=0.5
        ).bind(space)
        provider.advance(1, feedback=10.0)  # improvement
        assert provider.confidence == 0.8
        provider.advance(2, feedback=10.0)  # stall 1
        assert provider.confidence == 0.8
        provider.advance(3, feedback=10.0)  # stall 2 -> backoff
        assert provider.confidence == 0.4
        provider.advance(4, feedback=11.0)  # recovery, clamped by author
        assert provider.confidence == pytest.approx(0.4 * 1.15)
        assert [g for g, _ in provider.confidence_trace] == [1, 2, 3, 4]

    def test_state_dict_roundtrip(self, space):
        provider = AdaptiveConfidence(author_hints(0.8), patience=1).bind(space)
        provider.advance(1, feedback=5.0)
        provider.advance(2, feedback=5.0)
        payload = json.loads(json.dumps(provider.state_dict()))
        fresh = AdaptiveConfidence(author_hints(0.8), patience=1).bind(space)
        fresh.load_state_dict(payload)
        assert fresh.confidence == provider.confidence
        assert fresh.confidence_trace == provider.confidence_trace
        # The restored controller continues the same sequence.
        assert fresh.advance(3, feedback=5.0) == provider.advance(3, feedback=5.0)

    def test_load_rejects_wrong_kind(self, space):
        provider = AdaptiveConfidence(author_hints()).bind(space)
        with pytest.raises(NautilusError, match="kind"):
            provider.load_state_dict({"kind": "static"})


class TestEstimatedHints:
    def test_lazy_sweep_on_first_state(self, space, evaluator):
        provider = EstimatedHints(budget=40, seed=0).bind(
            space, maximize("m"), evaluator
        )
        assert provider.hints is None
        state = provider.start()
        assert provider.hints is not None
        assert provider.used is not None and provider.used <= 40
        assert state.hints is provider.hints

    def test_unbound_provider_raises(self):
        with pytest.raises(NautilusError, match="bound"):
            EstimatedHints().start()

    def test_minimization_orients_estimated_bias(self, space, evaluator):
        up = EstimatedHints(budget=40, seed=0).bind(space, maximize("m"), evaluator)
        down = EstimatedHints(budget=40, seed=0).bind(space, minimize("m"), evaluator)
        up_bias = up.start().for_param("a").bias
        down_bias = down.start().for_param("a").bias
        assert up_bias > 0  # m grows with a
        assert down_bias == -up_bias

    def test_state_dict_carries_estimate(self, space, evaluator):
        provider = EstimatedHints(budget=40, seed=0).bind(
            space, maximize("m"), evaluator
        )
        provider.start()
        payload = json.loads(json.dumps(provider.state_dict()))
        calls = []
        never_called = CallableEvaluator(
            lambda g: calls.append(1) or {"m": 0.0}
        )
        fresh = EstimatedHints(budget=40, seed=0)
        fresh.load_state_dict(payload)
        fresh.bind(space, maximize("m"), never_called)
        assert fresh.start().hints == provider.hints
        assert calls == []  # restored estimate — no re-sweep

    def test_engine_runs_with_estimated_guidance(self, space, evaluator):
        search = GeneticSearch(
            space,
            evaluator,
            maximize("m"),
            GAConfig(seed=2, generations=10),
            guidance=EstimatedHints(budget=30, seed=1),
        )
        result = search.run()
        assert search.label == "nautilus"
        assert result.best_raw >= 24  # optimum is 30
        # Sweep evaluations were charged to the engine's own stack.
        assert search.guidance.used is not None


class TestCheckpointedGuidance:
    def test_resume_restores_adaptive_controller(self, space, evaluator, tmp_path):
        path = tmp_path / "ga.ckpt.json"
        config = GAConfig(seed=9, generations=20)

        def build():
            return GeneticSearch(
                space,
                evaluator,
                maximize("m"),
                config,
                checkpoint_path=path,
                guidance=AdaptiveConfidence(author_hints(0.7), patience=2),
            )

        full = build()
        full_result = full.run()

        interrupted = build()
        interrupted.start()
        for _ in range(8):
            interrupted.step()

        resumed = build().resume(path)
        resumed_result = resumed.run()
        assert [r.best_score for r in resumed_result.records] == [
            r.best_score for r in full_result.records
        ]
        assert resumed.guidance.confidence_trace[-1] == (
            full.guidance.confidence_trace[-1]
        )

    def test_checkpoint_journal_is_format_6_with_guidance(
        self, space, evaluator, tmp_path
    ):
        path = tmp_path / "ga.ckpt.json"
        search = GeneticSearch(
            space,
            evaluator,
            maximize("m"),
            GAConfig(seed=1, generations=3),
            hints=author_hints(),
            checkpoint_path=path,
        )
        search.start()
        for _ in range(3):
            search.step()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["format"] for line in lines] == [6, 6, 6]
        assert all(line["guidance"] == {"kind": "static"} for line in lines)
        search.run()
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["guidance"] == {"kind": "static"}


class TestJsonRoundTrip:
    def test_lossless_roundtrip(self):
        hints = HintSet(
            {
                "a": ParamHints(importance=90, bias=0.9, step=3),
                "b": ParamHints(importance=10, target=7),
                "c": ParamHints(bias=0.5, ordering=("p", "q", "r")),
            },
            confidence=0.65,
            importance_decay=0.1,
        )
        wire = json.loads(json.dumps(hintset_to_json(hints)))
        assert hintset_from_json(wire) == hints

    def test_roundtrip_validates_against_space(self, space):
        hints = HintSet({"a": ParamHints(bias=1.0)})
        restored = hintset_from_json(hintset_to_json(hints), space=space)
        assert restored == hints

    def test_schema_version_required(self):
        with pytest.raises(HintSpecError, match="schema"):
            hintset_from_json({"params": {}})

    def test_field_level_errors_collected(self):
        payload = {
            "schema": 1,
            "confidence": "high",
            "params": {
                "a": {"importance": 500},
                "b": {"bias": 2.0, "target": 3},
                "c": {"mystery": 1},
            },
        }
        with pytest.raises(HintSpecError) as excinfo:
            hintset_from_json(payload)
        fields = {e["field"] for e in excinfo.value.errors}
        assert "confidence" in fields
        assert "params.a" in fields  # importance out of range
        assert "params.b" in fields  # bias+target mutually exclusive
        assert "params.c.mystery" in fields  # unknown key

    def test_space_validation_errors_point_at_params(self, space):
        payload = hintset_to_json(
            HintSet({"zz": ParamHints(bias=1.0), "a": ParamHints(target=999)})
        )
        with pytest.raises(HintSpecError) as excinfo:
            hintset_from_json(payload, space=space)
        fields = {e["field"] for e in excinfo.value.errors}
        assert fields == {"params.zz", "params.a"}

    def test_non_object_payload(self):
        with pytest.raises(HintSpecError):
            hintset_from_json([1, 2, 3])
