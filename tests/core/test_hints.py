"""Tests for the hint taxonomy: validation, decay, derivation helpers."""

import pytest

from repro.core import (
    ChoiceParam,
    DesignSpace,
    HintError,
    HintSet,
    IntParam,
    OrderedParam,
    ParamHints,
    DEFAULT_IMPORTANCE,
)


@pytest.fixture
def space():
    return DesignSpace(
        "h",
        [
            IntParam("width", 1, 8),
            ChoiceParam("mode", ("alpha", "beta", "gamma")),
            OrderedParam("speed", ("slow", "fast")),
        ],
    )


class TestParamHints:
    def test_defaults(self):
        h = ParamHints()
        assert h.importance == DEFAULT_IMPORTANCE
        assert h.bias == 0.0 and h.target is None

    def test_importance_range(self):
        with pytest.raises(HintError):
            ParamHints(importance=0)
        with pytest.raises(HintError):
            ParamHints(importance=101)
        ParamHints(importance=1)
        ParamHints(importance=100)

    def test_bias_range(self):
        with pytest.raises(HintError):
            ParamHints(bias=1.5)
        with pytest.raises(HintError):
            ParamHints(bias=-1.5)

    def test_bias_target_mutually_exclusive(self):
        # Paper Section 3: "Each parameter can either be assigned a bias
        # hint or a target hint (but not both)".
        with pytest.raises(HintError, match="mutually exclusive"):
            ParamHints(bias=0.5, target=4)

    def test_step_positive(self):
        with pytest.raises(HintError):
            ParamHints(step=0)

    def test_flip_bias(self):
        assert ParamHints(bias=0.7).with_flipped_bias().bias == -0.7
        h = ParamHints(target=3)
        assert h.with_flipped_bias() is h  # targets are direction-free


class TestHintSetValidation:
    def test_unknown_param(self, space):
        hints = HintSet({"nope": ParamHints(bias=1.0)})
        with pytest.raises(HintError, match="unknown parameter"):
            hints.validate(space)

    def test_target_in_domain(self, space):
        hints = HintSet({"width": ParamHints(target=99)})
        with pytest.raises(HintError, match="target"):
            hints.validate(space)

    def test_ordering_must_be_permutation(self, space):
        hints = HintSet(
            {"mode": ParamHints(ordering=("alpha", "beta"))}
        )
        with pytest.raises(HintError, match="permutation"):
            hints.validate(space)

    def test_unordered_bias_needs_ordering(self, space):
        hints = HintSet({"mode": ParamHints(bias=0.5)})
        with pytest.raises(HintError, match="unordered"):
            hints.validate(space)

    def test_unordered_bias_with_ordering_ok(self, space):
        hints = HintSet(
            {"mode": ParamHints(bias=0.5, ordering=("gamma", "alpha", "beta"))}
        )
        hints.validate(space)

    def test_ordering_rejects_duplicates(self, space):
        hints = HintSet(
            {"mode": ParamHints(ordering=("alpha", "alpha", "beta"))}
        )
        with pytest.raises(HintError, match="permutation"):
            hints.validate(space)

    def test_ordering_rejects_repr_collisions(self):
        # Regression: the permutation check used to compare sorted reprs, so
        # a foreign value whose repr matches a domain member's (an int
        # subclass here) validated as if it were the member itself.
        class FakeInt(int):
            def __repr__(self):
                return repr(int(self))

        space = DesignSpace("r", [ChoiceParam("n", (1, 2, 3))])
        hints = HintSet({"n": ParamHints(ordering=(FakeInt(1), 2, 3))})
        with pytest.raises(HintError, match="permutation"):
            hints.validate(space)

    def test_ordering_accepts_genuine_permutation(self):
        space = DesignSpace("r", [ChoiceParam("n", (1, 2, 3))])
        HintSet({"n": ParamHints(ordering=(3, 1, 2))}).validate(space)

    def test_confidence_range(self):
        with pytest.raises(HintError):
            HintSet({}, confidence=1.5)
        with pytest.raises(HintError):
            HintSet({}, confidence=-0.1)

    def test_decay_range(self):
        with pytest.raises(HintError):
            HintSet({}, importance_decay=2.0)


class TestDerivation:
    def test_with_confidence(self):
        h = HintSet({"a": ParamHints(bias=1.0)}, confidence=0.8)
        weak = h.with_confidence(0.2)
        assert weak.confidence == 0.2
        assert weak.params == h.params

    def test_for_minimization_flips_biases(self):
        h = HintSet({"a": ParamHints(bias=0.5), "b": ParamHints(target=2)})
        flipped = h.for_minimization()
        assert flipped.params["a"].bias == -0.5
        assert flipped.params["b"].target == 2

    def test_restricted_to(self):
        h = HintSet({"a": ParamHints(bias=1.0), "b": ParamHints(bias=-1.0)})
        only_a = h.restricted_to(["a"])
        assert list(only_a.params) == ["a"]

    def test_unhinted_param_defaults(self):
        h = HintSet({})
        assert h.for_param("anything") == ParamHints()

    def test_for_minimization_preserves_confidence_and_decay(self):
        h = HintSet(
            {"a": ParamHints(bias=0.5)}, confidence=0.7, importance_decay=0.2
        )
        flipped = h.for_minimization()
        assert flipped.confidence == 0.7
        assert flipped.importance_decay == 0.2

    def test_restricted_to_preserves_confidence_and_decay(self):
        h = HintSet(
            {"a": ParamHints(bias=1.0), "b": ParamHints(bias=-1.0)},
            confidence=0.9,
            importance_decay=0.3,
        )
        only_b = h.restricted_to(["b"])
        assert only_b.confidence == 0.9
        assert only_b.importance_decay == 0.3

    def test_equality_is_structural(self):
        a = HintSet({"a": ParamHints(bias=1.0)}, confidence=0.6)
        b = HintSet({"a": ParamHints(bias=1.0)}, confidence=0.6)
        assert a == b
        assert a != b.with_confidence(0.5)
        assert a != b.with_decay(0.1)
        assert a != HintSet({"a": ParamHints(bias=-1.0)}, confidence=0.6)
        assert a.__eq__(object()) is NotImplemented


class TestImportanceDecay:
    def test_no_decay(self):
        h = HintSet({"a": ParamHints(importance=90)}, importance_decay=0.0)
        assert h.effective_importance("a", 0) == 90
        assert h.effective_importance("a", 50) == 90

    def test_decay_shrinks_toward_default(self):
        h = HintSet({"a": ParamHints(importance=100)}, importance_decay=0.1)
        values = [h.effective_importance("a", g) for g in (0, 5, 20, 200)]
        assert values[0] == 100
        assert values[0] > values[1] > values[2] > values[3]
        assert abs(values[3] - DEFAULT_IMPORTANCE) < 1.0

    def test_decay_raises_low_importance(self):
        # Decay works both ways: unimportant parameters drift UP toward the
        # default, increasing their late-phase mutation share.
        h = HintSet({"a": ParamHints(importance=1)}, importance_decay=0.1)
        assert h.effective_importance("a", 30) > 1

    def test_generation_zero_is_undecayed(self):
        h = HintSet({"a": ParamHints(importance=90)}, importance_decay=0.9)
        assert h.effective_importance("a", 0) == 90.0

    def test_negative_generation_treated_as_zero(self):
        h = HintSet({"a": ParamHints(importance=90)}, importance_decay=0.9)
        assert h.effective_importance("a", -3) == 90.0

    def test_full_decay_snaps_to_default_after_one_generation(self):
        h = HintSet(
            {"a": ParamHints(importance=100), "b": ParamHints(importance=1)},
            importance_decay=1.0,
        )
        assert h.effective_importance("a", 1) == float(DEFAULT_IMPORTANCE)
        assert h.effective_importance("b", 1) == float(DEFAULT_IMPORTANCE)

    def test_extreme_importances_stay_clamped_under_decay(self):
        # Decay only shrinks differences toward the default, so effective
        # values never leave the authored [min, max] envelope.
        h = HintSet(
            {"hi": ParamHints(importance=100), "lo": ParamHints(importance=1)},
            importance_decay=0.05,
        )
        for g in range(0, 120, 7):
            hi = h.effective_importance("hi", g)
            lo = h.effective_importance("lo", g)
            assert DEFAULT_IMPORTANCE <= hi <= 100
            assert 1 <= lo <= DEFAULT_IMPORTANCE

    def test_unhinted_param_is_neutral_both_paths(self):
        # The float the operators assume for unhinted params: identical
        # whether or not decay is configured.
        plain = HintSet({}, importance_decay=0.0)
        decayed = HintSet({}, importance_decay=0.4)
        assert plain.effective_importance("x", 9) == 50.0
        assert decayed.effective_importance("x", 9) == 50.0
