"""Tests for archive-mined hints and the ArchiveGuidance provider."""

import pytest

from repro.archive import ArchiveGuidance, DesignArchive, mine_hints
from repro.core import (
    CallableEvaluator,
    ChoiceParam,
    DesignSpace,
    IntParam,
    NautilusError,
    OrderedParam,
    maximize,
)
from repro.core.evalstack import evaluator_fingerprint


@pytest.fixture
def space():
    return DesignSpace(
        "mine",
        [
            IntParam("a", 0, 9),
            OrderedParam("o", ("lo", "mid", "hi")),
            ChoiceParam("c", ("p", "q", "r")),
        ],
    )


def score_fn(genome):
    # "a" carries a strong monotonic signal; "o" peaks at mid with no
    # monotonic trend; "c" never moves the metric.
    peak = {"lo": 0.0, "mid": 2.0, "hi": 0.0}[genome["o"]]
    return {"m": 10.0 * genome["a"] + peak}


@pytest.fixture
def evaluator():
    return CallableEvaluator(score_fn)


@pytest.fixture
def filled(tmp_path, space, evaluator):
    """An archive holding every design in the space, plus its fingerprint."""
    fingerprint = evaluator_fingerprint(evaluator)
    archive = DesignArchive(tmp_path / "archive")
    genomes = [
        space.genome({"a": a, "o": o, "c": c})
        for a in range(10)
        for o in ("lo", "mid", "hi")
        for c in ("p", "q", "r")
    ]
    archive.record_many([(g, score_fn(g)) for g in genomes], fingerprint)
    return archive, fingerprint


class TestMineHints:
    def test_channels(self, space, filled):
        archive, fingerprint = filled
        hints, used = mine_hints(archive, space, maximize("m"), fingerprint)
        assert used == 90
        # Importance from spread: "a" dominates, "o" is faint, "c" silent.
        assert hints.params["a"].importance == 100
        assert "c" not in hints.params
        # Bias from rank correlation along the ordering axis.
        assert hints.params["a"].bias > 0.5
        # "o" has spread but no monotonic trend -> target at the centroid.
        assert hints.params["o"].bias == 0.0
        assert hints.params["o"].target == "mid"
        hints.validate(space)

    def test_below_min_rows_is_neutral(self, space, filled):
        archive, fingerprint = filled
        hints, used = mine_hints(
            archive, space, maximize("m"), fingerprint, min_rows=200
        )
        assert used == 90
        assert hints.params == {}

    def test_empty_archive(self, tmp_path, space):
        archive = DesignArchive(tmp_path / "empty")
        hints, used = mine_hints(archive, space, maximize("m"), "fp")
        assert used == 0
        assert hints.params == {}

    def test_confidence_carried(self, space, filled):
        archive, fingerprint = filled
        hints, __ = mine_hints(
            archive, space, maximize("m"), fingerprint, confidence=0.9
        )
        assert hints.confidence == 0.9

    def test_parameter_validation(self, space, filled):
        archive, fingerprint = filled
        with pytest.raises(NautilusError):
            mine_hints(archive, space, maximize("m"), fingerprint, min_rows=0)
        with pytest.raises(NautilusError):
            mine_hints(
                archive, space, maximize("m"), fingerprint, top_fraction=0.0
            )

    def test_deterministic(self, space, filled):
        archive, fingerprint = filled
        first, __ = mine_hints(archive, space, maximize("m"), fingerprint)
        again, __ = mine_hints(
            DesignArchive(archive.root), space, maximize("m"), fingerprint
        )
        assert {n: (h.importance, h.bias, h.target) for n, h in first.params.items()} == {
            n: (h.importance, h.bias, h.target) for n, h in again.params.items()
        }


class TestArchiveGuidance:
    def test_lazy_mining_on_peek(self, space, evaluator, filled):
        archive, __ = filled
        provider = ArchiveGuidance(archive, min_rows=1)
        provider.bind(space, maximize("m"), evaluator)
        assert provider.hints is None
        state = provider.peek(0)
        assert provider.rows_used == 90
        assert state.hints.params["a"].importance == 100

    def test_requires_archive_or_root(self):
        with pytest.raises(NautilusError):
            ArchiveGuidance()

    def test_state_dict_round_trip_skips_remining(
        self, tmp_path, space, evaluator, filled
    ):
        archive, __ = filled
        provider = ArchiveGuidance(archive, min_rows=1)
        provider.bind(space, maximize("m"), evaluator)
        provider.peek(0)
        payload = provider.state_dict()
        # A resumed campaign points at a root that no longer exists; the
        # mined hints travel in the checkpoint, so nothing re-mines.
        restored = ArchiveGuidance(root=str(tmp_path / "gone"), min_rows=1)
        restored.load_state_dict(payload)
        restored.bind(space, maximize("m"), evaluator)
        state = restored.peek(3)
        assert restored.rows_used == 90
        assert state.hints.params["a"].bias == provider.hints.params["a"].bias

    def test_wrong_kind_rejected(self, filled):
        archive, __ = filled
        provider = ArchiveGuidance(archive)
        with pytest.raises(NautilusError):
            provider.load_state_dict({"kind": "static", "hints": None})

    def test_unbound_peek_rejected(self, filled):
        archive, __ = filled
        with pytest.raises(NautilusError):
            ArchiveGuidance(archive).peek(0)

    def test_sparse_archive_stays_neutral(self, tmp_path, space, evaluator):
        fingerprint = evaluator_fingerprint(evaluator)
        archive = DesignArchive(tmp_path / "sparse")
        g = space.genome({"a": 1, "o": "lo", "c": "p"})
        archive.record(g, score_fn(g), fingerprint)
        provider = ArchiveGuidance(archive, min_rows=20)
        provider.bind(space, maximize("m"), evaluator)
        state = provider.peek(0)
        assert provider.rows_used == 1
        assert state.hints.params == {}
