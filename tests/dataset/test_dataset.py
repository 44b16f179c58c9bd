"""Tests for the characterized-dataset container."""

import pytest

from repro.core import (
    CallableEvaluator,
    DesignSpace,
    InfeasibleDesignError,
    IntParam,
    maximize,
    minimize,
)
from repro.core.errors import DatasetError
from repro.dataset import Dataset


@pytest.fixture
def space():
    return DesignSpace("ds", [IntParam("a", 0, 9), IntParam("b", 0, 1)])


@pytest.fixture
def dataset(space):
    evaluator = CallableEvaluator(lambda g: {"m": float(g["a"] + 10 * g["b"])})
    return Dataset.characterize(space, evaluator, name="toy")


class TestCharacterize:
    def test_covers_space(self, dataset, space):
        assert len(dataset) == space.size()
        assert dataset.feasible_count == space.size()

    def test_records_infeasible(self, space):
        def fn(genome):
            if genome["a"] == 5:
                raise InfeasibleDesignError("hole")
            return {"m": 1.0}

        dataset = Dataset.characterize(space, CallableEvaluator(fn))
        assert len(dataset) == space.size()
        assert dataset.feasible_count == space.size() - 2
        with pytest.raises(InfeasibleDesignError):
            dataset.lookup({"a": 5, "b": 0})

    def test_lookup_miss(self, space):
        dataset = Dataset("empty-ish", space)
        with pytest.raises(DatasetError, match="not characterized"):
            dataset.lookup({"a": 0, "b": 0})


class TestStatistics:
    def test_best_value(self, dataset):
        assert dataset.best_value(maximize("m")) == 19.0
        assert dataset.best_value(minimize("m")) == 0.0

    def test_percentile_value(self, dataset):
        # 20 designs; top 5% = the single best.
        assert dataset.percentile_value(maximize("m"), 5.0) == 19.0
        assert dataset.percentile_value(minimize("m"), 5.0) == 0.0
        # top 50% boundary
        mid = dataset.percentile_value(maximize("m"), 50.0)
        assert 9.0 <= mid <= 10.0

    def test_score_percent(self, dataset):
        assert dataset.score_percent(maximize("m"), 19.0) == 100.0
        assert dataset.score_percent(maximize("m"), -1.0) == 0.0
        assert dataset.score_percent(minimize("m"), 0.0) == 100.0
        # Middle value beats about half.
        assert 40.0 < dataset.score_percent(maximize("m"), 9.5) < 60.0

    def test_metric_values(self, dataset):
        values = dataset.metric_values(maximize("m"))
        assert len(values) == 20
        assert max(values) == 19.0


class TestPersistence:
    def test_save_load_round_trip(self, dataset, space, tmp_path):
        path = tmp_path / "toy.json.gz"
        dataset.save(path)
        loaded = Dataset.load(path, space)
        assert len(loaded) == len(dataset)
        assert loaded.lookup({"a": 3, "b": 1}) == dataset.lookup({"a": 3, "b": 1})
        assert loaded.best_value(maximize("m")) == 19.0

    def test_load_wrong_space_rejected(self, dataset, tmp_path):
        path = tmp_path / "toy.json.gz"
        dataset.save(path)
        other = DesignSpace("other", [IntParam("a", 0, 9), IntParam("b", 0, 1)])
        with pytest.raises(DatasetError, match="characterized for space"):
            Dataset.load(path, other)

    def test_load_wrong_params_rejected(self, dataset, tmp_path, space):
        path = tmp_path / "toy.json.gz"
        dataset.save(path)
        import gzip
        import json

        with gzip.open(path, "rt") as fh:
            payload = json.load(fh)
        payload["params"] = ["x", "y"]
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
        with pytest.raises(DatasetError, match="parameter names"):
            Dataset.load(path, space)

    def test_infeasible_round_trip(self, space, tmp_path):
        dataset = Dataset("inf", space)
        dataset.record({"a": 0, "b": 0}, None)
        dataset.record({"a": 1, "b": 0}, {"m": 2.0})
        path = tmp_path / "inf.json.gz"
        dataset.save(path)
        loaded = Dataset.load(path, space)
        with pytest.raises(InfeasibleDesignError):
            loaded.lookup({"a": 0, "b": 0})


class TestCache:
    def test_load_or_characterize(self, space, tmp_path, monkeypatch):
        monkeypatch.setenv("NAUTILUS_DATA_DIR", str(tmp_path))
        from repro.dataset import load_or_characterize

        calls = []

        class CountingEv:
            def evaluate(self, genome):
                calls.append(1)
                return {"m": float(genome["a"])}

        first = load_or_characterize(space, CountingEv(), "unit_toy")
        assert len(calls) == space.size()
        second = load_or_characterize(space, CountingEv(), "unit_toy")
        assert len(calls) == space.size()  # served from disk, no re-eval
        assert len(second) == len(first)
