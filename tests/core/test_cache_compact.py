"""Tests for PersistentCache.compact() and zero-denominator EvalStats."""

import json

import pytest

from repro.core import DesignSpace, InfeasibleDesignError, IntParam
from repro.core.evalstack import EvalStats, PersistentCache

FP = "fp-compact"


@pytest.fixture
def space():
    return DesignSpace("cmp", [IntParam("a", 0, 7)])


def put(cache, space, a, metric):
    cache.put_many([(space.genome({"a": a}), {"m": metric})], FP)


def raw_lines(root):
    (path,) = root.glob("*.jsonl")
    return path.read_text().splitlines()


class TestCompact:
    def test_noop_on_clean_cache(self, tmp_path, space):
        cache = PersistentCache(tmp_path)
        for a in range(4):
            put(cache, space, a, float(a))
        report = cache.compact()
        assert report["rows"] == 4
        assert report["reclaimed"] == 0
        assert len(raw_lines(tmp_path)) == 5  # header + 4 rows

    def test_duplicates_reclaimed_first_payload_kept(self, tmp_path, space):
        cache = PersistentCache(tmp_path)
        put(cache, space, 1, 1.0)
        # A second writer (another daemon) appended rows for the same
        # designs — simulate by appending raw duplicates.
        (path,) = tmp_path.glob("*.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"values": [1], "metrics": {"m": 2.0}}) + "\n")
            fh.write(json.dumps({"values": [1], "metrics": {"m": 3.0}}) + "\n")
        assert PersistentCache(tmp_path).get(space.genome({"a": 1}), FP) == (
            True, {"m": 1.0}
        )
        report = PersistentCache(tmp_path).compact()
        assert report["rows"] == 1
        assert report["reclaimed"] == 2
        assert len(raw_lines(tmp_path)) == 2
        # Reads are first-writer-wins; compaction must preserve that.
        found, metrics = PersistentCache(tmp_path).get(
            space.genome({"a": 1}), FP
        )
        assert found and metrics == {"m": 1.0}

    def test_torn_line_reclaimed(self, tmp_path, space):
        cache = PersistentCache(tmp_path)
        put(cache, space, 1, 1.0)
        put(cache, space, 2, 2.0)
        (path,) = tmp_path.glob("*.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"values": [3], "met')  # killed mid-write
        fresh = PersistentCache(tmp_path)
        report = fresh.compact()
        assert report["reclaimed"] == 1
        assert report["rows"] == 2
        # The rewritten file parses completely; nothing was lost.
        rewritten = PersistentCache(tmp_path)
        assert rewritten.get(space.genome({"a": 1}), FP) == (True, {"m": 1.0})
        assert rewritten.get(space.genome({"a": 2}), FP) == (True, {"m": 2.0})
        assert rewritten.compact()["reclaimed"] == 0

    def test_malformed_rows_reclaimed(self, tmp_path, space):
        cache = PersistentCache(tmp_path)
        put(cache, space, 1, 1.0)
        (path,) = tmp_path.glob("*.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"novalues": True}) + "\n")
        assert PersistentCache(tmp_path).compact()["reclaimed"] == 1

    def test_infeasible_rows_survive(self, tmp_path, space):
        cache = PersistentCache(tmp_path)
        cache.put_many(
            [(space.genome({"a": 5}), InfeasibleDesignError("hole"))], FP
        )
        put(cache, space, 1, 1.0)
        (path,) = tmp_path.glob("*.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        report = PersistentCache(tmp_path).compact()
        assert report["rows"] == 2
        found, metrics = PersistentCache(tmp_path).get(
            space.genome({"a": 5}), FP
        )
        assert found and metrics is None

    def test_headerless_files_left_alone(self, tmp_path):
        (tmp_path / "empty.jsonl").write_text("")
        report = PersistentCache(tmp_path).compact()
        assert report == {"files": {}, "rows": 0, "reclaimed": 0}

    def test_missing_root(self, tmp_path):
        report = PersistentCache(tmp_path / "nope").compact()
        assert report == {"files": {}, "rows": 0, "reclaimed": 0}

    def test_no_tmp_left_behind(self, tmp_path, space):
        cache = PersistentCache(tmp_path)
        put(cache, space, 1, 1.0)
        (path,) = tmp_path.glob("*.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("torn")
        PersistentCache(tmp_path).compact()
        assert not list(tmp_path.glob("*.tmp"))

    def test_per_file_report(self, tmp_path, space):
        cache = PersistentCache(tmp_path)
        put(cache, space, 1, 1.0)
        other = DesignSpace("oth", [IntParam("z", 0, 1)])
        cache.put_many([(other.genome({"z": 0}), {"m": 0.0})], FP)
        report = cache.compact()
        assert len(report["files"]) == 2
        assert all(
            cell == {"rows": 1, "reclaimed": 0}
            for cell in report["files"].values()
        )


class TestEvalStatsEmptyRun:
    """Ratio properties must stay finite on a run that never evaluated."""

    def test_all_ratios_zero(self):
        stats = EvalStats()
        assert stats.hit_rate == 0.0
        assert stats.persistent_hit_rate == 0.0
        assert stats.mean_batch == 0.0
        assert stats.infeasible_rate == 0.0
        assert stats.cache_hits == 0

    def test_as_dict_finite(self):
        payload = EvalStats().as_dict()
        for key in ("hit_rate", "persistent_hit_rate", "mean_batch",
                    "infeasible_rate"):
            assert payload[key] == 0.0

    def test_minus_of_empties_is_empty(self):
        delta = EvalStats().minus(EvalStats())
        assert delta.requests == 0
        assert delta.hit_rate == 0.0

    def test_requests_without_batches(self):
        # Memo hits only: requests grew but no batch was ever dispatched.
        stats = EvalStats(requests=5, memo_hits=5)
        assert stats.hit_rate == 1.0
        assert stats.mean_batch == 0.0
        assert stats.infeasible_rate == 0.0
