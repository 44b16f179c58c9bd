"""Tests for the cross-campaign design archive store."""

import json

import numpy as np
import pytest

from repro.archive import DesignArchive
from repro.cli import main
from repro.core import (
    ChoiceParam,
    DesignSpace,
    InfeasibleDesignError,
    IntParam,
    NautilusError,
    OrderedParam,
    maximize,
)
from repro.core.evalstack import PersistentCache

FP = "fp-test-1"


@pytest.fixture
def space():
    return DesignSpace(
        "arc",
        [
            IntParam("a", 0, 3),
            OrderedParam("o", ("lo", "mid", "hi")),
            ChoiceParam("c", ("p", "q")),
        ],
    )


def metrics_for(genome):
    bonus = {"lo": 0.0, "mid": 2.0, "hi": 1.0}[genome["o"]]
    return {
        "m": 10.0 * genome["a"] + bonus,
        "n": 10.0 - genome["a"],
    }


def fill(archive, space, campaign="c1"):
    """Archive every design in the space; returns the row count."""
    genomes = [
        space.genome({"a": a, "o": o, "c": c})
        for a in range(4)
        for o in ("lo", "mid", "hi")
        for c in ("p", "q")
    ]
    outcomes = [(g, metrics_for(g)) for g in genomes]
    return archive.record_many(outcomes, FP, campaign=campaign)


class TestRecording:
    def test_record_and_count(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        assert fill(archive, space) == 24
        assert archive.entries(space, FP) == 24

    def test_rerecord_is_deduplicated(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        fill(archive, space)
        assert fill(archive, space, campaign="c2") == 0
        assert archive.entries(space, FP) == 24

    def test_first_writer_wins(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        g = space.genome({"a": 1, "o": "lo", "c": "p"})
        assert archive.record(g, {"m": 1.0}, FP, campaign="first")
        assert not archive.record(g, {"m": 99.0}, FP, campaign="second")
        (row,) = archive.top_k(space, FP, maximize("m"), k=1)
        assert row["metrics"]["m"] == 1.0
        assert row["campaign"] == "first"

    def test_infeasible_recorded_transient_skipped(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        bad = space.genome({"a": 0, "o": "lo", "c": "p"})
        flaky = space.genome({"a": 1, "o": "lo", "c": "p"})
        written = archive.record_many(
            [
                (bad, InfeasibleDesignError("no route")),
                (flaky, RuntimeError("license server down")),
            ],
            FP,
        )
        assert written == 1
        stats = archive.stats()
        assert stats["rows"] == 1
        assert stats["infeasible"] == 1
        # Infeasible rows never reach score-ranked retrieval.
        assert archive.top_k(space, FP, maximize("m")) == []

    def test_rows_survive_reload(self, tmp_path, space):
        fill(DesignArchive(tmp_path), space)
        fresh = DesignArchive(tmp_path)
        assert fresh.entries(space, FP) == 24

    def test_torn_trailing_line_skipped(self, tmp_path, space):
        fill(DesignArchive(tmp_path), space)
        (path,) = tmp_path.glob("*.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"values": ["trunc')  # killed mid-write
        fresh = DesignArchive(tmp_path)
        assert fresh.entries(space, FP) == 24

    def test_append_after_torn_line_starts_a_new_line(self, tmp_path, space):
        genomes = [space.genome({"a": a, "o": "lo", "c": "p"}) for a in range(3)]
        archive = DesignArchive(tmp_path)
        archive.record_many([(g, metrics_for(g)) for g in genomes[:2]], FP)
        (path,) = tmp_path.glob("*.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"values": ["trunc')  # killed mid-write
        resumed = DesignArchive(tmp_path)
        resumed.record_many([(genomes[2], metrics_for(genomes[2]))], FP)
        assert DesignArchive(tmp_path).entries(space, FP) == 3

    def test_empty_file_gets_its_header(self, tmp_path, space):
        """A file left empty (killed between open and flush) is not a
        headerless file forever."""
        archive = DesignArchive(tmp_path)
        archive.store._path(space.name, FP).touch()
        assert fill(archive, space) == 24
        assert DesignArchive(tmp_path).entries(space, FP) == 24

    def test_a_row_that_fails_to_encode_is_not_indexed(self, tmp_path, space):
        """Rows enter the index only once their line is written."""
        archive = DesignArchive(tmp_path)
        g = space.genome({"a": 2, "o": "mid", "c": "q"})
        with pytest.raises(TypeError):
            archive.record(g, {"m": np.float32(1.5)}, FP, campaign="c1")
        assert archive.entries(space, FP) == 0
        assert archive.record(g, {"m": 1.5}, FP, campaign="c1")
        (row,) = DesignArchive(tmp_path).top_k(space, FP, maximize("m"), k=1)
        assert row["metrics"] == {"m": 1.5}

    def test_fingerprint_mismatch_rejected(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        fill(archive, space)
        # Masquerade the fp-test-1 file as another fingerprint's.
        other = DesignArchive(tmp_path)
        src = archive.store._path(space.name, FP)
        dst = other.store._path(space.name, "fp-other")
        dst.write_text(src.read_text())
        with pytest.raises(NautilusError):
            other.entries(space, "fp-other")

    def test_counter_increments(self, tmp_path, space):
        class Counter:
            value = 0

            def inc(self, n=1):
                Counter.value += n

        class Registry:
            def counter(self, name, help):  # noqa: A002
                assert name == "nautilus_archive_rows_total"
                return Counter()

        archive = DesignArchive(tmp_path, registry=Registry())
        fill(archive, space)
        assert Counter.value == 24


class TestImport:
    def test_import_from_persistent_cache(self, tmp_path, space):
        cache = PersistentCache(tmp_path / "cache")
        genomes = [
            space.genome({"a": a, "o": "lo", "c": "p"}) for a in range(4)
        ]
        cache.put_many(
            [(g, metrics_for(g)) for g in genomes[:3]]
            + [(genomes[3], InfeasibleDesignError("x"))],
            FP,
        )
        archive = DesignArchive(tmp_path / "archive")
        report = archive.import_cache(tmp_path / "cache")
        assert report == {"files": 1, "imported": 4, "skipped": 0}
        stats = archive.stats()
        assert stats["rows"] == 4
        assert stats["infeasible"] == 1
        assert stats["campaigns"] == {"import": 4}
        # Idempotent: a second import skips everything.
        again = archive.import_cache(tmp_path / "cache")
        assert again == {"files": 1, "imported": 0, "skipped": 4}

    def test_import_copies_archive_rows_once(self, tmp_path, space):
        """An archive directory is a store directory too: its rows are
        copied once, each with the campaign that paid for it."""
        first = DesignArchive(tmp_path / "archive")
        fill(first, space, campaign="alpha")
        g = space.genome({"a": 0, "o": "lo", "c": "p"})
        first.store.put_many([(g, {"m": 99.0})], FP)  # already stored: kept
        other = DesignSpace("brc", [IntParam("z", 0, 1)])
        first.store.put_many([(other.genome({"z": 1}), {"m": 1.0})], FP)
        second = DesignArchive(tmp_path / "other")
        report = second.import_cache(tmp_path / "archive", campaign="import")
        assert report == {"files": 2, "imported": 25, "skipped": 0}
        assert second.stats()["campaigns"] == {"alpha": 24, "import": 1}
        (row,) = [
            row for row in second.top_k(space, FP, maximize("m"), k=24)
            if row["config"] == g.as_dict()
        ]
        assert (row["metrics"], row["campaign"]) == (metrics_for(g), "alpha")
        again = second.import_cache(tmp_path / "archive")
        assert again == {"files": 2, "imported": 0, "skipped": 25}

    def test_import_missing_dir(self, tmp_path):
        archive = DesignArchive(tmp_path / "archive")
        assert archive.import_cache(tmp_path / "nope")["files"] == 0


class TestRetrieval:
    def test_top_k_best_first(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        fill(archive, space)
        rows = archive.top_k(space, FP, maximize("m"), k=3)
        assert [row["raw"] for row in rows] == [32.0, 32.0, 31.0]
        assert rows[0]["config"]["a"] == 3
        assert rows[0]["config"]["o"] == "mid"

    def test_top_k_deterministic_ties(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        fill(archive, space)
        first = archive.top_k(space, FP, maximize("m"), k=10)
        again = DesignArchive(tmp_path).top_k(space, FP, maximize("m"), k=10)
        assert first == again

    def test_warm_start_configs(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        fill(archive, space)
        configs = archive.warm_start_configs(space, FP, maximize("m"), 2)
        assert len(configs) == 2
        assert all(space.is_feasible(space.genome(c)) for c in configs)
        assert configs[0]["a"] == 3

    def test_stale_rows_excluded_from_queries(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        fill(archive, space)
        # The generator evolved: "hi" no longer exists. Its rows stay on
        # disk but must never reach a retrieval consumer.
        shrunk = DesignSpace(
            "arc",
            [
                IntParam("a", 0, 3),
                OrderedParam("o", ("lo", "mid")),
                ChoiceParam("c", ("p", "q")),
            ],
        )
        rows = DesignArchive(tmp_path).top_k(shrunk, FP, maximize("m"), k=100)
        assert len(rows) == 16
        assert all(row["config"]["o"] in ("lo", "mid") for row in rows)

    def test_metric_missing_rows_skipped(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        g = space.genome({"a": 1, "o": "lo", "c": "p"})
        archive.record(g, {"other": 1.0}, FP)
        fill(archive, space)
        # The row predating metric "m" is simply not comparable.
        rows = archive.top_k(space, FP, maximize("m"), k=100)
        assert len(rows) == 23


class TestStats:
    def test_empty(self, tmp_path):
        assert DesignArchive(tmp_path / "nothing").stats() == {
            "rows": 0,
            "feasible": 0,
            "infeasible": 0,
            "files": 0,
            "spaces": {},
            "campaigns": {},
        }

    def test_counts_by_space_and_campaign(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        fill(archive, space, campaign="alpha")
        other = DesignSpace("brc", [IntParam("z", 0, 1)])
        archive.record_many(
            [(other.genome({"z": z}), {"m": float(z)}) for z in (0, 1)],
            "fp-b",
            campaign="beta",
        )
        stats = archive.stats()
        assert stats["rows"] == 26
        assert stats["files"] == 2
        assert stats["spaces"] == {"arc": 24, "brc": 2}
        assert stats["campaigns"] == {"alpha": 24, "beta": 2}

    def test_non_archive_files_ignored(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        fill(archive, space)
        (tmp_path / "notes.jsonl").write_text(
            json.dumps({"space": "arc"}) + "\n"
        )
        assert archive.stats()["files"] == 1


class TestCompactCommand:
    def test_cache_compact_on_an_archive_dir(self, tmp_path, space, capsys):
        """``nautilus cache compact`` works on an archive directory, older
        archive headers included: duplicate and torn rows go, and each
        design keeps its first row."""
        path = DesignArchive(tmp_path).store._path(space.name, FP)
        header = {"kind": "nautilus-archive", "schema": 1, "space": "arc",
                  "params": ["a", "o", "c"], "fingerprint": FP}
        first = {"values": [1, "lo", "p"], "metrics": {"m": 10.0}, "campaign": "c1"}
        later = {"values": [1, "lo", "p"], "metrics": {"m": 99.0}, "campaign": "c2"}
        other = {"values": [2, "mid", "q"], "metrics": None, "campaign": "c2"}
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in (header, first, later, other))
            + '{"values": [3, "hi"'  # killed mid-write
        )
        assert main(["cache", "compact", "--dir", str(tmp_path)]) == 0
        assert "2 duplicate/torn row(s) reclaimed" in capsys.readouterr().out
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [header, first, other]
        stats = DesignArchive(tmp_path).stats()
        assert (stats["rows"], stats["campaigns"]) == (2, {"c1": 1, "c2": 1})
