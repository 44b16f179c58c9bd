"""Tests for search checkpoint/resume."""

import json

import pytest

from repro.core import (
    CallableEvaluator,
    DesignSpace,
    GAConfig,
    GeneticSearch,
    InfeasibleDesignError,
    IntParam,
    JsonlTraceSink,
    NautilusError,
    RngStreams,
    SearchCheckpoint,
    maximize,
)
from repro.core.checkpoint import CheckpointJournal


@pytest.fixture
def space():
    return DesignSpace("ck", [IntParam("a", 0, 63), IntParam("b", 0, 63)])


@pytest.fixture
def counting_evaluator():
    calls = []

    def fn(genome):
        calls.append(1)
        if genome["a"] == 13 and genome["b"] == 13:
            raise InfeasibleDesignError("superstition hole")
        return {"m": float(genome["a"] + genome["b"])}

    return CallableEvaluator(fn), calls


class TestCheckpointing:
    def test_snapshot_written(self, space, counting_evaluator, tmp_path):
        evaluator, __ = counting_evaluator
        path = tmp_path / "run.ckpt.json"
        search = GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=1, generations=8),
            checkpoint_path=path,
        )
        search.start()
        for _ in range(8):
            search.step()
        # One journal line per generation step, each carrying only the
        # rows and records added since the line before it (generation 0's
        # record rides in generation 1's line).
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["format"] for line in lines] == [6] * 8
        assert [line["generation"] for line in lines] == list(range(1, 9))
        assert [len(line["records"]) for line in lines] == [2] + [1] * 7
        keys = [tuple(row["values"]) for line in lines for row in line["cache"]]
        assert len(keys) == len(set(keys))
        assert search.step() is None  # horizon: the journal is compacted
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["space"] == "ck"
        assert payload["generation"] == 8
        assert len(payload["population"]) == 10
        assert len(payload["records"]) == 9
        assert len(payload["cache"]) == len(list(search.stack.memo_items()))
        assert payload["eval_stats"] == search.eval_stats().counts()

    def test_atomic_write_no_tmp_left(self, space, counting_evaluator, tmp_path):
        evaluator, __ = counting_evaluator
        path = tmp_path / "run.ckpt.json"
        GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=1, generations=4),
            checkpoint_path=path,
        ).run()
        assert not list(tmp_path.glob("*.tmp"))

    def test_validation(self, space, counting_evaluator, tmp_path):
        """A search without a journal writes nothing, and resume() then
        needs a path."""
        evaluator, __ = counting_evaluator
        search = GeneticSearch(
            space, evaluator, maximize("m"), GAConfig(seed=1, generations=3)
        )
        assert search.checkpoint_path is None
        search.run()
        assert not list(tmp_path.iterdir())
        with pytest.raises(NautilusError, match="path"):
            GeneticSearch(space, evaluator, maximize("m")).resume()


class TestResume:
    def test_resume_reproduces_uninterrupted_run(
        self, space, counting_evaluator, tmp_path
    ):
        evaluator, __ = counting_evaluator
        reference = GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=5, generations=24),
            checkpoint_path=tmp_path / "ref.json",
        ).run()
        path = tmp_path / "interrupted.json"
        GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=5, generations=9),
            checkpoint_path=path,
        ).run()
        resumed = GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=5, generations=24),
            checkpoint_path=path,
        ).resume().run()
        assert resumed.curve() == reference.curve()
        assert resumed.best_config == reference.best_config

    def test_cache_not_repaid(self, space, counting_evaluator, tmp_path):
        evaluator, calls = counting_evaluator
        path = tmp_path / "c.json"
        GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=2, generations=10),
            checkpoint_path=path,
        ).run()
        phase1 = len(calls)
        calls.clear()
        resumed = GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=2, generations=20),
            checkpoint_path=path,
        ).resume().run()
        # Phase 2 pays only for genuinely new designs.
        assert len(calls) < phase1
        assert resumed.distinct_evaluations >= phase1

    def test_infeasible_restored(self, space, counting_evaluator, tmp_path):
        evaluator, calls = counting_evaluator
        path = tmp_path / "inf.json"
        # Force the hole into the cache.
        search = GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=3, generations=2), checkpoint_path=path,
        )
        search._counter.evaluate_many([space.genome(a=13, b=13)])
        search.run()
        calls.clear()
        resumed = GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=3, generations=2), checkpoint_path=path,
        ).resume()
        with pytest.raises(InfeasibleDesignError):
            resumed._counter.evaluate(space.genome(a=13, b=13))
        # Served from the restored cache: no fresh call.
        assert not calls

    def test_wrong_space_rejected(self, space, counting_evaluator, tmp_path):
        evaluator, __ = counting_evaluator
        path = tmp_path / "x.json"
        GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=1, generations=2), checkpoint_path=path,
        ).run()
        other = DesignSpace("other", [IntParam("a", 0, 63), IntParam("b", 0, 63)])
        with pytest.raises(NautilusError, match="space"):
            GeneticSearch(
                other, evaluator, maximize("m"), checkpoint_path=path
            ).resume()

    def test_corrupt_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99}))
        with pytest.raises(NautilusError, match="format"):
            SearchCheckpoint.load(path)


def _int_list_rng(payload):
    """An ``rng_streams`` payload in the format-4/5 encoding: each
    state's 625 words as a JSON list of ints."""
    streams = RngStreams.from_state(payload)
    if payload["mode"] == "shared":
        keys = {"shared": "init"}
    else:
        keys = {name: name for name in RngStreams.NAMES}
    encoded = {}
    for key, name in keys.items():
        version, internal, gauss = streams.stream(name).getstate()
        encoded[key] = [version, list(internal), gauss]
    return {"mode": payload["mode"], "streams": encoded}


class TestLegacyFormats:
    """Formats 4 and 5, the older formats still read, and the
    parameter-order guard format 4 introduced. A format-5 line writes
    each RNG state as a list of 625 ints; a format-4 file is a single
    JSON line with the keys of a format-5 line, minus the evaluation
    counters."""

    def test_format4_file_loads_as_one_line_journal(
        self, space, counting_evaluator, tmp_path
    ):
        evaluator, __ = counting_evaluator
        reference = GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=11, generations=18),
            checkpoint_path=tmp_path / "ref.json",
        ).run()
        path = tmp_path / "interrupted.json"
        GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=11, generations=6),
            checkpoint_path=path,
        ).run()
        payload = json.loads(path.read_text())
        payload["format"] = 4
        payload["rng_streams"] = _int_list_rng(payload["rng_streams"])
        del payload["eval_stats"]
        path.write_text(json.dumps(payload))  # format 4: no trailing newline
        resumed = GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=11, generations=18),
            checkpoint_path=path,
        ).resume()
        # Format 4 carries no counters: its rows count as paid.
        assert resumed.distinct_evaluations == len(payload["cache"])
        resumed.start()
        resumed.step()
        resumed.step()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["format"] for line in lines] == [4, 6, 6]
        assert [line["generation"] for line in lines[1:]] == [7, 8]
        result = resumed.run()
        assert result.curve() == reference.curve()
        assert result.best_config == reference.best_config
        assert result.distinct_evaluations == reference.distinct_evaluations
        assert len(path.read_text().splitlines()) == 1

    def test_param_order_guard(self, space, counting_evaluator, tmp_path):
        """A checkpoint refuses to resume into a reordered space."""
        evaluator, __ = counting_evaluator
        path = tmp_path / "guard.json"
        GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=1, generations=2), checkpoint_path=path,
        ).run()
        reordered = DesignSpace(
            "ck", [IntParam("b", 0, 63), IntParam("a", 0, 63)]
        )
        with pytest.raises(NautilusError, match="parameter order"):
            GeneticSearch(
                reordered, evaluator, maximize("m"), checkpoint_path=path
            ).resume()


class TestKillAndResume:
    """A run killed mid-flight, resumed from its last snapshot, must land on
    the uninterrupted run's exact result — and the restored evaluation
    cache must prevent re-paying for designs evaluated before the kill."""

    def _reference(self, space, evaluator, tmp_path):
        return GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(seed=17, generations=20),
            checkpoint_path=tmp_path / "ref.json",
        ).run()

    def test_killed_run_resumes_to_identical_result(self, space, tmp_path):
        calls = []

        def fn(genome):
            calls.append(genome.as_dict())
            return {"m": float(genome["a"] + genome["b"])}

        reference = self._reference(space, CallableEvaluator(fn), tmp_path)
        reference_paid = len(calls)
        calls.clear()

        # Phase 1: the evaluator dies after 35 distinct designs (the full
        # run pays 59) — a crash mid-generation, after several snapshots.
        deadline = 35

        def bomb(genome):
            if len(calls) >= deadline:
                raise RuntimeError("cluster node lost")
            calls.append(genome.as_dict())
            return {"m": float(genome["a"] + genome["b"])}

        path = tmp_path / "killed.json"
        interrupted = GeneticSearch(
            space, CallableEvaluator(bomb), maximize("m"),
            GAConfig(seed=17, generations=20),
            checkpoint_path=path,
        )
        with pytest.raises(RuntimeError, match="cluster node lost"):
            interrupted.run()
        assert path.exists()
        snapshot = SearchCheckpoint.load(path)
        assert 0 < snapshot.generation < 20
        calls.clear()

        # Phase 2: resume against a healthy evaluator.
        resumed = GeneticSearch(
            space, CallableEvaluator(fn), maximize("m"),
            GAConfig(seed=17, generations=20),
            checkpoint_path=path,
        ).resume().run()

        assert resumed.curve() == reference.curve()
        assert resumed.best_config == reference.best_config
        assert resumed.distinct_evaluations == reference.distinct_evaluations
        # Cache accounting: the resumed half paid only for designs missing
        # from the snapshot — nothing already evaluated was re-bought.
        assert len(calls) == reference_paid - len(snapshot.cache)

    def test_resume_replays_stall_counter(self, space, tmp_path):
        """stall_generations keeps working across a kill/resume boundary."""
        flat = CallableEvaluator(lambda g: {"m": 1.0})
        reference = GeneticSearch(
            space, flat, maximize("m"),
            GAConfig(seed=4, generations=40, stall_generations=6),
            checkpoint_path=tmp_path / "flat_ref.json",
        ).run()
        assert reference.stop_reason == "stall"

        path = tmp_path / "flat.json"
        partial = GeneticSearch(
            space, flat, maximize("m"),
            GAConfig(seed=4, generations=3, stall_generations=6),
            checkpoint_path=path,
        )
        partial.run()  # stops at the horizon with 3 stalled generations
        resumed = GeneticSearch(
            space, flat, maximize("m"),
            GAConfig(seed=4, generations=40, stall_generations=6),
            checkpoint_path=path,
        ).resume().run()
        assert resumed.stop_reason == "stall"
        assert resumed.curve() == reference.curve()


class TestFormat6:
    """Format 6 packs each RNG state; format-5 journals still resume."""

    def _search(self, space, evaluator, path, split=False):
        return GeneticSearch(
            space, evaluator, maximize("m"),
            GAConfig(
                seed=23, generations=16,
                rng_streams="split" if split else "shared",
            ),
            checkpoint_path=path,
        )

    def test_line_packs_each_rng_state(self, space, counting_evaluator, tmp_path):
        evaluator, __ = counting_evaluator
        path = tmp_path / "journal.json"
        search = self._search(space, evaluator, path)
        search.start()
        search.step()
        search.close()
        (line,) = [json.loads(l) for l in path.read_text().splitlines()]
        version, words, gauss = line["rng_streams"]["streams"]["shared"]
        assert isinstance(words, str) and len(words) == 3336  # 2,500 bytes

    @pytest.mark.parametrize("split", (False, True), ids=["shared", "split"])
    def test_format5_journal_resumes_and_gains_format6_lines(
        self, space, counting_evaluator, tmp_path, split
    ):
        evaluator, __ = counting_evaluator
        reference = self._search(
            space, evaluator, tmp_path / "ref.json", split
        ).run()
        path = tmp_path / "journal.json"
        interrupted = self._search(space, evaluator, path, split)
        interrupted.start()
        for _ in range(5):
            interrupted.step()
        interrupted.close()
        rng_state = interrupted.rngs.getstate()
        # Rewrite the journal as this version's predecessor wrote it.
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        for line in lines:
            line["format"] = 5
            line["rng_streams"] = _int_list_rng(line["rng_streams"])
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))

        resumed = self._search(space, evaluator, path, split).resume()
        resumed.start()
        assert resumed.rngs.getstate() == rng_state
        resumed.step()
        formats = [json.loads(l)["format"] for l in path.read_text().splitlines()]
        assert formats == [5] * len(lines) + [6]
        result = resumed.run()
        assert result.records == reference.records
        assert result.best_config == reference.best_config
        assert result.eval_stats.counts() == reference.eval_stats.counts()

    def test_malformed_packed_state_raises_at_resume(
        self, space, counting_evaluator, tmp_path
    ):
        evaluator, __ = counting_evaluator
        path = tmp_path / "journal.json"
        search = self._search(space, evaluator, path)
        search.start()
        search.step()
        search.step()
        search.close()
        lines = path.read_text().splitlines()
        last = json.loads(lines[-1])
        version, words, gauss = last["rng_streams"]["streams"]["shared"]
        last["rng_streams"]["streams"]["shared"] = [version, words[:-8], gauss]
        path.write_text("\n".join([*lines[:-1], json.dumps(last)]) + "\n")
        with pytest.raises(NautilusError, match="malformed RNG state"):
            self._search(space, evaluator, path).resume()


class TestEventsBeforeJournal:
    def test_generation_end_is_in_the_file_before_its_journal_line(
        self, space, counting_evaluator, tmp_path, monkeypatch
    ):
        """A journal line never commits a generation whose events a
        killed daemon could still lose."""
        evaluator, __ = counting_evaluator
        journal = tmp_path / "checkpoint.json"
        events = tmp_path / "events.jsonl"

        def generation_ends():
            if not events.exists():
                return []
            return [
                payload["generation"]
                for payload in map(json.loads, events.read_text().splitlines())
                if payload["kind"] == "generation-end"
            ]

        appended = []
        append = CheckpointJournal.append

        def checked_append(self, checkpoint):
            assert generation_ends()[-1] == checkpoint.generation
            appended.append(checkpoint.generation)
            append(self, checkpoint)

        monkeypatch.setattr(CheckpointJournal, "append", checked_append)
        search = GeneticSearch(
            space, evaluator, maximize("m"), GAConfig(seed=3, generations=12),
            checkpoint_path=journal,
        )
        sink = JsonlTraceSink(events)
        search.attach_sink(sink)
        search.start()
        while search.step() is not None:
            journaled = len(journal.read_text().splitlines())
            assert len(generation_ends()) >= journaled
        sink.close()
        search.close()
        assert appended == list(range(1, 13))


class TestResumedTracing:
    def test_resumed_run_has_one_run_span_parenting_every_generation(
        self, space, counting_evaluator, tmp_path
    ):
        """A resumed traced search starts through the kernel's one start
        path, so its span tree has a root like a fresh run's."""
        evaluator, __ = counting_evaluator
        path = tmp_path / "traced.json"

        def build():
            return GeneticSearch(
                space, evaluator, maximize("m"),
                GAConfig(seed=6, generations=5, tracing=True),
                checkpoint_path=path,
            )

        first = build()
        first.start()
        first.step()
        first.step()
        first.close()
        resumed = build().resume()
        result = resumed.run()
        spans = resumed.spans()
        (run,) = [span for span in spans if span["name"] == "run"]
        generations = [span for span in spans if span["name"] == "generation"]
        assert [span["attrs"]["generation"] for span in generations] == [3, 4, 5]
        assert all(span["parent"] == run["id"] for span in generations)
        assert run["end_s"] is not None
        assert run["attrs"]["stop_reason"] == result.stop_reason == "horizon"
        assert run["attrs"]["generations"] == 5
