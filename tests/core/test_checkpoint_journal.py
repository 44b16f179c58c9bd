"""Crash consistency of the checkpoint journal (checkpoint format 6).

A campaign's journal is cut the way a killed writer leaves it — at every
line boundary and at every byte offset inside its final line — and every
cut must resume onto the uninterrupted run: same curve, best design,
distinct-evaluation count and counters, with the EvalStats invariant
closed, no row from the kept lines paid for again, and the resumed
writer's first line parseable rather than glued onto a torn tail.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CallableEvaluator,
    DesignSpace,
    GAConfig,
    GeneticSearch,
    InfeasibleDesignError,
    IntParam,
    SearchCheckpoint,
    maximize,
)
from repro.core.checkpoint import CheckpointJournal

HORIZON = 14
#: Generations journaled before the simulated kill (one line each).
KILLED_AT = 3


def _closes(stats) -> bool:
    return stats.requests == (
        stats.distinct + stats.memo_hits + stats.persistent_hits
        + stats.batch_dedup_hits
    )


@pytest.fixture(scope="module")
def space():
    return DesignSpace("journal", [IntParam("a", 0, 63), IntParam("b", 0, 63)])


def _evaluator(calls: list):
    def fn(genome):
        calls.append(genome.key)
        if genome["a"] % 7 == 3:
            raise InfeasibleDesignError("unroutable")
        return {"m": float((genome["a"] * genome["b"]) % 97)}

    return CallableEvaluator(fn)


def _search(space, calls, path, generations=HORIZON):
    return GeneticSearch(
        space, _evaluator(calls), maximize("m"),
        GAConfig(seed=21, generations=generations),
        checkpoint_path=path,
    )


@pytest.fixture(scope="module")
def reference(space, tmp_path_factory):
    """The uninterrupted run, and the journal of one killed at KILLED_AT."""
    root = tmp_path_factory.mktemp("journal")
    full = _search(space, [], root / "full.json")
    result = full.run()
    killed = _search(space, [], root / "killed.json")
    killed.start()
    for _ in range(KILLED_AT):
        killed.step()
    killed.close()
    data = (root / "killed.json").read_bytes()
    boundaries = [0] + [i + 1 for i, byte in enumerate(data) if byte == 0x0A]
    assert len(boundaries) == KILLED_AT + 1
    return {
        "result": result,
        "counts": full.eval_stats().counts(),
        "data": data,
        "boundaries": boundaries,
    }


def _kept_rows(data: bytes) -> set:
    keys = set()
    for line in data.splitlines():
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        keys.update(tuple(row["values"]) for row in payload["cache"])
    return keys


def _resume_cut(space, reference, cut: bytes, tmp_path: Path):
    """Resume a cut journal, check its first appended line, run it out."""
    path = tmp_path / "cut.json"
    path.write_bytes(cut)
    kept = SearchCheckpoint.read(path)
    kept_generation = kept.generation if kept is not None else 0
    calls: list = []
    resumed = _search(space, calls, path).resume()
    resumed.start()
    resumed.step()
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b""  # newline-terminated: nothing torn remains
    payloads = [json.loads(line) for line in lines[:-1]]
    assert payloads[-1]["generation"] == kept_generation + 1
    assert [p["generation"] for p in payloads] == list(
        range(1, kept_generation + 2)
    )
    result = resumed.run()
    truth = reference["result"]
    assert result.curve() == truth.curve()
    assert result.best_config == truth.best_config
    assert result.distinct_evaluations == truth.distinct_evaluations
    assert [r.distinct_evaluations for r in result.records] == [
        r.distinct_evaluations for r in truth.records
    ]
    stats = resumed.eval_stats()
    assert stats.counts() == reference["counts"]
    assert _closes(stats)
    repaid = {key[1] for key in calls} & _kept_rows(cut)
    assert not repaid
    return path


class TestCutJournal:
    @pytest.mark.parametrize("lines", range(KILLED_AT + 1))
    def test_cut_at_line_boundary(self, space, reference, tmp_path, lines):
        cut = reference["data"][: reference["boundaries"][lines]]
        path = _resume_cut(space, reference, cut, tmp_path)
        assert len(path.read_text().splitlines()) == 1  # compacted at finish

    @pytest.mark.parametrize("where", ["first-byte", "middle", "no-newline"])
    def test_resume_after_torn_final_line(self, space, reference, tmp_path, where):
        start, end = reference["boundaries"][-2:]
        offset = {
            "first-byte": start + 1,
            "middle": (start + end) // 2,
            "no-newline": end - 1,
        }[where]
        _resume_cut(space, reference, reference["data"][:offset], tmp_path)

    def test_every_offset_in_final_line_folds_to_a_boundary(
        self, reference, tmp_path
    ):
        """A resume depends only on the fold (state, rows, records) and the
        offset the writer continues at, so matching a boundary's fold at
        every offset carries the full resumes above to every cut."""
        data, boundaries = reference["data"], reference["boundaries"]
        start, end = boundaries[-2:]
        path = tmp_path / "cut.json"
        path.write_bytes(data)

        def fold(length):
            os.truncate(path, length)  # cut shorter and shorter
            ckpt = SearchCheckpoint.load(path)
            return (
                ckpt.generation, ckpt.population, ckpt.rng_streams,
                ckpt.eval_stats, len(ckpt.cache), len(ckpt.records), ckpt.end,
            )

        complete = fold(end)
        # Only the newline lost: the line itself is whole and counts.
        assert fold(end - 1) == complete[:-1] + (end - 1,)
        torn = [fold(offset) for offset in range(end - 2, start, -1)]
        before = fold(start)
        assert before[0] == complete[0] - 1
        for offset, state in zip(range(end - 2, start, -1), torn):
            assert state == before, offset

    def test_empty_journal_resumes_nothing(self, space, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b'{"format": 6, "spa')
        assert SearchCheckpoint.read(path) is None
        search = _search(space, [], path).resume()
        search.start()
        assert search.generation == 0


# -- append/load round trip -----------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_score = st.one_of(_finite, st.just(-math.inf))
_metrics = st.one_of(
    st.none(), st.dictionaries(st.sampled_from(["m", "luts", "fmax"]), _finite)
)
_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), _score, st.text(max_size=8)
)
_guidance = st.one_of(
    st.none(),
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(_json_leaf, st.lists(_json_leaf, max_size=3)),
        max_size=4,
    ),
)
_codes = st.lists(st.integers(0, 63), min_size=2, max_size=2)


@st.composite
def _line(draw, generation):
    records = [
        {
            "generation": generation,
            "best_raw": draw(_score),
            "best_score": draw(_score),
            "mean_score": draw(_score),
            "distinct_evaluations": draw(st.integers(0, 10**6)),
            "best_config": {"a": draw(st.integers(0, 63))},
        }
        for __ in range(draw(st.integers(0, 2)))
    ]
    cache = [
        {"values": draw(_codes), "metrics": draw(_metrics)}
        for __ in range(draw(st.integers(0, 4)))
    ]
    return SearchCheckpoint(
        space_name="journal",
        generation=generation,
        population=draw(st.lists(_codes, max_size=5)),
        rng_streams={"mode": "shared", "streams": {}},
        records=records,
        cache=cache,
        stalled=draw(st.integers(0, 50)),
        guidance=draw(_guidance),
        params=["a", "b"],
        eval_stats={"requests": draw(st.integers(0, 10**6))},
    )


@st.composite
def _journal(draw):
    count = draw(st.integers(1, 5))
    return [draw(_line(generation)) for generation in range(1, count + 1)]


def _state(ckpt):
    return (
        ckpt.generation, ckpt.population, ckpt.stalled, ckpt.guidance,
        ckpt.eval_stats, ckpt.params,
    )


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(lines=_journal(), extra=_line(99), torn=st.floats(0.0, 1.0))
    def test_append_then_load(self, lines, extra, torn):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "journal.json"
            journal = CheckpointJournal(path)
            for line in lines:
                journal.append(line)
            journal.close()
            # A writer killed mid-append leaves a prefix of its next line.
            raw = extra.line()
            with open(path, "ab") as handle:
                handle.write(raw[: int(torn * (len(raw) - 2))])
            loaded = SearchCheckpoint.load(path)
            assert _state(loaded) == _state(lines[-1])
            assert loaded.records == [r for l in lines for r in l.records]
            assert loaded.cache == [row for l in lines for row in l.cache]
            # The resumed writer drops the torn tail before appending.
            resumed = CheckpointJournal(path, keep=loaded.end)
            resumed.append(extra)
            resumed.close()
            again = SearchCheckpoint.load(path)
            assert _state(again) == _state(extra)
            assert again.cache == loaded.cache + extra.cache


# -- size ------------------------------------------------------------------------


def test_line_size_is_flat_in_generation_count(space, tmp_path):
    """ROADMAP's criterion: a journal line costs O(population), so late
    generations write no more bytes per line than early ones."""
    path = tmp_path / "long.json"
    search = _search(space, [], path, generations=200)
    search.start()
    for _ in range(200):
        search.step()
    sizes = [len(line) for line in path.read_bytes().splitlines()]
    assert len(sizes) == 200
    early, late = sizes[:50], sizes[150:]
    assert sum(late) / len(late) <= sum(early) / len(early)
