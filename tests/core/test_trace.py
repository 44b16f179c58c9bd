"""Unit tests for the structured run trace: events, sinks, aggregation."""

import json
import pickle
import sys
import threading

import pytest

from repro.analysis import trace_summary
from repro.core import (
    CappedJsonlTraceSink,
    GAConfig,
    GeneticSearch,
    HintSet,
    JsonlTraceSink,
    NautilusError,
    ParamHints,
    ParetoSearch,
    RecordingTraceSink,
    RunEvent,
    RunTrace,
    SearchKernel,
    maximize,
    minimize,
)
from repro.core.fileio import dumps


class TestRunEvent:
    def test_as_dict_flattens_payload(self):
        event = RunEvent(3, "eval-batch", 1, {"size": 10, "distinct": 4})
        assert event.as_dict() == {
            "seq": 3, "kind": "eval-batch", "generation": 1,
            "size": 10, "distinct": 4,
        }

    def test_deferred_payload_is_built_once_on_first_read(self):
        calls = []

        def build():
            calls.append(1)
            return {"size": 10, "distinct": 4}

        event = RunEvent.deferred(3, "eval-batch", 1, build)
        assert calls == []
        eager = RunEvent(3, "eval-batch", 1, {"size": 10, "distinct": 4})
        assert event == eager
        assert repr(event) == repr(eager)
        assert event.as_dict() == eager.as_dict()
        assert event.payload is event.payload
        assert calls == [1]

    def test_concurrent_first_reads_all_get_the_payload(self):
        # A status request may read an event while the scheduler thread
        # does: every reader gets the same payload, and one is kept.
        def build():
            return {"total": sum(range(2_000))}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                event = RunEvent.deferred(0, "health", 0, build)
                barrier = threading.Barrier(8)
                seen, errors = [], []

                def read():
                    try:
                        barrier.wait(timeout=5)
                        seen.append(event.payload)
                    except Exception as exc:  # reported below
                        errors.append(exc)

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=5)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert seen == [build()] * 8
                assert event.payload is event.payload
        finally:
            sys.setswitchinterval(interval)

    def test_events_are_immutable_and_pickle_with_their_payload(self):
        event = RunEvent.deferred(0, "health", 0, lambda: {"population": 4})
        with pytest.raises(AttributeError):
            event.seq = 5
        copy = pickle.loads(pickle.dumps(event))
        assert copy == RunEvent(0, "health", 0, {"population": 4})

    def test_emit_with_build_defers_the_payload(self):
        trace = RunTrace()
        calls = []
        trace.emit("health", 0, build=lambda: calls.append(1) or {"x": 1})
        (event,) = trace.events
        assert calls == []
        assert event.as_dict() == {
            "seq": 0, "kind": "health", "generation": 0, "x": 1,
        }
        assert calls == [1]


class TestRunTrace:
    def test_sequence_numbers_are_monotonic(self):
        trace = RunTrace()
        for generation in range(5):
            trace.emit("generation-start", generation)
        assert [e.seq for e in trace.events] == list(range(5))

    def test_unknown_kind_raises(self):
        with pytest.raises(NautilusError, match="unknown run-event kind"):
            RunTrace().emit("telemetry", 0)

    def test_notify_false_skips_sinks_but_keeps_event(self):
        trace = RunTrace()
        sink = RecordingTraceSink()
        trace.attach(sink)
        trace.emit("generation-start", 0, notify=False)
        trace.emit("generation-start", 1)
        assert [e.generation for e in trace.events] == [0, 1]
        assert [e.generation for e in sink.events()] == [1]


class TestOperatorTimings:
    """Operator timings are one running total per search, not events."""

    def test_operator_aggregation(self, toy_space, toy_evaluator):
        kernel = SearchKernel(toy_space, toy_evaluator, maximize("m"))
        kernel._charge_operator("mutation", 8, 0.25)
        kernel._charge_operator("mutation", 8, 0.5)
        kernel._charge_operator("selection", 16, 0.125)
        timings = kernel.operator_timings()
        assert timings["mutation"] == {"calls": 16, "time_s": 0.75}
        assert timings["selection"] == {"calls": 16, "time_s": 0.125}
        assert list(timings) == ["mutation", "selection"]
        timings["mutation"]["calls"] = 0  # a copy
        assert kernel.operator_timings()["mutation"]["calls"] == 16
        assert kernel.trace_events == []


class TestRecordingTraceSink:
    def test_keeps_only_last_n(self):
        trace = RunTrace()
        sink = RecordingTraceSink(limit=3)
        trace.attach(sink)
        for generation in range(10):
            trace.emit("generation-start", generation)
        assert [e.generation for e in sink.events()] == [7, 8, 9]

    def test_kind_filter(self):
        trace = RunTrace()
        sink = RecordingTraceSink(limit=None)
        trace.attach(sink)
        trace.emit("generation-start", 0)
        trace.emit("stop", 0, {"reason": "horizon"})
        assert [e.kind for e in sink.events("stop")] == ["stop"]


class TestJsonlTraceSink:
    def test_writes_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "nested" / "events.jsonl"
        trace = RunTrace([JsonlTraceSink(path)])
        trace.emit("generation-start", 0)
        trace.emit("stop", 0, {"reason": "horizon"})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["generation-start", "stop"]
        assert lines[1]["reason"] == "horizon"

    def test_appends_across_sinks(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = JsonlTraceSink(path)
        first.emit(RunEvent(0, "generation-start", 0))
        first.close()
        second = JsonlTraceSink(path)
        second.emit(RunEvent(1, "stop", 0, {"reason": "cancelled"}))
        second.close()
        assert len(path.read_text().splitlines()) == 2

    def test_emit_after_close_is_noop(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlTraceSink(path)
        sink.emit(RunEvent(0, "generation-start", 0))
        sink.close()
        sink.emit(RunEvent(1, "generation-start", 1))
        assert len(path.read_text().splitlines()) == 1

    def test_one_write_per_generation(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlTraceSink(path)
        sink.emit(RunEvent(0, "generation-start", 0))
        sink.emit(RunEvent(1, "eval-batch", 0, {"size": 4}))
        assert not path.exists()  # pending until the generation ends
        sink.emit(RunEvent(2, "generation-end", 0))
        assert len(path.read_text().splitlines()) == 3
        sink.emit(RunEvent(3, "phase-budget", 0))
        sink.emit(RunEvent(4, "stop", 0, {"reason": "horizon"}))
        sink.close()
        kinds = [json.loads(l)["kind"] for l in path.read_text().splitlines()]
        assert kinds == [
            "generation-start", "eval-batch", "generation-end",
            "phase-budget", "stop",
        ]

    def test_append_after_torn_line_starts_a_new_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"seq": 0, "kind": "generation-start", "generation": 4}\n'
            '{"seq": 1, "kind": "eval-ba'  # a daemon killed mid-write
        )
        sink = JsonlTraceSink(path)
        sink.emit(RunEvent(2, "generation-start", 5))
        sink.emit(RunEvent(3, "generation-end", 5))
        sink.close()
        events = []
        for line in path.read_text().splitlines():
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
        assert [(e["kind"], e["generation"]) for e in events] == [
            ("generation-start", 4),
            ("generation-start", 5),
            ("generation-end", 5),
        ]

    def test_capped_sink_bounds_the_file_after_every_write(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = CappedJsonlTraceSink(path, max_events=4)  # slack 8
        seq = 0
        for generation in range(20):
            for kind in ("generation-start", "eval-batch", "generation-end"):
                sink.emit(RunEvent(seq, kind, generation))
                seq += 1
            lines = [json.loads(l) for l in path.read_text().splitlines()]
            assert len(lines) <= 4 + 8
            assert lines[-1]["kind"] == "generation-end"
            assert lines[-1]["generation"] == generation
        sink.close()
        marker = [l for l in lines if l["kind"] == "trace-truncated"]
        assert marker and marker[0]["dropped"] > 0


class TestJsonlFilesHoldTheTrace:
    """A run's ``events.jsonl`` lines (the daemon's file) are the bytes of
    its in-memory events, in order, deferred payloads included."""

    @pytest.mark.parametrize("engine", ["genetic", "pareto"])
    def test_every_line_is_an_in_memory_event(
        self, toy_space, toy_evaluator, tmp_path, engine
    ):
        config = GAConfig(seed=6, generations=10)
        hints = HintSet(
            {"a": ParamHints(importance=80, bias=0.7)}, confidence=0.8
        )
        if engine == "genetic":
            search = GeneticSearch(
                toy_space, toy_evaluator, maximize("m"), config, hints=hints
            )
        else:
            search = ParetoSearch(
                toy_space, toy_evaluator,
                (maximize("m"), minimize("inverse")), config, hints=hints,
            )
        sinks = {
            "plain": JsonlTraceSink(tmp_path / "plain.jsonl"),
            "capped": CappedJsonlTraceSink(
                tmp_path / "capped.jsonl", max_events=10_000
            ),
            "small": CappedJsonlTraceSink(
                tmp_path / "small.jsonl", max_events=16
            ),
        }
        for sink in sinks.values():
            search.attach_sink(sink)
        result = search.run()
        for sink in sinks.values():
            sink.close()
        expected = [dumps(event.as_dict()) for event in result.events]
        kinds = {json.loads(line)["kind"] for line in expected}
        assert {"health", "hint-attribution"} <= kinds

        def lines(name):
            return (tmp_path / f"{name}.jsonl").read_text().splitlines()

        assert lines("plain") == expected
        assert lines("capped") == expected
        # The compacting sink keeps a head and a tail of the same lines.
        small = lines("small")
        (at,) = [
            i for i, line in enumerate(small)
            if json.loads(line)["kind"] == CappedJsonlTraceSink.MARKER_KIND
        ]
        head, tail = small[:at], small[at + 1:]
        assert head == expected[: len(head)]
        assert tail == expected[len(expected) - len(tail):]
        assert json.loads(small[at])["dropped"] == (
            len(expected) - len(head) - len(tail)
        )


class TestTraceSummary:
    EVENTS = [
        RunEvent(0, "generation-start", 0),
        RunEvent(1, "eval-batch", 0,
                 {"size": 10, "distinct": 8, "cache_hits": 2}),
        RunEvent(2, "generation-end", 0, {"best_score": 5.0}),
        RunEvent(3, "generation-start", 1),
        RunEvent(4, "eval-batch", 1,
                 {"size": 10, "distinct": 3, "cache_hits": 7}),
        RunEvent(5, "best-improved", 1, {"best_score": 7.0}),
        RunEvent(6, "generation-end", 1, {"best_score": 7.0}),
        RunEvent(7, "stop", 1, {"reason": "horizon"}),
    ]

    def test_summary_from_run_events(self):
        summary = trace_summary(self.EVENTS)
        assert summary["events"] == 8
        assert summary["kinds"]["eval-batch"] == 2
        assert summary["generations"] == 1
        assert summary["evaluations"] == {
            "requested": 20, "distinct": 11, "cache_hits": 9,
        }
        assert summary["improvements"] == [(1, 7.0)]
        assert summary["stop_reason"] == "horizon"

    def test_summary_from_service_dicts(self):
        payloads = [e.as_dict() for e in self.EVENTS]
        assert trace_summary(payloads) == trace_summary(self.EVENTS)
