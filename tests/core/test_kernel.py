"""Shared protocol suite for every engine built on the search kernel.

One parametrized battery runs the baseline GA, the guided GA, the GA with
adaptive confidence, NSGA-II Pareto search, and the random baseline
through the same lifecycle assertions: start/step guards, run == stepping,
stop-reason vocabulary and precedence, seed handling (0 is a real seed,
not falsy), structured-trace invariants, and round-trips of the
generator's checkpointed state.
"""

import base64
import json
import random
import struct

import pytest

from repro.core import (
    AdaptiveConfidence,
    CallableEvaluator,
    GAConfig,
    GeneticSearch,
    HintSet,
    NautilusError,
    ParamHints,
    ParetoSearch,
    RandomSearch,
    RUN_EVENT_KINDS,
    SearchCheckpoint,
    maximize,
)
from repro.core.kernel import _rng_from_payload, _rng_payload
from repro.obs import FakeClock

from ..conftest import run_recorded

ENGINES = ("baseline", "nautilus", "adaptive", "random", "pareto")

_HINTS = HintSet({"a": ParamHints(importance=90, bias=1.0)}, confidence=0.7)


def make_engine(name, space, evaluator, seed=0, generations=6, **overrides):
    """A fresh engine of each supported kind over the toy fixtures."""
    objective = maximize("m")
    config = GAConfig(
        population_size=8, generations=generations, seed=seed, **overrides
    )
    if name == "baseline":
        return GeneticSearch(space, evaluator, objective, config)
    if name == "nautilus":
        return GeneticSearch(space, evaluator, objective, config, hints=_HINTS)
    if name == "adaptive":
        return GeneticSearch(
            space, evaluator, objective, config,
            guidance=AdaptiveConfidence(_HINTS, patience=2),
        )
    if name == "random":
        return RandomSearch(space, evaluator, objective, budget=30, seed=seed)
    if name == "pareto":
        return ParetoSearch(
            space,
            evaluator,
            [maximize("m"), maximize("inverse")],
            GAConfig(
                population_size=8, generations=generations, seed=seed,
                elitism=1, **overrides,
            ),
        )
    raise AssertionError(name)


@pytest.fixture(params=ENGINES)
def engine_name(request):
    return request.param


class TestLifecycleProtocol:
    def test_step_before_start_raises(self, engine_name, toy_space, toy_evaluator):
        engine = make_engine(engine_name, toy_space, toy_evaluator)
        with pytest.raises(NautilusError, match="start"):
            engine.step()

    def test_double_start_raises(self, engine_name, toy_space, toy_evaluator):
        engine = make_engine(engine_name, toy_space, toy_evaluator)
        engine.start()
        with pytest.raises(NautilusError, match="already started"):
            engine.start()

    def test_result_before_start_raises(
        self, engine_name, toy_space, toy_evaluator
    ):
        engine = make_engine(engine_name, toy_space, toy_evaluator)
        with pytest.raises(NautilusError):
            engine.result()

    def test_run_equals_stepping(self, engine_name, toy_space, toy_evaluator):
        blocking = make_engine(engine_name, toy_space, toy_evaluator).run()
        stepped_engine = make_engine(engine_name, toy_space, toy_evaluator)
        stepped_engine.start()
        while stepped_engine.step() is not None:
            pass
        stepped = stepped_engine.result()
        assert stepped.records == blocking.records
        assert stepped.stop_reason == blocking.stop_reason
        assert stepped.distinct_evaluations == blocking.distinct_evaluations
        front = getattr(blocking, "front_raws", None)
        if callable(front):
            assert stepped.front_raws() == blocking.front_raws()

    def test_finished_state_machine(self, engine_name, toy_space, toy_evaluator):
        engine = make_engine(engine_name, toy_space, toy_evaluator)
        assert not engine.started and not engine.finished
        engine.start()
        assert engine.started and not engine.finished
        result = engine.run()
        assert engine.finished
        assert result.stop_reason in ("horizon", "budget", "stall", "exhausted")
        assert engine.stop_reason == result.stop_reason
        assert engine.step() is None  # stepping past the end stays None

    def test_stop_pins_cancelled(self, engine_name, toy_space, toy_evaluator):
        engine = make_engine(engine_name, toy_space, toy_evaluator)
        engine.start()
        engine.step()
        engine.stop()
        assert engine.finished and engine.stop_reason == "cancelled"
        assert engine.step() is None
        assert engine.result().stop_reason == "cancelled"
        engine.stop("ignored")  # no-op once terminal
        assert engine.stop_reason == "cancelled"

    def test_seed_zero_is_a_real_seed(self, engine_name, toy_space, toy_evaluator):
        """seed=0 must not be treated as falsy (replaced by entropy)."""
        first = make_engine(engine_name, toy_space, toy_evaluator, seed=0).run()
        second = make_engine(engine_name, toy_space, toy_evaluator, seed=0).run()
        assert first.records == second.records
        other = make_engine(engine_name, toy_space, toy_evaluator, seed=1).run()
        assert first.records != other.records


class TestTraceInvariants:
    def test_event_stream_structure(self, engine_name, toy_space, toy_evaluator):
        result, events = run_recorded(
            make_engine(engine_name, toy_space, toy_evaluator)
        )
        assert events, "every run must emit a trace"
        assert all(e.kind in RUN_EVENT_KINDS for e in events)
        assert [e.seq for e in events] == list(range(len(events)))
        assert events[-1].kind == "stop"
        assert events[-1].payload["reason"] == result.stop_reason

    def test_records_derive_from_generation_end(
        self, engine_name, toy_space, toy_evaluator
    ):
        result, events = run_recorded(
            make_engine(engine_name, toy_space, toy_evaluator)
        )
        ends = [e for e in events if e.kind == "generation-end"]
        assert len(ends) == len(result.records)
        for event, record in zip(ends, result.records):
            assert event.payload["generation"] == record.generation
            assert event.payload["best_raw"] == record.best_raw
            assert event.payload["distinct_evaluations"] == (
                record.distinct_evaluations
            )

    def test_generational_engines_time_their_operators(
        self, engine_name, toy_space, toy_evaluator
    ):
        if engine_name == "random":
            pytest.skip("the random baseline has no breeding operators")
        result = make_engine(engine_name, toy_space, toy_evaluator).run()
        timings = result.operator_timings()
        for operator in ("init", "selection", "mutation"):
            assert timings[operator]["calls"] > 0
            assert timings[operator]["time_s"] >= 0.0


class TestOperatorTotals:
    """Operator timings are charged into one running total per search,
    and a result carries the total it was taken with."""

    @pytest.mark.parametrize("engine_name", ["baseline", "pareto"])
    def test_totals_are_the_sum_of_each_generations_timings(
        self, engine_name, toy_space, toy_evaluator
    ):
        config = GAConfig(population_size=8, generations=6, seed=4, elitism=1)
        clock = FakeClock(start=10.0, tick=0.125)
        if engine_name == "pareto":
            search = ParetoSearch(
                toy_space, toy_evaluator, [maximize("m"), maximize("inverse")],
                config, clock=clock,
            )
        else:
            search = GeneticSearch(
                toy_space, toy_evaluator, maximize("m"), config, clock=clock,
            )
        bred = []
        breed = search.pipeline.breed

        def spy(population, guidance, rng, count, timings=None, records=None):
            children = breed(population, guidance, rng, count, timings, records)
            bred.append({op: list(entry) for op, entry in timings.items()})
            return children

        search.pipeline.breed = spy
        result, events = run_recorded(search)
        # The init charge spans one clock tick: no read happens in between.
        expected = {"init": {"calls": 8, "time_s": 0.125}}
        for timings in bred:
            for operator, (calls, time_s) in timings.items():
                entry = expected.setdefault(operator, {"calls": 0, "time_s": 0.0})
                entry["calls"] += calls
                entry["time_s"] += time_s
        assert len(bred) == 6
        assert result.operator_timings() == search.operator_timings() == expected
        assert list(result.operator_timings()) == list(expected)
        assert not any(e.kind == "operator-applied" for e in events)

    def test_a_result_keeps_the_totals_it_was_taken_with(
        self, toy_space, toy_evaluator
    ):
        search = make_engine("baseline", toy_space, toy_evaluator)
        search.start()
        search.step()
        early = search.result()
        taken = early.operator_timings()
        search.step()
        assert early.operator_timings() == taken
        assert search.operator_timings()["mutation"]["calls"] > (
            taken["mutation"]["calls"]
        )


class TestStopPrecedence:
    def test_budget_fires_before_horizon(self, toy_space, toy_evaluator):
        engine = make_engine(
            "baseline", toy_space, toy_evaluator,
            generations=1, max_evaluations=1,
        )
        engine.start()
        assert engine.step() is None
        assert engine.stop_reason == "budget"

    def test_horizon_without_budget(self, toy_space, toy_evaluator):
        result = make_engine(
            "baseline", toy_space, toy_evaluator, generations=2
        ).run()
        assert result.stop_reason == "horizon"
        assert result.records[-1].generation == 2

    def test_stall_fires_when_flat(self, toy_space):
        flat = CallableEvaluator(lambda g: {"m": 1.0, "inverse": 1.0})
        engine = make_engine(
            "baseline", toy_space, flat, generations=50, stall_generations=2
        )
        result = engine.run()
        assert result.stop_reason == "stall"
        assert len(result.records) < 10  # stalled long before the horizon

    def test_random_budget_reason(self, toy_space, toy_evaluator):
        result = make_engine("random", toy_space, toy_evaluator).run()
        assert result.stop_reason == "budget"


class TestRngStreams:
    """The checkpoint's ``rng_streams`` field: the search generator's
    state as one ``"shared"`` stream, written and read by the kernel."""

    def test_getstate_round_trip_exact(self):
        rng = random.Random(3)
        for _ in range(34):
            rng.random()
        state = _rng_payload(rng)
        restored = _rng_from_payload(state)
        assert [restored.random() for _ in range(4)] == [
            rng.random() for _ in range(4)
        ]

    def test_setstate_mode_mismatch_raises(self):
        with pytest.raises(NautilusError, match="mode"):
            _rng_from_payload({"mode": "split", "streams": {}})

    def test_packed_state_restores_every_word(self):
        rng = random.Random(9)
        rng.gauss(0.0, 1.0)  # sets gauss_next
        state = json.loads(json.dumps(_rng_payload(rng)))
        assert list(state["streams"]) == ["shared"]
        assert isinstance(state["streams"]["shared"][1], str)
        assert _rng_from_payload(state).getstate() == rng.getstate()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda words: words[:-4],  # 624 words and a bit
            lambda words: "!" + words[1:],  # not base64
            lambda words: words + "AAAA",  # 626 words
            lambda words: {"words": words},
            lambda words: list(range(10)),  # a short int list
            # the words as a list of ints, as checkpoint formats 4 and 5
            # wrote them
            lambda words: list(struct.unpack("<625I", base64.b64decode(words))),
        ],
        ids=[
            "truncated", "not-base64", "too-long", "not-a-string", "short-list",
            "int-list",
        ],
    )
    def test_malformed_state_raises_nautilus_error(self, damage):
        state = _rng_payload(random.Random(1))
        version, words, gauss = state["streams"]["shared"]
        state["streams"]["shared"] = [version, damage(words), gauss]
        with pytest.raises(NautilusError, match="malformed RNG state"):
            _rng_from_payload(state)

    def test_missing_stream_raises_nautilus_error(self):
        state = _rng_payload(random.Random(1))
        del state["streams"]["shared"]
        with pytest.raises(NautilusError, match="malformed RNG state"):
            _rng_from_payload(state)


class TestCheckpointRngRoundTrip:
    def test_checkpoint_preserves_stream_state_exactly(self, toy_space, tmp_path):
        rng = random.Random(5)
        for _ in range(9):
            rng.random()
        payload = _rng_payload(rng)
        checkpoint = SearchCheckpoint(
            space_name="toy",
            generation=3,
            population=[],
            rng_streams=payload,
            records=[],
            cache=[],
            eval_stats={},
        )
        path = tmp_path / "ck.json"
        checkpoint.save(path)
        loaded = SearchCheckpoint.load(path)
        assert loaded.rng_streams == payload
        assert _rng_from_payload(loaded.rng_streams).random() == rng.random()

    def test_pareto_resume_is_bit_identical(
        self, toy_space, toy_evaluator, tmp_path
    ):
        objectives = [maximize("m"), maximize("inverse")]
        config = GAConfig(population_size=8, generations=8, seed=4, elitism=1)
        path = tmp_path / "pareto.json"
        uninterrupted = ParetoSearch(
            toy_space, toy_evaluator, objectives, config
        ).run()
        first = ParetoSearch(
            toy_space, toy_evaluator, objectives, config,
            checkpoint_path=path,
        )
        first.start()
        for _ in range(3):
            first.step()
        resumed = ParetoSearch(
            toy_space, toy_evaluator, objectives, config,
            checkpoint_path=path,
        )
        resumed.resume()
        resumed.start()
        while resumed.step() is not None:
            pass
        result = resumed.result()
        assert result.records == uninterrupted.records
        assert result.front_raws() == uninterrupted.front_raws()
        assert result.stop_reason == uninterrupted.stop_reason
