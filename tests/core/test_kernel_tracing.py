"""Kernel-level span tracing: structure, coverage, and bit-identity."""

import pytest

from repro.core import (
    RUN_EVENT_KINDS,
    EvaluationStack,
    GAConfig,
    GeneticSearch,
    ParetoSearch,
    PersistentCache,
    RandomSearch,
    RecordingTraceSink,
    maximize,
    minimize,
)
from repro.obs import (
    FakeClock,
    MetricsRegistry,
    phase_budget,
    span_tree,
    validate_accounting,
)


def _run(toy_space, toy_evaluator, tracing, seed=5, generations=6, clock=None):
    search = GeneticSearch(
        toy_space,
        toy_evaluator,
        maximize("m"),
        GAConfig(seed=seed, generations=generations, tracing=tracing),
        clock=clock,
    )
    result = search.run()
    return search, result


class TestTracingFlag:
    def test_off_by_default_and_costless(self, toy_space, toy_evaluator):
        search, __ = _run(toy_space, toy_evaluator, tracing=False)
        assert search.tracer is None
        assert search.spans() == []

    def test_on_records_a_closed_tree(self, toy_space, toy_evaluator):
        search, __ = _run(toy_space, toy_evaluator, tracing=True)
        spans = search.spans()
        names = {span["name"] for span in spans}
        assert {"run", "generation", "phase", "eval-batch"} <= names
        assert all(span["end_s"] is not None for span in spans)
        (run,) = [s for s in spans if s["name"] == "run"]
        assert run["attrs"]["stop_reason"] == "horizon"

    def test_every_generation_has_its_span(self, toy_space, toy_evaluator):
        search, result = _run(toy_space, toy_evaluator, tracing=True)
        gens = [s for s in search.spans() if s["name"] == "generation"]
        recorded = sorted(s["attrs"]["generation"] for s in gens)
        assert recorded == list(range(len(result.records)))

    def test_accounting_closes(self, toy_space, toy_evaluator):
        search, __ = _run(toy_space, toy_evaluator, tracing=True)
        report = validate_accounting(search.spans())
        assert report["ok"], report["errors"]
        assert report["open_spans"] == 0

    def test_eval_batches_nest_under_evaluate_phase(
        self, toy_space, toy_evaluator
    ):
        search, __ = _run(toy_space, toy_evaluator, tracing=True)
        by_id, __tree = span_tree(search.spans())
        for span in search.spans():
            if span["name"] != "eval-batch":
                continue
            parent = by_id[span["parent"]]
            assert parent["name"] == "phase"
            assert parent["attrs"]["phase"] == "evaluate"


class TestPhaseCoverage:
    def test_phases_cover_generation_wall_clock(self, toy_space, toy_evaluator):
        search, __ = _run(toy_space, toy_evaluator, tracing=True)
        budget = phase_budget(search.spans())
        # Acceptance floor is 95%; the contiguous partition gives ~100%.
        assert budget["coverage"] >= 0.95
        for gen in budget["generations"]:
            assert gen["coverage"] >= 0.95

    def test_breed_window_is_one_measured_phase(
        self, toy_space, toy_evaluator
    ):
        search, __ = _run(toy_space, toy_evaluator, tracing=True)
        generations = phase_budget(search.spans())["generations"]
        # Generation 0 initializes; later generations breed, measured as
        # one window from the generation's start to its evaluation.
        assert set(generations[0]["phases"]) == {"init", "evaluate", "observe"}
        for row in generations[1:]:
            assert set(row["phases"]) == {
                "breed", "evaluate", "observe", "checkpoint"
            }
        # Per-operator time stays where breeding measures it.
        assert {"selection", "crossover", "mutation"} <= set(
            search.operator_timings()
        )

    def test_fake_clock_makes_durations_exact(self, toy_space, toy_evaluator):
        search, __ = _run(
            toy_space,
            toy_evaluator,
            tracing=True,
            clock=FakeClock(start=0.0, tick=1.0),
        )
        budget = phase_budget(search.spans())
        assert budget["coverage"] == pytest.approx(1.0)
        assert budget["wall_time_s"] > 0


class TestBitIdentity:
    def test_traced_run_matches_untraced(self, toy_space, toy_evaluator):
        __, traced = _run(toy_space, toy_evaluator, tracing=True, seed=11)
        __, plain = _run(toy_space, toy_evaluator, tracing=False, seed=11)
        assert traced.best_config == plain.best_config
        assert traced.curve() == plain.curve()
        assert traced.distinct_evaluations == plain.distinct_evaluations

    def test_random_search_traced_matches_untraced(
        self, toy_space, toy_evaluator
    ):
        def build(tracing):
            return RandomSearch(
                toy_space,
                toy_evaluator,
                maximize("m"),
                budget=60,
                seed=4,
                tracing=tracing,
            )

        traced, plain = build(True).run(), build(False).run()
        assert traced.best_config == plain.best_config
        assert traced.curve() == plain.curve()

    def test_no_run_emits_phase_budget_events(self, toy_space, toy_evaluator):
        def run(tracing):
            sink = RecordingTraceSink(limit=None)
            search = GeneticSearch(
                toy_space,
                toy_evaluator,
                maximize("m"),
                GAConfig(seed=3, generations=4, tracing=tracing),
            )
            search.attach_sink(sink)
            search.run()
            return search, [event.kind for event in sink.events()]

        traced, traced_kinds = run(True)
        __, plain_kinds = run(False)
        assert "phase-budget" not in RUN_EVENT_KINDS
        assert traced_kinds == plain_kinds
        # The span tree is the one record of where a generation's time went.
        budget = phase_budget(traced.spans())
        assert [row["generation"] for row in budget["generations"]] == [
            0, 1, 2, 3, 4
        ]


class TestPhaseBudgetFold:
    """Every ``phase_budget`` generation row, and every
    ``nautilus_phase_seconds`` observation, equals a fold over the whole
    span list: the generation's phase spans, by parent id, in creation
    order."""

    @pytest.mark.parametrize("engine", ["genetic", "pareto"])
    def test_payloads_equal_a_fold_over_every_span(
        self, toy_space, toy_evaluator, engine
    ):
        registry = MetricsRegistry()
        stack = EvaluationStack(toy_evaluator, registry=registry)
        config = GAConfig(seed=9, generations=15, tracing=True)
        # An uneven tick makes every duration an inexact float, so the
        # fold's order shows in the sums.
        clock = FakeClock(start=0.0, tick=0.0013)
        if engine == "genetic":
            search = GeneticSearch(
                toy_space, stack, maximize("m"), config, clock=clock
            )
        else:
            search = ParetoSearch(
                toy_space, stack, (maximize("m"), minimize("inverse")),
                config, clock=clock,
            )
        search.run()
        spans = search.tracer.spans()
        generations = {
            s.attrs["generation"]: s for s in spans if s.name == "generation"
        }
        rows = phase_budget(search.spans())["generations"]
        assert [row["generation"] for row in rows] == sorted(generations)
        observed: dict[str, list] = {}
        for row in rows:
            gen_span = generations[row["generation"]]
            phases: dict[str, float] = {}
            for span in spans:
                if span.parent_id == gen_span.span_id and span.name == "phase":
                    label = str(span.attrs.get("phase", "?"))
                    phases[label] = phases.get(label, 0.0) + (
                        span.duration_s or 0.0
                    )
            wall = gen_span.duration_s or 0.0
            assert list(row["phases"].items()) == list(phases.items())
            assert row["wall_time_s"] == wall
            assert row["coverage"] == (
                sum(phases.values()) / wall if wall > 0 else 1.0
            )
            for label, seconds in phases.items():
                total = observed.setdefault(label, [0.0, 0])
                total[0] += seconds
                total[1] += 1
        histogram = registry.histogram(
            "nautilus_phase_seconds", labelnames=("phase",)
        )
        assert set(observed) == {
            "init", "breed", "evaluate", "observe", "checkpoint"
        }
        for label, (seconds, count) in observed.items():
            snapshot = histogram.snapshot(phase=label)
            assert (snapshot["sum"], snapshot["count"]) == (seconds, count)


class TestCacheWrites:
    """Store-write timings are kept only for a tracer to read."""

    def _run(self, toy_space, toy_evaluator, root, tracing, generations=8):
        stack = EvaluationStack(toy_evaluator, persistent=PersistentCache(root))
        search = GeneticSearch(
            toy_space,
            stack,
            maximize("m"),
            GAConfig(seed=7, generations=generations, tracing=tracing),
        )
        search.run()
        stack.persistent.close()
        return search

    def test_traced_search_spans_each_paying_batch(
        self, toy_space, toy_evaluator, tmp_path
    ):
        # A shorter run stores the first generations, so the traced run
        # reads those back without paying and pays for the later ones.
        self._run(toy_space, toy_evaluator, tmp_path, False, generations=3)
        spans = self._run(toy_space, toy_evaluator, tmp_path, True).spans()
        __, children = span_tree(spans)
        paid = []
        for batch in (s for s in spans if s["name"] == "eval-batch"):
            writes = [
                c for c in children.get(batch["id"], ())
                if c["name"] == "cache-write"
            ]
            distinct = batch["attrs"]["distinct"]
            assert [w["attrs"]["entries"] for w in writes] == (
                [distinct] if distinct else []
            )
            paid.append(bool(distinct))
        assert paid[:4] == [False] * 4 and any(paid[4:])
        assert sum(s["name"] == "cache-write" for s in spans) == sum(paid)

    def test_only_a_batch_after_a_pushed_context_times_its_write(
        self, toy_space, toy_evaluator, tmp_path
    ):
        stack = EvaluationStack(
            toy_evaluator, persistent=PersistentCache(tmp_path)
        )
        genomes = list(toy_space.iter_genomes())
        stack.evaluate_many(genomes[:4])
        assert stack.distinct_evaluations == 4
        assert stack.pop_cache_writes() == []
        batches = (genomes[4:7], genomes[:4], genomes[7:9])  # the middle pays nothing
        for batch in batches:
            stack.push_trace_context({"trace": "t", "parent": 1})
            stack.evaluate_many(batch)
        assert [w["entries"] for w in stack.pop_cache_writes()] == [3, 2]
        assert stack.pop_cache_writes() == []
        stack.evaluate_many(genomes[9:12])
        stack.persistent.close()
        assert stack.distinct_evaluations == 12
        assert stack.pop_cache_writes() == []

    def test_untraced_search_keeps_no_write_timings(
        self, toy_space, toy_evaluator, tmp_path
    ):
        search = self._run(toy_space, toy_evaluator, tmp_path, False)
        assert search.eval_stats().distinct > 0
        assert search.stack.pop_cache_writes() == []
        stack = EvaluationStack(
            toy_evaluator, persistent=PersistentCache(tmp_path / "random")
        )
        RandomSearch(toy_space, stack, maximize("m"), budget=40, seed=2).run()
        stack.persistent.close()
        assert stack.distinct_evaluations == 40
        assert stack.pop_cache_writes() == []
