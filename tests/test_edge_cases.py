"""Edge-case and failure-injection tests across subsystem boundaries."""

import pytest

from repro.core import (
    CallableEvaluator,
    DesignSpace,
    EvaluationError,
    EvaluationStack,
    GAConfig,
    GeneticSearch,
    InfeasibleDesignError,
    IntParam,
    NautilusError,
    ParetoSearch,
    RandomSearch,
    maximize,
    minimize,
)


@pytest.fixture
def space():
    return DesignSpace("edge", [IntParam("a", 0, 9)])


def _genetic(space, evaluator, config):
    return GeneticSearch(space, evaluator, maximize("m"), config)


def _pareto(space, evaluator, config):
    return ParetoSearch(space, evaluator, [maximize("m"), minimize("n")], config)


#: Both generational engines, which share one outcome loop.
each_engine = pytest.mark.parametrize(
    "engine", [_genetic, _pareto], ids=["GeneticSearch", "ParetoSearch"]
)


class TestFailureInjection:
    def test_random_search_all_infeasible(self, space):
        def fn(genome):
            raise InfeasibleDesignError("nothing buildable")

        with pytest.raises(NautilusError, match="no feasible design"):
            RandomSearch(
                space, CallableEvaluator(fn), maximize("m"), budget=5, seed=1
            ).run()

    @each_engine
    def test_engine_propagates_unexpected_errors(self, space, engine):
        def fn(genome):
            raise RuntimeError("license server down")

        with pytest.raises(RuntimeError, match="license server"):
            engine(space, CallableEvaluator(fn), GAConfig(seed=1)).run()

    @each_engine
    def test_missing_metric_surfaces_clearly(self, space, engine):
        evaluator = CallableEvaluator(lambda g: {"other": 1.0})
        with pytest.raises(EvaluationError, match="available"):
            engine(space, evaluator, GAConfig(seed=1, generations=1)).run()

    def test_parallel_evaluator_propagates_unexpected_errors(self, space):
        def fn(genome):
            raise RuntimeError("node crashed")

        parallel = EvaluationStack(
            CallableEvaluator(fn), backend="thread", workers=2
        )
        # Two designs: a batch of one runs on the calling thread.
        results = parallel.evaluate_many([space.genome(a=1), space.genome(a=2)])
        assert all(isinstance(outcome, RuntimeError) for outcome in results)
        # And the engine re-raises it rather than swallowing.
        with pytest.raises(RuntimeError):
            GeneticSearch(
                space, parallel, maximize("m"), GAConfig(seed=1, generations=1)
            ).run()


class TestTinySpaces:
    def test_space_smaller_than_population(self):
        space = DesignSpace("tiny", [IntParam("a", 0, 2)])
        evaluator = CallableEvaluator(lambda g: {"m": float(g["a"])})
        result = GeneticSearch(
            space, evaluator, maximize("m"), GAConfig(seed=1, generations=5)
        ).run()
        assert result.best_raw == 2.0
        assert result.distinct_evaluations <= 3

    def test_single_point_space(self):
        space = DesignSpace("one", [IntParam("a", 7, 7)])
        evaluator = CallableEvaluator(lambda g: {"m": float(g["a"])})
        result = GeneticSearch(
            space, evaluator, maximize("m"), GAConfig(seed=1, generations=3)
        ).run()
        assert result.best_raw == 7.0
        assert result.distinct_evaluations == 1


class TestFigureSeriesEdges:
    def test_summary_rows_with_empty_series(self):
        from repro.analysis import FigureSeries

        figure = FigureSeries("f", "Empty-ish", "x", "y")
        figure.add("empty", [])
        figure.note("k", "v")
        rows = figure.summary_rows()
        assert rows[0].startswith("f:")
        assert any("note k" in row for row in rows)

    def test_ascii_plot_single_point(self):
        from repro.analysis import FigureSeries, ascii_plot

        figure = FigureSeries("f", "Dot", "x", "y")
        figure.add("s", [(1.0, 1.0)])
        text = ascii_plot(figure)
        assert "Dot" in text and "*" in text


class TestSynthReportEdges:
    def test_purely_combinational_module_times(self):
        from repro.synth import Adder, Module, SynthesisFlow

        module = Module("comb_only")
        module.add("add", Adder(8))
        report = SynthesisFlow(noise=0.0).run(module)
        assert report.fmax_mhz > 0
        assert report.luts >= 8

    def test_render_report_no_critical_path(self):
        from repro.synth import Module, SynthesisFlow, render_report

        report = SynthesisFlow().run(Module("hollow"))
        text = render_report(report)
        assert "hollow" in text
