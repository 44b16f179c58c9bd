"""Tests for the command-line interface.

These run against the cached datasets (built once per test session), so the
commands execute the real code paths end to end.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import (
    DatasetEvaluator,
    GAConfig,
    GeneticSearch,
    RandomSearch,
    hintset_from_json,
    objective_from_expression,
)
from repro.queries import QUERIES, build_hints, load_dataset, resolve_objective

#: A hints file for ``optimize --hints`` on a noc query.
HINTS = {
    "schema": 1,
    "confidence": 0.9,
    "params": {
        "pipeline_stages": {"importance": 80, "bias": 1.0},
        "num_vcs": {"importance": 60, "bias": -1.0},
    },
}
METRIC = "fmax_mhz/(luts+64*brams)"


def _reference_search(query_name, engine="nautilus", generations=80, seed=0,
                      confidence=None, budget=400, hints=None, metric=None):
    """The engine ``nautilus optimize`` must run for these flags, built by
    hand with the public engine API: the query's bundled hints re-weighted
    by ``--confidence``, a ``--hints`` file in their place, and no bundled
    hints for a ``--metric`` expression."""
    query = QUERIES[query_name]
    dataset = load_dataset(query.space)
    if metric:
        objective, hint_kind = objective_from_expression(metric, query.direction), None
    else:
        objective, hint_kind = resolve_objective(query)
    evaluator = DatasetEvaluator(dataset)
    if engine == "random":
        return RandomSearch(
            dataset.space, evaluator, objective, budget=budget, seed=seed
        )
    guidance = None
    if hints is not None:
        guidance = hintset_from_json(hints, dataset.space)
        if confidence is not None:
            guidance = guidance.with_confidence(confidence)
    elif engine == "nautilus" and hint_kind is not None:
        guidance = build_hints(hint_kind, confidence)
    return GeneticSearch(
        dataset.space, evaluator, objective,
        GAConfig(generations=generations, seed=seed), hints=guidance,
    )


def _optimize_report(out: str) -> tuple[str, str, list[str]]:
    """(best found, evaluated, configuration lines) of an optimize run."""
    lines = out.splitlines()
    fields = {
        key.strip(): value.strip()
        for key, __, value in (line.partition(":") for line in lines)
    }
    config = lines[lines.index("configuration:") + 1:]
    return fields["best found"].split(" (")[0], fields["evaluated"], config


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize", "fft-luts"])
        assert args.engine == "nautilus"
        assert args.generations == 80
        assert args.seed == 0

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


@pytest.mark.usefixtures("noc_dataset", "fft_ds")
class TestCommands:
    def test_optimize_nautilus(self, capsys):
        code = main(["optimize", "fft-luts", "--engine", "nautilus", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best found" in out
        assert "streaming_width" in out

    def test_optimize_baseline(self, capsys):
        code = main(
            ["optimize", "noc-frequency", "--engine", "baseline",
             "--generations", "10", "--seed", "2"]
        )
        assert code == 0
        assert "percentile" in capsys.readouterr().out

    def test_optimize_random(self, capsys):
        code = main(
            ["optimize", "fft-throughput-per-lut", "--engine", "random",
             "--budget", "50", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "50 distinct designs" in out

    @pytest.mark.parametrize(
        "argv,reference",
        [
            (["fft-luts", "--engine", "nautilus", "--generations", "8",
              "--seed", "1"],
             dict(query_name="fft-luts", generations=8, seed=1)),
            (["noc-frequency", "--confidence", "0.4", "--generations", "8",
              "--seed", "5"],
             dict(query_name="noc-frequency", generations=8, seed=5,
                  confidence=0.4)),
            (["noc-frequency", "--engine", "baseline", "--generations", "8",
              "--seed", "2"],
             dict(query_name="noc-frequency", engine="baseline",
                  generations=8, seed=2)),
            (["fft-throughput-per-lut", "--engine", "random", "--budget", "50",
              "--seed", "3"],
             dict(query_name="fft-throughput-per-lut", engine="random",
                  budget=50, seed=3)),
            (["noc-frequency", "--hints", "HINTS", "--confidence", "0.6",
              "--generations", "8", "--seed", "7"],
             dict(query_name="noc-frequency", generations=8, seed=7,
                  confidence=0.6, hints=HINTS)),
            (["noc-frequency", "--metric", METRIC, "--generations", "8",
              "--seed", "6"],
             dict(query_name="noc-frequency", generations=8, seed=6,
                  metric=METRIC)),
            (["noc-frequency", "--engine", "random", "--metric", METRIC,
              "--budget", "60", "--seed", "6"],
             dict(query_name="noc-frequency", engine="random", budget=60,
                  seed=6, metric=METRIC)),
        ],
        ids=["nautilus", "confidence", "baseline", "random", "hints-file",
             "metric", "random-metric"],
    )
    def test_optimize_runs_the_reference_search(
        self, argv, reference, capsys, tmp_path
    ):
        """What ``optimize`` runs, not just what it prints: the best value,
        the distinct-evaluation count and the best configuration equal
        those of the engine built by hand for the same flags."""
        hints_path = tmp_path / "hints.json"
        hints_path.write_text(json.dumps(HINTS))
        argv = [str(hints_path) if arg == "HINTS" else arg for arg in argv]
        assert main(["optimize", *argv]) == 0
        best, evaluated, config = _optimize_report(capsys.readouterr().out)
        result = _reference_search(**reference).run()
        assert best == f"{result.best_raw:.4g}"
        assert evaluated == f"{result.distinct_evaluations} distinct designs"
        assert config == [
            f"  {key} = {value}" for key, value in result.best_config.items()
        ]

    def test_optimize_direction_requires_metric(self, capsys):
        code = main(
            ["optimize", "noc-frequency", "--engine", "baseline",
             "--generations", "5", "--seed", "2", "--direction", "min"]
        )
        assert code == 1
        assert "--direction requires --metric" in capsys.readouterr().err

    def test_optimize_hints_file_needs_the_guided_engine(self, capsys, tmp_path):
        hints_path = tmp_path / "hints.json"
        hints_path.write_text(json.dumps(HINTS))
        code = main(
            ["optimize", "noc-frequency", "--engine", "baseline",
             "--hints", str(hints_path), "--generations", "5"]
        )
        assert code == 1
        assert "guided engine" in capsys.readouterr().err

    def test_estimate(self, capsys):
        code = main(["estimate", "noc-frequency", "--budget", "40", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "importance=" in out
        assert "pipeline_stages" in out

    def test_figure_small(self, capsys):
        code = main(["figure", "fig4", "--runs", "2", "--generations", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "NoC: Maximize Frequency" in out
        assert "Baseline" in out

    def test_figure_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["figure", "fig1", "--csv"])
        assert code == 0
        assert (tmp_path / "fig1.csv").exists()

    def test_characterize_cached(self, capsys):
        code = main(["characterize", "fft"])
        assert code == 0
        out = capsys.readouterr().out
        assert "designs characterized" in out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "mesh", "--endpoints", "16", "--cycles", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation throughput" in out
        assert "offered" in out

    def test_report(self, capsys, tmp_path):
        from repro.analysis import FigureSeries
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig4.txt").write_text("fake chart\n  note speedup = 3.0\n")
        fig = FigureSeries("fig4", "t", "x", "y")
        fig.add("s", [(1, 2)])
        fig.to_csv(results / "fig4.csv")
        out_path = tmp_path / "RESULTS.md"
        code = main(
            ["report", "--results-dir", str(results), "--output", str(out_path)]
        )
        assert code == 0
        text = out_path.read_text()
        assert "fake chart" in text
        assert "fig1" in text  # missing figures are listed, not skipped
        assert "Datasets" in text
