"""End-to-end integration tests: a custom IP generator wired through the
whole stack (netlist -> flow -> dataset -> guided GA -> Verilog).

This is the workflow a downstream IP author would follow to Nautilus-enable
their own generator, exercised as one pipeline.
"""

import pytest

from repro.core import (
    CallableEvaluator,
    DesignSpace,
    EvaluationStack,
    GAConfig,
    GeneticSearch,
    HintSet,
    IntParam,
    OrderedParam,
    ParamHints,
    PowOfTwoParam,
    estimate_hints,
    exhaustive_best,
    minimize,
)
from repro.dataset import Dataset
from repro.synth import (
    Adder,
    LutRam,
    Module,
    Mux,
    Register,
    SynthesisFlow,
    emit_verilog,
)


def build_mac_unit(config):
    """A toy multiply-accumulate IP: the "custom generator" under test."""
    module = Module(
        f"mac_w{config['width']}_t{config['taps']}_{config['adder_tree']}"
    )
    module.add_port("din", config["width"], "in")
    module.add_port("dout", config["width"], "out")
    module.add("in_reg", Register(config["width"]))
    module.add("coeffs", LutRam(config["taps"], config["width"]))
    module.add("products", Mux(config["width"], config["taps"]))
    if config["adder_tree"] == "ripple":
        module.add("accumulate", Adder(config["width"] * 2), replicate=config["taps"])
    else:  # tree: more adders (padding), shallower chain modeled by one
        module.add(
            "accumulate", Adder(config["width"]), replicate=2 * config["taps"]
        )
    module.add("out_reg", Register(config["width"]))
    module.chain("in_reg", "products", "accumulate", "out_reg")
    module.connect("coeffs", "products")
    return module


@pytest.fixture(scope="module")
def mac_space():
    return DesignSpace(
        "mac",
        [
            PowOfTwoParam("width", 8, 64),
            IntParam("taps", 2, 12),
            OrderedParam("adder_tree", ("ripple", "tree")),
        ],
    )


@pytest.fixture(scope="module")
def mac_evaluator():
    flow = SynthesisFlow()
    return CallableEvaluator(
        lambda genome: flow.run(build_mac_unit(genome.as_dict())).metrics()
    )


class TestCustomIpPipeline:
    def test_characterize_then_search(self, mac_space, mac_evaluator):
        dataset = Dataset.characterize(mac_space, mac_evaluator)
        assert len(dataset) == mac_space.size()

        objective = minimize("luts")
        truth = exhaustive_best(mac_space, mac_evaluator, objective)
        result = GeneticSearch(
            mac_space,
            mac_evaluator,
            objective,
            GAConfig(seed=3, generations=25),
        ).run()
        assert result.best_raw <= 1.2 * truth.raw

    def test_estimated_hints_accelerate(self, mac_space, mac_evaluator):
        objective = minimize("luts")
        hints, used = estimate_hints(
            mac_space, mac_evaluator, objective, budget=30, seed=5, confidence=0.8
        )
        assert used <= 30
        # width drives LUTs up: the sweep must find the positive bias.
        assert hints.params["width"].bias > 0

        threshold = 1.1 * exhaustive_best(mac_space, mac_evaluator, objective).raw
        base_total, guided_total = 0, 0
        for seed in range(6):
            base = GeneticSearch(
                mac_space, mac_evaluator, objective,
                GAConfig(seed=seed, generations=25),
            ).run()
            guided = GeneticSearch(
                mac_space, mac_evaluator, objective,
                GAConfig(seed=seed, generations=25), hints=hints,
            ).run()
            base_total += base.evals_to_reach(threshold) or 500
            guided_total += guided.evals_to_reach(threshold) or 500
        assert guided_total <= base_total

    def test_best_design_emits_verilog(self, mac_space, mac_evaluator):
        result = GeneticSearch(
            mac_space, mac_evaluator, minimize("luts"),
            GAConfig(seed=1, generations=10),
        ).run()
        text = emit_verilog(build_mac_unit(result.best_config))
        assert "endmodule" in text
        assert "accumulate" in text


class TestPaperWorkflowOnRealSubstrate:
    def test_dataset_backed_search_equals_live_search(self, noc_dataset):
        """Searching the dataset must behave exactly like the live flow."""
        from repro.core import DatasetEvaluator, maximize
        from repro.noc import RouterEvaluator

        objective = maximize("fmax_mhz")
        config = GAConfig(seed=11, generations=10)
        replayed = GeneticSearch(
            noc_dataset.space, DatasetEvaluator(noc_dataset), objective, config
        ).run()
        live = GeneticSearch(
            noc_dataset.space,
            EvaluationStack(RouterEvaluator()),
            objective,
            config,
        ).run()
        assert replayed.best_config == live.best_config
        assert replayed.curve() == live.curve()

    def test_guided_beats_baseline_on_fft(self, fft_ds):
        from repro.core import DatasetEvaluator
        from repro.fft import lut_hints

        objective = minimize("luts")
        best = fft_ds.best_value(objective)
        base_wins, guided_wins = 0, 0
        for seed in range(5):
            base = GeneticSearch(
                fft_ds.space, DatasetEvaluator(fft_ds), objective,
                GAConfig(seed=seed, generations=30),
            ).run()
            guided = GeneticSearch(
                fft_ds.space, DatasetEvaluator(fft_ds), objective,
                GAConfig(seed=seed, generations=30), hints=lut_hints(),
            ).run()
            be = base.evals_to_reach(2 * best) or 10_000
            ge = guided.evals_to_reach(2 * best) or 10_000
            guided_wins += ge <= be
        assert guided_wins >= 3
