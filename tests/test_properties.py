"""Cross-cutting property-based tests (hypothesis) on system invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CallableEvaluator,
    DesignSpace,
    GAConfig,
    GeneticSearch,
    InfeasibleDesignError,
    IntParam,
    NautilusError,
    PowOfTwoParam,
    maximize,
)
from repro.dataset import Dataset
from repro.synth import Adder, LogicCloud, Module, Register, VIRTEX6, analyze_timing


# --- dataset persistence ---------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dataset_round_trip_property(seed, tmp_path_factory):
    """load(save(x)) == x for arbitrary characterized metric values.

    Rows come in a shuffled order with two metric shapes (the same names
    in the other order), int-valued, NaN and infinite metrics and
    infeasible rows; the loaded dataset keeps the row order, each row's
    metric key order and value types, and the fingerprint."""
    rng = random.Random(seed)
    space = DesignSpace("rt", [IntParam("a", 0, 5), IntParam("b", 0, 3)])
    dataset = Dataset("rt", space)
    genomes = list(space.iter_genomes())
    rng.shuffle(genomes)
    specials = [float("nan"), float("inf"), float("-inf")]
    expected = []
    for genome in genomes:
        roll = rng.random()
        if roll < 0.1:
            metrics = None
        elif roll < 0.55:
            metrics = {"m": rng.uniform(-1e6, 1e6), "n": rng.randrange(100)}
        else:
            metrics = {"n": float(rng.randrange(100)),
                       "m": rng.choice(specials + [rng.uniform(-1, 1)])}
        dataset.record(genome, metrics)
        expected.append((genome, metrics))
    path = tmp_path_factory.mktemp("ds") / f"rt{seed}.json.gz"
    dataset.save(path)
    loaded = Dataset.load(path, space)

    def spelled(rows):
        """Each row with its key, metric names, value types and value
        reprs spelled out (a NaN equals no value, its repr does)."""
        return [
            (repr(key), None if metrics is None else [
                (name, type(value), repr(value)) for name, value in metrics.items()
            ])
            for key, metrics in rows
        ]

    assert spelled(loaded.iter_rows()) == spelled(
        (genome.key, metrics) for genome, metrics in expected)
    assert loaded.content_fingerprint() == dataset.content_fingerprint()
    for genome, metrics in expected:
        if metrics is None:
            with pytest.raises(InfeasibleDesignError):
                loaded.lookup(genome)
        else:
            assert spelled([(genome.key, loaded.lookup(genome))]) == spelled(
                [(genome.key, metrics)])


# --- timing monotonicity -----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    widths=st.lists(st.integers(2, 32), min_size=1, max_size=6),
    extra_levels=st.integers(1, 5),
)
def test_adding_logic_never_speeds_up_property(widths, extra_levels):
    """Appending combinational logic to a path never reduces the period."""

    def build(extra: bool) -> Module:
        m = Module("mono")
        m.add("launch", Register(8))
        previous = "launch"
        for i, width in enumerate(widths):
            m.add(f"a{i}", Adder(width))
            m.connect(previous, f"a{i}")
            previous = f"a{i}"
        if extra:
            m.add("extra", LogicCloud(luts=4, levels=extra_levels))
            m.connect(previous, "extra")
            previous = "extra"
        m.add("capture", Register(8))
        m.connect(previous, "capture")
        return m

    short = analyze_timing(build(False), VIRTEX6).critical_path_ns
    long = analyze_timing(build(True), VIRTEX6).critical_path_ns
    assert long >= short


@settings(max_examples=25, deadline=None)
@given(width_a=st.integers(2, 48), width_b=st.integers(2, 48))
def test_wider_adder_never_faster_property(width_a, width_b):
    lo, hi = sorted((width_a, width_b))

    def period(width: int) -> float:
        m = Module(f"w{width}")
        m.add("launch", Register(width))
        m.add("add", Adder(width))
        m.add("capture", Register(width))
        m.chain("launch", "add", "capture")
        return analyze_timing(m, VIRTEX6).critical_path_ns

    assert period(hi) >= period(lo)


# --- engine invariants ----------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    generations=st.integers(1, 20),
    elitism=st.integers(0, 4),
)
def test_engine_accounting_invariants_property(seed, generations, elitism):
    """Distinct evaluations never exceed requests and curves stay monotone."""
    space = DesignSpace(
        "inv", [IntParam("a", 0, 15), PowOfTwoParam("b", 1, 16)]
    )
    evaluator = CallableEvaluator(lambda g: {"m": float(g["a"] * g["b"])})
    result = GeneticSearch(
        space,
        evaluator,
        maximize("m"),
        GAConfig(seed=seed, generations=generations, elitism=elitism),
    ).run()
    evals = [r.distinct_evaluations for r in result.records]
    bests = [r.best_raw for r in result.records]
    assert evals == sorted(evals)
    assert bests == sorted(bests)
    assert result.distinct_evaluations <= space.size()
    assert result.best_raw <= 15 * 16


@settings(max_examples=10, deadline=None)
@given(budget=st.integers(12, 60))
def test_max_evaluations_budget_property(budget):
    """The run stops within one generation of exhausting the budget."""
    space = DesignSpace("bud", [IntParam("a", 0, 255), IntParam("b", 0, 255)])
    evaluator = CallableEvaluator(lambda g: {"m": float(g["a"])})
    config = GAConfig(seed=1, generations=500, max_evaluations=budget)
    result = GeneticSearch(space, evaluator, maximize("m"), config).run()
    # At most one generation of overshoot (population size new designs).
    assert result.distinct_evaluations <= budget + config.population_size


def test_stall_generations_validation():
    with pytest.raises(NautilusError):
        GAConfig(stall_generations=0)


def test_stall_generations_stops_early():
    space = DesignSpace("st", [IntParam("a", 0, 7)])
    evaluator = CallableEvaluator(lambda g: {"m": float(g["a"])})
    result = GeneticSearch(
        space,
        evaluator,
        maximize("m"),
        GAConfig(seed=2, generations=300, stall_generations=6),
    ).run()
    assert len(result.records) < 300
    assert result.best_raw == 7.0
