"""The process-wide primitive memo behind signature, resources and STA.

Each distinct primitive (class plus typed field values) is mapped once per
process. These tests pin the ways such a memo can go wrong: aliasing values
that compare equal but write different signature bytes, mixing up two
technology libraries, growing past its cap, and racing on the thread
backend. Every result is checked against the reference implementations of
the flow oracle.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import sys

import pytest

from repro.core.errors import InfeasibleDesignError
from repro.core.evalstack import EvaluationStack
from repro.fft.space import FftEvaluator, build_fft
from repro.noc.space import RouterEvaluator, build_router
from repro.queries import load_dataset
from repro.synth import (
    VIRTEX6,
    Adder,
    BlockRam,
    ComplexMultiplier,
    LogicCloud,
    Module,
    Mux,
    Register,
    StreamingPermuter,
    netlist,
)

from .test_flow_oracle import assert_matches_reference, reference_signature

#: A second fabric: other delays, half-size block RAMs, 32-bit LUT RAM.
OTHER = dataclasses.replace(
    VIRTEX6,
    name="other",
    lut_delay_ns=0.31,
    routing_delay_ns=0.42,
    ff_clk_to_q_ns=0.41,
    bram_clk_to_out_ns=2.1,
    dsp_delay_ns=2.6,
    bram_bits=18 * 1024,
    lutram_bits_per_lut=32,
    dsp_max_width=25,
)


def wrap(name: str, primitive, replicate: int = 1) -> Module:
    """A register-bounded module around one primitive."""
    module = Module(name)
    module.add("src", Register(8))
    module.add("dut", primitive, replicate=replicate)
    module.add("dst", Register(8))
    module.chain("src", "dut", "dst")
    return module


def sample_designs(space: str, count: int):
    dataset = load_dataset(space)
    genomes = list(dataset.space.iter_genomes())
    return dataset, random.Random(f"memo:{space}").sample(genomes, count)


def sampled_modules() -> list[Module]:
    """Router and FFT netlists plus one of each sequential corner case."""
    modules = []
    for space, build, extra in (("noc", build_router, {}), ("fft", build_fft, {"n": 1024})):
        _, genomes = sample_designs(space, 6)
        modules += [build({**genome.as_dict(), **extra}) for genome in genomes]
    modules += [
        wrap("bram", BlockRam(4096, 36), replicate=3),
        wrap("cmul", ComplexMultiplier(18), replicate=4),
        wrap("lutmul", ComplexMultiplier(27, use_dsp=False, pipelined=False)),
        wrap("perm", StreamingPermuter(8, 16)),
    ]
    return modules


# -- typed aliasing -----------------------------------------------------------------

#: Equal values that write different signature bytes.
ALIASES = [
    (LogicCloud(60), LogicCloud(60.0)),
    (Register(8, True), Register(8, 1)),
    (LogicCloud(4, ffs=0.0), LogicCloud(4, ffs=-0.0)),
]


@pytest.mark.parametrize("first", [0, 1], ids=["as-written-first", "swapped-first"])
@pytest.mark.parametrize("pair", range(len(ALIASES)))
def test_equal_values_of_other_types_sign_apart(pair, first):
    primitives = ALIASES[pair]
    assert primitives[0] == primitives[1]
    order = (primitives[first], primitives[1 - first])
    modules = [wrap("alias", primitive) for primitive in order]
    signatures = [module.signature() for module in modules]
    assert signatures == [reference_signature(module) for module in modules]
    assert signatures[0] != signatures[1]


# -- libraries ------------------------------------------------------------------------


def test_second_library_alternating_with_the_first():
    modules = sampled_modules()
    for lib in (VIRTEX6, OTHER, VIRTEX6, OTHER):
        for module in modules:
            assert_matches_reference(module, lib)
    # A fresh netlist of the same primitives reads the records cached above.
    for lib in (OTHER, VIRTEX6):
        for module in sampled_modules():
            assert_matches_reference(module, lib)


def test_a_copied_record_checks_the_library_not_just_its_id(monkeypatch):
    # A pickled module keeps its records' id(lib) keys but not the library
    # objects, so in another process a different library can own that id:
    # here OTHER takes over the key VIRTEX6's mapping was stored under.
    monkeypatch.setattr(netlist, "_MEMO", {})
    module = wrap("copy", BlockRam(4096, 36), replicate=3)
    module.resources(VIRTEX6)
    clone = pickle.loads(pickle.dumps(module))
    for record in set(clone._records.values()):  # src and dst share one
        record.by_lib = {id(OTHER): record.by_lib[id(VIRTEX6)]}
    assert_matches_reference(clone, OTHER)


# -- overflow -------------------------------------------------------------------------


def test_small_caps_still_match_the_references(monkeypatch):
    monkeypatch.setattr(netlist, "_MEMO", {})
    monkeypatch.setattr(netlist, "_MEMO_CAP", 7)
    monkeypatch.setattr(netlist, "_LIBRARIES_PER_RECORD", 2)
    libraries = [
        VIRTEX6,
        OTHER,
        dataclasses.replace(OTHER, name="third", carry_per_bit_ns=0.05),
    ]
    for module in sampled_modules():
        for lib in libraries + libraries[::-1]:
            assert_matches_reference(module, lib)
            assert len(netlist._MEMO) <= 7
        for record in netlist._MEMO.values():
            assert len(record.by_lib) <= 2


def test_add_drops_the_instance_table():
    module = wrap("grow", Adder(8))
    before = module.signature()
    module.add("late", Mux(8, 4))
    module.connect("dut", "late")
    assert module.signature() != before
    assert_matches_reference(module)


# -- threads --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "space, evaluator",
    [("noc", RouterEvaluator), ("fft", FftEvaluator)],
)
def test_thread_backend_returns_the_dataset_rows(monkeypatch, space, evaluator):
    # An empty memo, so the four threads race on first sight of every
    # primitive rather than reading records another test left behind.
    monkeypatch.setattr(netlist, "_MEMO", {})
    dataset, genomes = sample_designs(space, 96)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        stack = EvaluationStack(evaluator(), backend="thread", workers=4)
        outcomes = stack.evaluate_many(genomes)
    finally:
        sys.setswitchinterval(interval)
    for genome, outcome in zip(genomes, outcomes):
        try:
            row = dataset.lookup(genome)
        except InfeasibleDesignError:
            assert isinstance(outcome, InfeasibleDesignError)
            continue
        assert outcome == row, genome.as_dict()
