"""Shared fixtures: toy spaces and the cached evaluation datasets."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    BoolParam,
    CallableEvaluator,
    ChoiceParam,
    DesignSpace,
    IntParam,
    OrderedParam,
    PowOfTwoParam,
    RecordingTraceSink,
)


def run_recorded(search):
    """Run ``search`` with a sink that keeps every event it emits;
    returns ``(result, events)``."""
    sink = RecordingTraceSink(limit=None)
    search.attach_sink(sink)
    return search.run(), sink.events()


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def toy_space():
    """A small mixed-kind space with a known additive optimum."""
    return DesignSpace(
        "toy",
        [
            IntParam("a", 0, 15),
            PowOfTwoParam("b", 1, 64),
            ChoiceParam("c", ("x", "y", "z")),
            BoolParam("d"),
            OrderedParam("e", ("slow", "medium", "fast")),
        ],
    )


@pytest.fixture
def toy_evaluator():
    """Maximizing ``m`` wants a=15, b=64, c=z, d=True, e=fast (score 98)."""

    def fn(genome):
        c_bonus = {"x": 0, "y": 5, "z": 10}[genome["c"]]
        e_bonus = {"slow": 0, "medium": 2, "fast": 5}[genome["e"]]
        return {
            "m": genome["a"] + genome["b"] + c_bonus + e_bonus + 4 * genome["d"],
            "inverse": -(genome["a"] + genome["b"]),
        }

    return CallableEvaluator(fn)


@pytest.fixture(scope="session")
def noc_dataset():
    from repro.dataset import router_dataset

    return router_dataset()


@pytest.fixture(scope="session")
def fft_ds():
    from repro.dataset import fft_dataset

    return fft_dataset()
