"""Tests for the synthesis flow: determinism, noise bounds, congestion."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.synth import (
    Adder,
    LogicCloud,
    Module,
    Register,
    SynthesisFlow,
    VIRTEX6,
)


SRC_DIR = Path(__file__).resolve().parents[2] / "src"

# An FFT design with two exactly tied worst paths: one captured at
# ``stage0_perm_mem``, the other at ``stage0_reg``.
TIED_FFT_REPORT = """
import json
from repro.fft.generator import build_fft
from repro.synth import SynthesisFlow
report = SynthesisFlow().run(build_fft({
    "architecture": "iterative", "bit_width": 10, "radix": 2, "n": 1024,
    "scaling": "per_stage", "streaming_width": 1, "twiddle_storage": "cordic",
}))
print(json.dumps([report.critical_path, report.levels, report.metrics()]))
"""


def module_of(luts=100, name="m"):
    m = Module(name)
    m.add("launch", Register(8))
    m.add("logic", LogicCloud(luts=float(luts), levels=3))
    m.add("capture", Register(8))
    m.chain("launch", "logic", "capture")
    return m


class TestDeterminism:
    def test_same_module_same_report(self):
        flow = SynthesisFlow()
        r1 = flow.run(module_of())
        r2 = flow.run(module_of())
        assert r1 == r2

    def test_tied_critical_path_independent_of_hash_seed(self):
        reports = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC_DIR))
            done = subprocess.run(
                [sys.executable, "-c", TIED_FFT_REPORT],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            reports.add(done.stdout)
        assert len(reports) == 1, reports
        path, levels, _ = json.loads(reports.pop())
        assert path[-1] in ("stage0_perm_mem", "stage0_reg") and levels == 5

    def test_different_salt_different_noise(self):
        a = SynthesisFlow(salt="tool-a").run(module_of())
        b = SynthesisFlow(salt="tool-b").run(module_of())
        assert a.luts != b.luts or a.fmax_mhz != b.fmax_mhz


class TestNoise:
    def test_zero_noise_exact(self):
        flow = SynthesisFlow(noise=0.0)
        report = flow.run(module_of(1000))
        expected = round(1000 * VIRTEX6.packing_overhead)
        assert abs(report.luts - expected) <= 1

    def test_noise_bounds(self):
        base = SynthesisFlow(noise=0.0).run(module_of(1000)).luts
        for name in "abcdefgh":
            noisy = SynthesisFlow(noise=0.05).run(module_of(1000, name)).luts
            assert abs(noisy - base) / base < 0.08

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            SynthesisFlow(noise=0.7)
        with pytest.raises(ValueError):
            SynthesisFlow(noise=-0.1)


class TestCongestion:
    def test_small_design_uncongested(self):
        flow = SynthesisFlow()
        assert flow._congestion_factor(100) == 1.0
        assert flow._congestion_factor(flow.CONGESTION_FREE_LUTS) == 1.0

    def test_monotone_in_area(self):
        flow = SynthesisFlow()
        factors = [flow._congestion_factor(l) for l in (2_000, 8_000, 32_000)]
        assert factors == sorted(factors)
        assert factors[-1] > 1.1

    def test_bigger_design_lower_fmax(self):
        flow = SynthesisFlow(noise=0.0)
        small = flow.run(module_of(500, "small"))
        big = flow.run(module_of(50_000, "big"))
        assert big.fmax_mhz < small.fmax_mhz


class TestReport:
    def test_metrics_keys(self):
        metrics = SynthesisFlow().run(module_of()).metrics()
        for key in (
            "luts",
            "ffs",
            "brams",
            "dsps",
            "critical_path_ns",
            "fmax_mhz",
            "area_delay",
        ):
            assert key in metrics

    def test_area_delay_consistent(self):
        report = SynthesisFlow().run(module_of())
        metrics = report.metrics()
        assert metrics["area_delay"] == pytest.approx(
            metrics["luts"] * metrics["critical_path_ns"]
        )

    def test_fmax_period_consistent(self):
        report = SynthesisFlow().run(module_of())
        assert report.fmax_mhz == pytest.approx(1000.0 / report.critical_path_ns)
