"""Parameterized FIR filter generator — a third IP domain.

The paper motivates IP generators with "signal processing, arithmetic
units" as domains whose low-level parameters are cryptic to the average
user. This package adds a classic one: a fixed-function low-pass FIR
filter whose implementation parameters trade area, speed and numerical
quality:

* ``taps`` — filter length (fixed by the spec in the evaluation space: all
  design points implement the same 63-tap low-pass response, as required
  for functional interchangeability);
* ``coeff_width`` / ``data_width`` — quantization of coefficients and
  samples; drives arithmetic size and the *computed* stopband attenuation;
* ``structure`` — direct form, transposed form, or symmetric-exploiting
  (half the multipliers, a pre-adder per pair);
* ``multiplier`` — DSP slices or LUT fabric;
* ``serialization`` — fully parallel (1 sample/cycle) down to heavily
  folded (one MAC serving many taps), trading throughput for area.

Like the FFT's SNR, the quality metric is computed, not modeled:
:func:`stopband_attenuation_db` quantizes the actual coefficient vector and
measures the worst stopband ripple of the resulting frequency response with
numpy.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Any, Mapping

from ..synth.netlist import Module
from ..synth.primitives import (
    Adder,
    Counter,
    LogicCloud,
    LutRam,
    Multiplier,
    Mux,
    Register,
    Rom,
    ShiftRegister,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "STRUCTURES",
    "MULTIPLIERS",
    "FirConfig",
    "ideal_lowpass_taps",
    "quantize_taps",
    "stopband_attenuation_db",
    "build_fir",
    "fir_throughput_msps",
]

STRUCTURES = ("direct", "transposed", "symmetric")
MULTIPLIERS = ("dsp", "fabric")

#: Normalized cutoff of the reference low-pass specification.
_CUTOFF = 0.22
#: Stopband starts here (normalized to Nyquist = 1).
_STOPBAND_EDGE = 0.30


class FirConfig:
    """A validated FIR implementation configuration."""

    __slots__ = (
        "taps",
        "coeff_width",
        "data_width",
        "structure",
        "multiplier",
        "serialization",
    )

    def __init__(
        self,
        taps: int,
        coeff_width: int,
        data_width: int,
        structure: str,
        multiplier: str,
        serialization: int,
    ):
        if structure not in STRUCTURES:
            raise ValueError(f"unknown structure {structure!r}")
        if multiplier not in MULTIPLIERS:
            raise ValueError(f"unknown multiplier {multiplier!r}")
        if taps < 3 or taps % 2 == 0:
            raise ValueError("taps must be odd and >= 3 (linear-phase spec)")
        if serialization < 1 or taps % serialization not in (0, taps % serialization):
            raise ValueError("serialization must be >= 1")
        if serialization > taps:
            raise ValueError("serialization cannot exceed tap count")
        if structure == "symmetric" and serialization > (taps + 1) // 2:
            raise ValueError(
                "symmetric structures fold at most (taps+1)/2 multipliers"
            )
        self.taps = taps
        self.coeff_width = coeff_width
        self.data_width = data_width
        self.structure = structure
        self.multiplier = multiplier
        self.serialization = serialization

    @classmethod
    def from_mapping(cls, config: Mapping[str, Any]) -> "FirConfig":
        return cls(
            taps=config.get("taps", 63),
            coeff_width=config["coeff_width"],
            data_width=config["data_width"],
            structure=config["structure"],
            multiplier=config["multiplier"],
            serialization=config["serialization"],
        )

    def name(self) -> str:
        return (
            f"fir{self.taps}_{self.structure}_c{self.coeff_width}"
            f"d{self.data_width}_{self.multiplier}_s{self.serialization}"
        )

    def physical_multipliers(self) -> int:
        """MAC units actually instantiated after symmetry and folding."""
        logical = (self.taps + 1) // 2 if self.structure == "symmetric" else self.taps
        return max(1, math.ceil(logical / self.serialization))


@functools.lru_cache(maxsize=32)
def ideal_lowpass_taps(taps: int = 63, cutoff: float = _CUTOFF) -> tuple[float, ...]:
    """Hamming-windowed sinc prototype (linear phase, symmetric)."""
    import numpy as np

    n = np.arange(taps) - (taps - 1) / 2.0
    sinc = np.sinc(cutoff * n) * cutoff
    window = np.hamming(taps)
    coefficients = sinc * window
    return tuple(float(c) for c in coefficients / np.sum(coefficients))


def quantize_taps(
    coefficients: tuple[float, ...], coeff_width: int
) -> np.ndarray:
    """Round coefficients to ``coeff_width``-bit two's-complement."""
    import numpy as np

    scale = float(1 << (coeff_width - 1))
    peak = max(abs(c) for c in coefficients)
    quantized = np.round(np.asarray(coefficients) / peak * (scale - 1))
    return quantized * peak / (scale - 1)


@functools.lru_cache(maxsize=256)
def stopband_attenuation_db(
    coeff_width: int, taps: int = 63, points: int = 2048
) -> float:
    """Worst-case stopband attenuation of the quantized filter (dB).

    Computed from the actual frequency response: quantize the prototype,
    evaluate |H(f)| on a dense grid, and report the stopband peak relative
    to the passband. Coefficient quantization is the dominant quality
    limit, so this is a pure function of ``coeff_width`` (and the spec).
    """
    import numpy as np

    prototype = ideal_lowpass_taps(taps)
    quantized = quantize_taps(prototype, coeff_width)
    spectrum = np.abs(np.fft.rfft(quantized, n=2 * points))
    freqs = np.linspace(0.0, 1.0, len(spectrum))
    passband_gain = float(np.max(spectrum[freqs <= _CUTOFF]))
    stopband = spectrum[freqs >= _STOPBAND_EDGE]
    worst = float(np.max(stopband)) if len(stopband) else 1e-12
    return 20.0 * math.log10(passband_gain / max(worst, 1e-12))


def build_fir(config: FirConfig | Mapping[str, Any]) -> Module:
    """Elaborate a FIR configuration into a synthesizable module."""
    cfg = config if isinstance(config, FirConfig) else FirConfig.from_mapping(config)
    module = Module(cfg.name())
    module.add_port("sample_in", cfg.data_width, "in")
    module.add_port("sample_out", cfg.data_width + cfg.coeff_width, "out")

    mults = cfg.physical_multipliers()
    accumulator_width = cfg.data_width + cfg.coeff_width + max(cfg.taps, 2).bit_length()

    module.add("input_reg", Register(cfg.data_width))
    # Sample delay line: SRLs for direct/symmetric, a register chain of
    # accumulators for transposed.
    if cfg.structure == "transposed":
        module.add(
            "delay_line", Register(accumulator_width), replicate=cfg.taps
        )
    else:
        module.add("delay_line", ShiftRegister(cfg.taps, cfg.data_width))
    if cfg.structure == "symmetric":
        # Pre-adders combine mirrored taps before each multiplier.
        module.add(
            "pre_adders", Adder(cfg.data_width + 1), replicate=(cfg.taps + 1) // 2
        )
    module.add(
        "multipliers",
        Multiplier(max(cfg.coeff_width, cfg.data_width), use_dsp=cfg.multiplier == "dsp"),
        replicate=mults,
    )
    if cfg.serialization > 1:
        # Folded MACs: coefficient storage, operand muxing, schedule control.
        module.add(
            "coeff_mem",
            LutRam(cfg.serialization, cfg.coeff_width),
            replicate=mults,
        )
        module.add(
            "operand_mux", Mux(cfg.data_width, cfg.serialization), replicate=mults
        )
        module.add("schedule_counter", Counter(max(cfg.serialization - 1, 1).bit_length()))
        module.add("fold_control", LogicCloud(luts=18 + 2 * mults, levels=2, ffs=10))
        module.connect("schedule_counter", "fold_control")
        module.connect("fold_control", "operand_mux")
        module.connect("coeff_mem", "multipliers")
        module.connect("operand_mux", "multipliers")
    else:
        module.add("coeff_rom", Rom(cfg.taps, cfg.coeff_width))
        module.connect("coeff_rom", "multipliers")
    # Adder tree (direct/symmetric) or distributed accumulation (transposed).
    if cfg.structure == "transposed":
        module.add("accumulate", Adder(accumulator_width), replicate=cfg.taps)
    else:
        tree_adders = max(mults - 1, 1)
        module.add("accumulate", Adder(accumulator_width), replicate=tree_adders)
    module.add("round_sat", LogicCloud(luts=accumulator_width // 2, levels=1))
    module.add("output_reg", Register(cfg.data_width + cfg.coeff_width))

    module.connect("input_reg", "delay_line")
    if cfg.structure == "symmetric":
        module.connect("delay_line", "pre_adders")
        module.connect("pre_adders", "multipliers")
    else:
        module.connect("delay_line", "multipliers")
    module.chain("multipliers", "accumulate", "round_sat", "output_reg")
    return module


def fir_throughput_msps(
    config: FirConfig | Mapping[str, Any], fmax_mhz: float
) -> float:
    """Sustained throughput: one sample per ``serialization`` cycles."""
    cfg = config if isinstance(config, FirConfig) else FirConfig.from_mapping(config)
    return fmax_mhz / cfg.serialization
