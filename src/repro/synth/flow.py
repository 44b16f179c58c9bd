"""The miniature synthesis flow: map, analyze, report.

Stands in for Xilinx XST 14.7 in the paper's methodology. Running the flow
on a generated module produces a :class:`SynthesisReport` with the metrics
the paper optimizes: LUTs, FFs, BRAMs, DSPs, critical path and Fmax.

Determinism with realism: real CAD tools are noisy — two near-identical
designs synthesize to slightly different results. The flow reproduces this
with *deterministic pseudo-noise* keyed on the netlist content hash (plus a
configurable salt), so a given design always gets the same report (the
offline-dataset methodology requires it) while neighboring designs see
uncorrelated few-percent perturbations, keeping the fitness landscape
realistically rough for the GA.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .library import TechLibrary, VIRTEX6
from .netlist import Module
from .timing import analyze_timing

__all__ = ["SynthesisReport", "SynthesisFlow"]


@dataclass(frozen=True)
class SynthesisReport:
    """Result of synthesizing one module."""

    module: str
    luts: int
    ffs: int
    brams: int
    dsps: int
    critical_path_ns: float
    fmax_mhz: float
    levels: int
    critical_path: tuple[str, ...] = ()

    def metrics(self) -> dict[str, float]:
        """Metrics dict consumed by Nautilus objectives."""
        return {
            "luts": float(self.luts),
            "ffs": float(self.ffs),
            "brams": float(self.brams),
            "dsps": float(self.dsps),
            "critical_path_ns": self.critical_path_ns,
            "fmax_mhz": self.fmax_mhz,
            "area_delay": self.luts * self.critical_path_ns,
        }


class SynthesisFlow:
    """Synthesize primitive-level modules into resource/timing reports.

    Args:
        lib: Target technology library.
        noise: Peak relative magnitude of the deterministic CAD jitter
            (0.01 = up to ±1% on area, ±1.3% scaled on delay). XST itself is
            deterministic, but near-identical designs still map slightly
            differently; a small jitter keeps ties broken without drowning
            the structural landscape. Zero disables it, which tests use for
            exact closed-form checks.
        salt: Extra seed material, letting experiments model "another tool
            version" without touching the netlists.
    """

    def __init__(
        self,
        lib: TechLibrary = VIRTEX6,
        noise: float = 0.01,
        salt: str = "xst14.7",
    ):
        if noise < 0.0 or noise >= 0.5:
            raise ValueError(f"noise must be in [0, 0.5), got {noise}")
        self.lib = lib
        self.noise = noise
        self.salt = salt

    # -- noise ------------------------------------------------------------------

    def _jitter(self, signature: str, channel: str) -> float:
        """Deterministic uniform jitter in [-1, 1] per (design, channel)."""
        digest = hashlib.sha256(
            f"{self.salt}:{channel}:{signature}".encode()
        ).digest()
        raw = int.from_bytes(digest[:8], "big")
        return (raw / 2**63) - 1.0

    # -- main entry ---------------------------------------------------------------

    #: Congestion model: designs larger than this many LUTs pay extra
    #: routing delay per doubling (placement spreads, nets stretch).
    CONGESTION_FREE_LUTS = 1500
    CONGESTION_PER_DOUBLING = 0.045

    def _congestion_factor(self, luts: float) -> float:
        """Area-coupled routing degradation.

        Every parameter that grows the design now also slows it a little —
        the cross-metric coupling real place-and-route exhibits, and the
        reason "minimize area-ish" intuitions transfer to frequency hints.
        """
        if luts <= self.CONGESTION_FREE_LUTS:
            return 1.0
        return 1.0 + self.CONGESTION_PER_DOUBLING * math.log2(
            luts / self.CONGESTION_FREE_LUTS
        )

    def run(self, module: Module) -> SynthesisReport:
        """Map and time a module, returning its synthesis report."""
        resources = module.resources(self.lib)
        timing = analyze_timing(module, self.lib)
        signature = module.signature()
        area_factor = 1.0 + self.noise * self._jitter(signature, "area")
        delay_factor = 1.0 + self.noise * 1.33 * self._jitter(signature, "delay")
        luts = math.ceil(resources.luts * self.lib.packing_overhead * area_factor)
        period = max(
            timing.critical_path_ns * delay_factor * self._congestion_factor(luts),
            self.lib.clock_floor_ns,
        )
        return SynthesisReport(
            module=module.name,
            luts=luts,
            ffs=math.ceil(resources.ffs),
            brams=math.ceil(resources.brams),
            dsps=math.ceil(resources.dsps),
            critical_path_ns=period,
            fmax_mhz=1000.0 / period,
            levels=timing.levels,
            critical_path=timing.critical_path,
        )
