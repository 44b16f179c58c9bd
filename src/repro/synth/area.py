"""Resource vectors reported by the miniature synthesis flow."""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Resources"]


class Resources(NamedTuple):
    """FPGA resource usage: LUTs, flip-flops, block RAMs, DSP slices.

    Fractional LUT counts are allowed internally (packing estimates);
    reports round at the flow boundary. A named tuple because the flow
    builds two or three per instance; ``+`` adds element-wise rather than
    concatenating.
    """

    luts: float = 0.0
    ffs: float = 0.0
    brams: float = 0.0
    dsps: float = 0.0

    def __add__(self, other: "Resources") -> "Resources":
        if not isinstance(other, Resources):
            return NotImplemented
        return Resources(
            self.luts + other.luts,
            self.ffs + other.ffs,
            self.brams + other.brams,
            self.dsps + other.dsps,
        )

    def scaled(self, factor: float) -> "Resources":
        """Return resources multiplied by a scalar (replication)."""
        return Resources(
            self.luts * factor,
            self.ffs * factor,
            self.brams * factor,
            self.dsps * factor,
        )
