"""Experiment harness: multi-run averaging and per-figure reproductions."""

from .runner import MultiRunResult, ReachStats, run_many
from .report import generate_report
from .figures import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)

__all__ = [
    "MultiRunResult",
    "ReachStats",
    "run_many",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "generate_report",
]
