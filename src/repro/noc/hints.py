"""Hint sets for the NoC router experiments.

In the paper the NoC hints are *non-expert*: "we estimated hints by
synthesizing 80 designs (less than 0.3% of the design space) and observing
trends; this is equivalent to an IP user ... supplying the hints using
limited empirical knowledge or gut intuition" (Section 4.1).

Two entry points mirror that:

* :func:`estimate_router_hints` runs the actual 80-design sweep through
  :func:`repro.core.estimation.estimate_hints` against a live evaluator —
  the faithful methodology.
* :func:`frequency_hints` / :func:`area_delay_hints` are the *result* of such
  a sweep, written down as static hint vectors, so experiments that want
  deterministic hints (and benches that should not spend their budget on
  estimation) can use them directly.

The Figure 4 "weakly guided" and "strongly guided" variants differ only in
confidence (paper footnote 2): use ``hints.with_confidence(...)``.
"""

from __future__ import annotations

from ..core.estimation import estimate_hints
from ..core.evaluator import Evaluator
from ..core.fitness import Objective, maximize, minimize
from ..core.hints import HintSet, ParamHints
from ..core.space import DesignSpace

__all__ = [
    "frequency_hints",
    "area_delay_hints",
    "estimate_router_hints",
    "WEAK_CONFIDENCE",
    "STRONG_CONFIDENCE",
]

#: Confidence levels for the paper's weakly/strongly guided variants.
WEAK_CONFIDENCE = 0.35
STRONG_CONFIDENCE = 0.80


def frequency_hints(confidence: float = STRONG_CONFIDENCE) -> HintSet:
    """Non-expert hints for maximizing router frequency (Figure 4).

    Trends visible from a small sweep: deeper pipelines and fewer VCs raise
    Fmax sharply; the wavefront allocators are the slowest; wide crossbars
    barely matter for frequency but buffer depth lengthens the distributed
    RAM decode path slightly. The importance decay shifts mutation effort
    from the dominant parameters (pipeline depth, VC count) to the
    fine-tuning ones once the coarse navigation is done — the temporal
    pattern the paper's "importance decay" hint was designed for.
    """
    return HintSet(
        {
            # Values below are the (rounded) output of an 80-design
            # estimate_router_hints sweep — see tests/noc/test_space_hints.py
            # (TestEstimatedHints::test_sweep_agrees_with_static_signs),
            # which re-derives them and checks the signs agree.
            "pipeline_stages": ParamHints(importance=95, bias=0.95),
            "vc_allocator": ParamHints(importance=80, bias=-1.0),
            "num_vcs": ParamHints(importance=45, bias=-1.0),
            "buffer_depth": ParamHints(importance=20, bias=-0.85),
            "flit_width": ParamHints(importance=12, bias=-0.95),
            "buffer_org": ParamHints(
                importance=10, bias=-0.3, ordering=("private", "shared")
            ),
            "speculative": ParamHints(importance=10, bias=-0.5),
            "crossbar_type": ParamHints(importance=6, bias=-1.0),
        },
        confidence=confidence,
        importance_decay=0.06,
    )


def area_delay_hints(confidence: float = STRONG_CONFIDENCE) -> HintSet:
    """Non-expert hints for minimizing the area-delay product (Figure 5).

    The paper notes this query "also incorporates hints related to the
    importance and bias of IP parameters that affect area, such as
    virtual-channel buffer depth". Biases are stated with respect to the raw
    metric (area x delay): almost everything that grows the router grows the
    product, while deeper pipelines still help by shrinking the clock period
    faster than they add registers (negative bias on pipeline_stages).
    """
    return HintSet(
        {
            # Sweep-derived (80 designs), as for the frequency hints.
            "num_vcs": ParamHints(importance=95, bias=1.0),
            "flit_width": ParamHints(importance=32, bias=1.0),
            "buffer_depth": ParamHints(importance=14, bias=1.0),
            "pipeline_stages": ParamHints(importance=10, bias=-0.9),
            "crossbar_type": ParamHints(importance=9, bias=0.5),
            "vc_allocator": ParamHints(importance=8, bias=0.75),
            "buffer_org": ParamHints(
                importance=5, bias=0.3, ordering=("private", "shared")
            ),
            "speculative": ParamHints(importance=3, bias=0.6),
        },
        confidence=confidence,
        importance_decay=0.04,
    )


def estimate_router_hints(
    space: DesignSpace,
    evaluator: Evaluator,
    objective: Objective | None = None,
    budget: int = 80,
    confidence: float = STRONG_CONFIDENCE,
    seed: int | None = 80,
) -> tuple[HintSet, int]:
    """Run the paper's 80-design sweep and derive hints empirically.

    Returns the hint set and the number of designs actually synthesized.
    """
    objective = objective or maximize("fmax_mhz")
    return estimate_hints(
        space,
        evaluator,
        objective,
        budget=budget,
        confidence=confidence,
        seed=seed,
    )
