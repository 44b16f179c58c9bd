"""Reproduction of every figure in the paper's evaluation.

One builder per figure, each returning a
:class:`~repro.analysis.series.FigureSeries` whose curves mirror the paper's
axes and whose ``notes`` carry the headline numbers quoted in the text
(speedup factors, eval counts, thresholds). Builders take ``runs`` /
``generations`` arguments so tests can run scaled-down versions while the
benchmarks run at paper scale (40 runs, 80 generations — Section 4.1).
Every search in Figures 3-7 is a
:class:`~repro.service.campaign.CampaignSpec` on a named query, built by
:func:`~repro.service.campaign.build_search` with its seed replaced per
run: the engine a daemon campaign with that spec runs.

Figure index (see DESIGN.md for the full experiment table):

* Figure 1 — frequency vs area scatter over the ~30k router dataset.
* Figure 2 — area/power vs peak bisection bandwidth for 64-endpoint
  CONNECT-style NoCs across eight topology families.
* Figure 3 — design-solution-score vs generation: baseline GA vs Nautilus
  with only 1 or 2 *bias* hints (FFT space).
* Figure 4 — NoC maximize frequency: baseline vs weakly/strongly guided.
* Figure 5 — NoC minimize area-delay product: baseline vs Nautilus.
* Figure 6 — FFT minimize LUTs: convergence plus evals-to-goal numbers.
* Figure 7 — FFT maximize throughput/LUT.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Sequence

from ..analysis.series import FigureSeries
from ..core.guidance import hintset_to_json
from ..core.hints import HintSet, ParamHints
from ..dataset.cache import fft_dataset, router_dataset
from ..dataset.dataset import Dataset
from ..fft.hints import (
    STRONG_CONFIDENCE as FFT_STRONG,
    WEAK_CONFIDENCE as FFT_WEAK,
)
from ..noc.hints import (
    STRONG_CONFIDENCE as NOC_STRONG,
    WEAK_CONFIDENCE as NOC_WEAK,
)
from ..noc.network import NetworkGenerator
from ..noc.topology import TOPOLOGY_FAMILIES
from ..queries import QUERIES, resolve_objective
from ..service.campaign import CampaignSpec, build_search
from .runner import MultiRunResult, run_many

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
]


def _run_spec(
    spec: CampaignSpec, dataset: Dataset, runs: int, label: str = ""
) -> MultiRunResult:
    """``runs`` searches of one spec, run ``i`` seeded ``spec.seed + i``."""
    return run_many(
        lambda seed: build_search(replace(spec, seed=seed), dataset),
        runs,
        base_seed=spec.seed,
        label=label,
    )


# ---------------------------------------------------------------------------
# Figure 1: router design-space scatter
# ---------------------------------------------------------------------------


def figure1(dataset: Dataset | None = None, max_points: int = 4000) -> FigureSeries:
    """Frequency vs area for the ~30k router variants (paper Figure 1)."""
    dataset = dataset or router_dataset()
    figure = FigureSeries(
        "fig1",
        "Frequency vs. Area for Virtual-Channel Router Variants",
        "Area (LUTs)",
        "Frequency (MHz)",
    )
    rows = list(dataset.iter_metrics())
    stride = max(1, len(rows) // max_points)
    points = [
        (row["luts"], row["fmax_mhz"]) for row in rows[::stride]
    ]
    figure.add("router variants", points)
    all_luts = [row["luts"] for row in rows]
    all_fmax = [row["fmax_mhz"] for row in rows]
    figure.note("design_points", len(rows))
    figure.note("lut_range", (min(all_luts), max(all_luts)))
    figure.note("fmax_range_mhz", (min(all_fmax), max(all_fmax)))
    return figure


# ---------------------------------------------------------------------------
# Figure 2: CONNECT NoC area/power vs performance
# ---------------------------------------------------------------------------


def figure2(
    endpoints: int = 64,
    flit_widths: Sequence[int] = (16, 32, 64, 128, 256),
    vcs: Sequence[int] = (1, 2, 4),
    buffer_depths: Sequence[int] = (4, 16),
) -> tuple[FigureSeries, FigureSeries]:
    """Area and power vs peak bisection bandwidth (paper Figure 2).

    Sweeps router configurations within each of the eight topology families,
    mirroring the paper's cloud of 64-endpoint CONNECT configurations on a
    65nm ASIC target.
    """
    generator = NetworkGenerator()
    area_fig = FigureSeries(
        "fig2a",
        "NoC Area vs. Performance",
        "Area (in mm2)",
        "Peak Bisection Bandwidth (in Gbps)",
    )
    power_fig = FigureSeries(
        "fig2b",
        "NoC Power vs. Performance",
        "Power (in mW)",
        "Peak Bisection Bandwidth (in Gbps)",
    )
    for family in TOPOLOGY_FAMILIES:
        area_points = []
        power_points = []
        for width, vc, depth in itertools.product(flit_widths, vcs, buffer_depths):
            report = generator.generate(
                family,
                endpoints,
                {"flit_width": width, "num_vcs": vc, "buffer_depth": depth},
            )
            area_points.append((report.area_mm2, report.bisection_gbps))
            power_points.append((report.power_mw, report.bisection_gbps))
        area_fig.add(family, area_points)
        power_fig.add(family, power_points)
    for figure in (area_fig, power_fig):
        ys = [y for pts in figure.series.values() for _, y in pts]
        xs = [x for pts in figure.series.values() for x, _ in pts]
        figure.note("bw_span_orders", _orders_of_magnitude(ys))
        figure.note("x_span_orders", _orders_of_magnitude(xs))
    return area_fig, power_fig


def _orders_of_magnitude(values: Sequence[float]) -> float:
    import math

    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return round(math.log10(max(positive) / min(positive)), 2)


# ---------------------------------------------------------------------------
# Figure 3: bias-hints-only comparison on the FFT space
# ---------------------------------------------------------------------------


def figure3(
    dataset: Dataset | None = None,
    runs: int = 20,
    generations: int = 80,
    seed: int = 0,
    top_percent: float = 0.1,
) -> FigureSeries:
    """Design solution score vs generation with 1 or 2 bias hints.

    The paper's Figure 3 strips Nautilus down to *only* bias hints (no
    importance, no target) on the FFT space and shows the baseline taking 56
    generations to enter the top 1% vs 15-23 for Nautilus. Our substrate's
    low-LUT region is denser than the paper's, so the equivalent
    "hard quality bar" here is the top 0.1% of designs (the default);
    pass ``top_percent=1.0`` for the literal top-1% reading.
    """
    dataset = dataset or fft_dataset()
    objective, __ = resolve_objective(QUERIES["fft-luts"])
    one_hint = HintSet(
        {"streaming_width": ParamHints(bias=1.0)}, confidence=FFT_STRONG
    )
    two_hints = HintSet(
        {
            "streaming_width": ParamHints(bias=1.0),
            "bit_width": ParamHints(bias=0.9),
        },
        confidence=FFT_STRONG,
    )
    baseline = CampaignSpec(
        "fft-luts",
        engine="baseline",
        generations=generations,
        seed=seed,
        label="baseline",
    )
    bias1 = replace(
        baseline, engine="nautilus", hints=hintset_to_json(one_hint), label="bias1"
    )
    bias2 = replace(bias1, hints=hintset_to_json(two_hints), label="bias2")
    variants = {
        "Baseline GA": _run_spec(baseline, dataset, runs),
        'Nautilus w/ 1 "Bias" Hint': _run_spec(bias1, dataset, runs),
        'Nautilus w/ 2 "Bias" Hints': _run_spec(bias2, dataset, runs),
    }
    figure = FigureSeries(
        "fig3",
        'Baseline GA vs. Nautilus with "bias" hints',
        "Generation #",
        "Design Solution Score (in %)",
    )
    score_bar = 100.0 - top_percent
    for label, result in variants.items():
        curve = result.mean_score_curve(
            lambda raw: dataset.score_percent(objective, raw)
        )
        figure.add(label, curve)
        crossing = next(
            (generation for generation, score in curve if score >= score_bar),
            None,
        )
        figure.note(f"gens_to_top{top_percent:g}pct[{label}]", crossing)
    return figure


# ---------------------------------------------------------------------------
# Figures 4-7: the four optimization queries
# ---------------------------------------------------------------------------


def _query_figure(
    name: str,
    title: str,
    ylabel: str,
    dataset: Dataset,
    query: str,
    weak_confidence: float,
    strong_confidence: float,
    runs: int,
    generations: int,
    seed: int,
    within_percent: float,
    include_weak: bool = True,
) -> tuple[FigureSeries, dict[str, MultiRunResult]]:
    """Shared machinery for the Figure 4-7 quality-vs-cost plots.

    Runs the paper's three-way comparison on a named query: the baseline GA
    and the query's hints at a weak and a strong confidence (the two guided
    variants "differ only in the confidence hint", paper footnote 2).
    Returns the figure plus the raw multi-run results so callers can derive
    extra headline numbers without re-running the searches.
    """
    objective, __ = resolve_objective(QUERIES[query])
    spec = CampaignSpec(query, generations=generations, seed=seed)
    variants = {
        "baseline": _run_spec(
            replace(spec, engine="baseline", label="baseline"),
            dataset,
            runs,
            "baseline",
        ),
        "weak": _run_spec(
            replace(spec, confidence=weak_confidence, label="nautilus-weak"),
            dataset,
            runs,
            "nautilus (weakly guided)",
        ),
        "strong": _run_spec(
            replace(spec, confidence=strong_confidence, label="nautilus-strong"),
            dataset,
            runs,
            "nautilus (strongly guided)",
        ),
    }
    figure = FigureSeries(name, title, "# Designs Evaluated", ylabel)
    figure.add("Baseline", variants["baseline"].mean_curve())
    if include_weak:
        figure.add("Nautilus (weakly guided)", variants["weak"].mean_curve())
    figure.add("Nautilus (strongly guided)", variants["strong"].mean_curve())

    best = dataset.best_value(objective)
    if objective.maximizing:
        threshold = best * (1.0 - within_percent / 100.0)
    else:
        threshold = best * (1.0 + within_percent / 100.0)
    figure.note("space_best", best)
    figure.note("threshold", threshold)
    crossings = {
        key: result.curve_cross(threshold) for key, result in variants.items()
    }
    for key, result in variants.items():
        stats = result.reach(threshold)
        figure.note(f"evals_to_threshold[{key}]", crossings[key])
        figure.note(f"success_rate[{key}]", stats.success_rate)
        figure.note(f"total_evals[{key}]", round(result.mean_distinct_evaluations(), 1))
    figure.note(
        "speedup_strong", _ratio(crossings["baseline"], crossings["strong"])
    )
    if include_weak:
        figure.note(
            "speedup_weak", _ratio(crossings["baseline"], crossings["weak"])
        )
    from ..analysis.stats import compare_engines

    comparison = compare_engines(variants["strong"], variants["baseline"], threshold)
    figure.note("strong_vs_baseline_p", comparison.p_value)
    figure.note("strong_vs_baseline", comparison.verdict())
    return figure, variants


def _ratio(numerator: float | None, denominator: float | None) -> float | None:
    if not numerator or not denominator:
        return None
    return round(numerator / denominator, 2)


def figure4(
    dataset: Dataset | None = None,
    runs: int = 40,
    generations: int = 80,
    seed: int = 0,
) -> FigureSeries:
    """NoC: maximize frequency (paper Figure 4).

    Paper headline: baseline needs ~2.8x (vs strong) and ~1.8x (vs weak) the
    synthesis jobs to converge within 1% of the best solution.
    """
    dataset = dataset or router_dataset()
    figure, __ = _query_figure(
        "fig4",
        "NoC: Maximize Frequency",
        "Frequency (MHz)",
        dataset,
        "noc-frequency",
        NOC_WEAK,
        NOC_STRONG,
        runs,
        generations,
        seed,
        within_percent=1.0,
    )
    return figure


def figure5(
    dataset: Dataset | None = None,
    runs: int = 40,
    generations: int = 20,
    seed: int = 0,
) -> FigureSeries:
    """NoC: minimize area-delay product (paper Figure 5).

    Shown for 20 generations as in the paper; Nautilus needs about half the
    synthesis runs of the baseline for the same quality of results. The
    reach threshold is within 5% of the space optimum — this query's
    optimum sits in a needle-thin basin in our substrate, and the paper's
    own converged value ("similar quality of results") is read the same way.
    """
    dataset = dataset or router_dataset()
    figure, __ = _query_figure(
        "fig5",
        "NoC: Minimize Area-Delay Product",
        "Area-Delay Product (clock period x LUTs)",
        dataset,
        "noc-area-delay",
        NOC_WEAK,
        NOC_STRONG,
        runs,
        generations,
        seed,
        within_percent=5.0,
        include_weak=False,
    )
    return figure


def figure6(
    dataset: Dataset | None = None,
    runs: int = 40,
    generations: int = 80,
    seed: int = 0,
) -> FigureSeries:
    """FFT: minimize LUTs (paper Figure 6).

    Paper headlines: all methods converge near the same minimum (~540 LUTs);
    strong Nautilus averages ~101 evals to the optimum vs ~463 baseline; to
    twice the minimum, 23.6 vs 78.9 evals; random sampling would need
    ~11,921 draws for the relaxed goal.
    """
    dataset = dataset or fft_dataset()
    figure, variants = _query_figure(
        "fig6",
        "FFT: Minimize # LUTs",
        "LUTs",
        dataset,
        "fft-luts",
        FFT_WEAK,
        FFT_STRONG,
        runs,
        generations,
        seed,
        within_percent=1.0,
    )
    # Relaxed goal: twice the minimum (the paper's 1,071-LUT bar).
    objective = variants["baseline"].objective
    best = dataset.best_value(objective)
    relaxed = 2.0 * best
    for key, result in variants.items():
        figure.note(f"evals_to_2x_min[{key}]", result.curve_cross(relaxed))
        figure.note(f"evals_to_min[{key}]", result.curve_cross(best * 1.001))
    values = dataset.metric_values(objective)
    total = dataset.feasible_count
    figure.note("relaxed_goal_luts", relaxed)
    # Expected uniform draws without replacement to hit one of k good
    # designs among N: (N + 1) / (k + 1). Reported for both quality bars —
    # our substrate's low-LUT region is denser than the paper's, so the
    # paper's "11,921 draws to reach 2x-min" rarity corresponds to the
    # optimum bar here (see EXPERIMENTS.md).
    meeting_relaxed = sum(1 for v in values if v <= relaxed)
    meeting_min = sum(1 for v in values if v <= best * 1.001)
    figure.note(
        "random_sampling_expected_2x", round((total + 1) / (meeting_relaxed + 1), 1)
    )
    figure.note(
        "random_sampling_expected_min", round((total + 1) / (meeting_min + 1), 1)
    )
    return figure


def figure7(
    dataset: Dataset | None = None,
    runs: int = 40,
    generations: int = 80,
    seed: int = 0,
) -> FigureSeries:
    """FFT: maximize throughput per LUT (paper Figure 7).

    Paper headlines: strong Nautilus reaches 1.45 MSPS/LUT in ~61.6 evals vs
    >8x (501.4) for the baseline, and only Nautilus ever reaches the
    >1.5 MSPS/LUT region.
    """
    dataset = dataset or fft_dataset()
    figure, variants = _query_figure(
        "fig7",
        "FFT: Maximize Throughput per LUT",
        "Throughput per LUT (MSPS/LUTs)",
        dataset,
        "fft-throughput-per-lut",
        FFT_WEAK,
        FFT_STRONG,
        runs,
        generations,
        seed,
        within_percent=7.0,
    )
    objective = variants["baseline"].objective
    best = dataset.best_value(objective)
    # The "only Nautilus gets here" elite region (paper: >1.5 MSPS/LUT on a
    # ~1.55 max, i.e. ~97% of the space optimum).
    elite = 0.97 * best
    figure.note("elite_threshold", elite)
    for key, result in variants.items():
        stats = result.reach(elite)
        figure.note(f"elite_success_rate[{key}]", stats.success_rate)
    return figure
