"""Tests for the router design space and its (estimated) hint sets."""

import pytest

from repro.core import DatasetEvaluator, maximize
from repro.noc import (
    STRONG_CONFIDENCE,
    WEAK_CONFIDENCE,
    area_delay_hints,
    estimate_router_hints,
    frequency_hints,
    router_space,
)


class TestRouterSpace:
    def test_paper_scale(self):
        space = router_space()
        assert space.size() == 30_240  # "approximately 30,000"
        assert len(space.params) == 9  # "varying 9 parameters"

    def test_domains(self):
        space = router_space()
        assert space.param("num_vcs").values == (2, 4, 8)
        assert space.param("buffer_depth").values == (1, 2, 4, 8, 16, 32, 64)
        assert space.param("flit_width").values == (16, 32, 64, 128, 256)
        assert space.param("pipeline_stages").values == (1, 2, 3, 4)

    def test_all_points_feasible(self):
        # With >=2 VCs the shared-buffer constraint is always satisfied.
        space = router_space()
        assert sum(1 for _ in space.iter_genomes()) == space.size()


class TestStaticHints:
    def test_validate_against_space(self):
        space = router_space()
        frequency_hints().validate(space)
        area_delay_hints().validate(space)

    def test_confidence_variants(self):
        weak = frequency_hints(WEAK_CONFIDENCE)
        strong = frequency_hints(STRONG_CONFIDENCE)
        assert weak.confidence < strong.confidence
        assert weak.params == strong.params  # paper footnote 2

    def test_frequency_hint_directions(self):
        hints = frequency_hints()
        assert hints.params["pipeline_stages"].bias > 0
        assert hints.params["num_vcs"].bias < 0
        assert hints.params["vc_allocator"].bias < 0

    def test_area_delay_hint_directions(self):
        hints = area_delay_hints()
        assert hints.params["num_vcs"].bias > 0
        assert hints.params["flit_width"].bias > 0
        assert hints.params["pipeline_stages"].bias < 0


class TestEstimatedHints:
    def test_sweep_agrees_with_static_signs(self, noc_dataset):
        """The 80-design sweep re-derives the signs the static hints encode."""
        estimated, used = estimate_router_hints(
            noc_dataset.space,
            DatasetEvaluator(noc_dataset),
            maximize("fmax_mhz"),
            budget=80,
            seed=80,
        )
        assert used <= 80
        static = frequency_hints()
        for name in ("pipeline_stages", "num_vcs", "vc_allocator"):
            est_bias = estimated.params[name].bias
            assert est_bias * static.params[name].bias > 0, name

    def test_sweep_cost_is_small_fraction_of_space(self, noc_dataset):
        # Paper: "less than 0.3% of the design space".
        __, used = estimate_router_hints(
            noc_dataset.space,
            DatasetEvaluator(noc_dataset),
            budget=80,
            seed=81,
        )
        assert used / len(noc_dataset) < 0.003
