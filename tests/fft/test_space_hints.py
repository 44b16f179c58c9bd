"""Tests for the FFT design space and the expert hint sets."""

import pytest

from repro.fft import (
    STRONG_CONFIDENCE,
    WEAK_CONFIDENCE,
    fft_space,
    lut_hints,
    throughput_per_lut_hints,
)


class TestFftSpace:
    def test_paper_scale(self):
        space = fft_space()
        assert len(space.params) == 6  # "varying 6 parameters"
        assert 9_000 <= space.size() <= 13_000  # "approximately 12,000"

    def test_constraint_carves_streaming_corner(self):
        space = fft_space()
        feasible = sum(1 for _ in space.iter_genomes())
        assert feasible < space.size()
        infeasible_point = {
            "streaming_width": 1,
            "radix": 8,
            "bit_width": 8,
            "twiddle_storage": "bram_rom",
            "scaling": "per_stage",
            "architecture": "streaming",
        }
        assert not space.is_feasible(infeasible_point)

    def test_domains(self):
        space = fft_space()
        assert space.param("streaming_width").values == (1, 2, 4, 8, 16, 32, 64)
        assert space.param("radix").values == (2, 4, 8)
        assert space.param("bit_width").cardinality == 25


class TestExpertHints:
    def test_validate_against_space(self):
        space = fft_space()
        lut_hints().validate(space)
        throughput_per_lut_hints().validate(space)

    def test_confidence_variants_share_vector(self):
        weak = lut_hints(WEAK_CONFIDENCE)
        strong = lut_hints(STRONG_CONFIDENCE)
        assert weak.params == strong.params
        assert weak.confidence < strong.confidence

    def test_lut_hint_directions(self):
        hints = lut_hints()
        assert hints.params["streaming_width"].bias > 0
        assert hints.params["bit_width"].bias > 0
        # iterative < streaming along the given ordering.
        assert hints.params["architecture"].ordering == ("iterative", "streaming")

    def test_throughput_hints_use_target(self):
        hints = throughput_per_lut_hints()
        assert hints.params["radix"].target == 4
        assert hints.params["bit_width"].bias < 0

    def test_restriction_for_figure3(self):
        one = lut_hints().restricted_to(["streaming_width"])
        assert list(one.params) == ["streaming_width"]
        two = lut_hints().restricted_to(["streaming_width", "bit_width"])
        assert len(two.params) == 2


class TestDatasetProperties:
    def test_row_count_matches_feasible(self, fft_ds):
        assert len(fft_ds) == sum(1 for _ in fft_ds.space.iter_genomes())

    def test_min_luts_near_paper_value(self, fft_ds):
        from repro.core import minimize

        best = fft_ds.best_value(minimize("luts"))
        # Paper Figure 6 converges around 540 LUTs.
        assert 300 <= best <= 800

    def test_max_throughput_per_lut_near_paper_axis(self, fft_ds):
        from repro.core import maximize

        best = fft_ds.best_value(maximize("msps_per_lut"))
        # Paper Figure 7 tops out around 1.5-1.7 MSPS/LUT.
        assert 0.8 <= best <= 2.0


class TestMultiSizeSpaces:
    def test_other_transform_sizes(self):
        from repro.fft import FftEvaluator, fft_space

        space = fft_space(256)
        assert space.name == "spiral_fft256"
        evaluator = FftEvaluator(n=256)
        config = dict(
            streaming_width=4,
            radix=2,
            bit_width=12,
            twiddle_storage="bram_rom",
            scaling="per_stage",
            architecture="streaming",
        )
        metrics = evaluator.evaluate(config)
        assert metrics["stages"] == 8  # log2(256)

    def test_bigger_transform_more_stages_more_area(self):
        from repro.fft import FftEvaluator

        config = dict(
            streaming_width=4,
            radix=2,
            bit_width=12,
            twiddle_storage="bram_rom",
            scaling="per_stage",
            architecture="streaming",
        )
        small = FftEvaluator(n=256).evaluate(dict(config))
        big = FftEvaluator(n=4096).evaluate(dict(config))
        assert big["stages"] == 12
        assert big["luts"] > small["luts"]
        assert big["brams"] >= small["brams"]

    def test_snr_uses_transform_size(self):
        from repro.fft import FftEvaluator

        config = dict(
            streaming_width=2,
            radix=2,
            bit_width=10,
            twiddle_storage="bram_rom",
            scaling="unscaled",
            architecture="iterative",
        )
        # Unscaled prescales by 1/N: bigger N loses more bits -> lower SNR.
        small = FftEvaluator(n=256).evaluate(dict(config))["snr_db"]
        big = FftEvaluator(n=4096).evaluate(dict(config))["snr_db"]
        assert big < small

    def test_size_validation(self):
        from repro.fft import fft_space

        with pytest.raises(ValueError):
            fft_space(1000)
        with pytest.raises(ValueError):
            fft_space(32)
