"""Tests for RTL primitive resource/delay models."""

import math

import pytest

from repro.synth import (
    Adder,
    BlockRam,
    Comparator,
    ComplexMultiplier,
    Counter,
    Crossbar,
    Decoder,
    LogicCloud,
    LutRam,
    MatrixArbiter,
    Multiplier,
    Mux,
    PriorityEncoder,
    Register,
    Rom,
    RoundRobinArbiter,
    SeparableAllocator,
    ShiftRegister,
    StreamingPermuter,
    VIRTEX6,
    WavefrontAllocator,
)

LIB = VIRTEX6


class TestSequentialFlags:
    @pytest.mark.parametrize(
        "primitive",
        [Register(8), Counter(4), BlockRam(1024, 16), ShiftRegister(16, 8)],
    )
    def test_sequential(self, primitive):
        assert primitive.sequential
        assert primitive.comb_delay_ns(LIB) == 0.0

    @pytest.mark.parametrize(
        "primitive",
        [Adder(8), Mux(8, 4), Crossbar(5, 5, 32), LutRam(16, 32), Rom(64, 16)],
    )
    def test_combinational(self, primitive):
        assert not primitive.sequential
        assert primitive.comb_delay_ns(LIB) > 0.0


class TestResourceFormulas:
    def test_register_ffs(self):
        assert Register(32).resources(LIB).ffs == 32

    def test_adder_carry_chain(self):
        assert Adder(16).resources(LIB).luts == 16

    def test_adder_delay_grows_with_width(self):
        assert Adder(64).comb_delay_ns(LIB) > Adder(8).comb_delay_ns(LIB)

    def test_mux_scales_with_width_and_inputs(self):
        narrow = Mux(8, 4).resources(LIB).luts
        wide = Mux(32, 4).resources(LIB).luts
        many = Mux(8, 16).resources(LIB).luts
        assert wide == 4 * narrow
        assert many > narrow

    def test_mux_single_input_free(self):
        assert Mux(32, 1).resources(LIB).luts == 0

    def test_lutram_packing(self):
        bits = 64 * 32
        expected = math.ceil(bits / LIB.lutram_bits_per_lut)
        assert LutRam(64, 32).resources(LIB).luts == expected

    def test_lutram_multiport_replicates(self):
        single = LutRam(32, 16, read_ports=1).resources(LIB).luts
        double = LutRam(32, 16, read_ports=2).resources(LIB).luts
        assert double == 2 * single

    def test_lutram_deeper_is_slower(self):
        assert LutRam(64, 8).comb_delay_ns(LIB) > LutRam(2, 8).comb_delay_ns(LIB)

    def test_bram_count(self):
        assert BlockRam(1024, 16).resources(LIB).brams == 1
        assert BlockRam(4096, 32).resources(LIB).brams == 4

    def test_bram_has_clk_to_out(self):
        assert BlockRam(1024, 16).clk_to_out_ns(LIB) == LIB.bram_clk_to_out_ns

    def test_dsp_multiplier(self):
        small = Multiplier(16).resources(LIB)
        assert small.dsps == 1 and small.luts == 0
        big = Multiplier(32).resources(LIB)
        assert big.dsps == 4  # 2x2 tile of 18-bit DSPs

    def test_fabric_multiplier_uses_luts(self):
        res = Multiplier(16, use_dsp=False).resources(LIB)
        assert res.dsps == 0 and res.luts > 100

    def test_complex_multiplier_three_real(self):
        cm = ComplexMultiplier(16).resources(LIB)
        assert cm.dsps == 3

    def test_pipelined_cmult_is_sequential(self):
        assert ComplexMultiplier(16, pipelined=True).sequential
        assert not ComplexMultiplier(16, pipelined=False).sequential
        assert ComplexMultiplier(16, pipelined=False).comb_delay_ns(LIB) > 0


class TestArbitersAndAllocators:
    def test_round_robin_linear_luts(self):
        assert (
            RoundRobinArbiter(16).resources(LIB).luts
            > RoundRobinArbiter(4).resources(LIB).luts
        )

    def test_matrix_quadratic_state(self):
        assert MatrixArbiter(8).resources(LIB).ffs == 8 * 7 // 2

    def test_matrix_faster_than_round_robin(self):
        # The classic trade: matrix arbiters shave a logic level.
        assert (
            MatrixArbiter(5).comb_delay_ns(LIB)
            < RoundRobinArbiter(5).comb_delay_ns(LIB)
        )

    def test_wavefront_large_and_slow(self):
        wavefront = WavefrontAllocator(10, 10)
        separable = SeparableAllocator(10, 10)
        assert wavefront.comb_delay_ns(LIB) > separable.comb_delay_ns(LIB)
        assert wavefront.resources(LIB).luts > 100

    def test_crossbar_is_mux_per_output(self):
        xbar = Crossbar(5, 5, 32).resources(LIB)
        one_mux = Mux(32, 5).resources(LIB)
        assert xbar.luts == 5 * one_mux.luts


class TestStreamingPermuter:
    def test_single_lane_free(self):
        res = StreamingPermuter(1, 32).resources(LIB)
        assert res.luts == 0 and res.ffs == 0

    def test_nlogn_scaling(self):
        l8 = StreamingPermuter(8, 32).resources(LIB).luts
        l32 = StreamingPermuter(32, 32).resources(LIB).luts
        # 32*log(32) / (8*log(8)) = 160/24
        assert l32 / l8 == pytest.approx(160 / 24)

    def test_registered_outputs(self):
        p = StreamingPermuter(8, 32)
        assert p.sequential
        assert p.clk_to_out_ns(LIB) > LIB.ff_clk_to_q_ns


class TestLogicCloud:
    def test_explicit_costs(self):
        cloud = LogicCloud(luts=42.0, levels=3, ffs=7.0)
        res = cloud.resources(LIB)
        assert res.luts == 42.0 and res.ffs == 7.0
        assert cloud.comb_delay_ns(LIB) == pytest.approx(
            LIB.lut_delay_ns + 2 * LIB.level_delay_ns()
        )

    def test_describe(self):
        assert Adder(8).describe() == {"width": 8}
        assert Mux(4, 2).kind() == "Mux"


class TestResourcesArithmetic:
    def test_add_and_scale(self):
        from repro.synth import Resources

        a = Resources(luts=10, ffs=5)
        b = Resources(luts=1, brams=2)
        total = a + b
        assert total.luts == 11 and total.ffs == 5 and total.brams == 2
        assert a.scaled(3).luts == 30
