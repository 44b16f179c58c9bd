"""Tests for design spaces: size, constraints, sampling, enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BoolParam,
    ChoiceParam,
    DesignSpace,
    IntParam,
    ParameterError,
    PowOfTwoParam,
    SpaceError,
)


def make_space(constraints=()):
    return DesignSpace(
        "s",
        [IntParam("a", 0, 4), PowOfTwoParam("b", 1, 8), BoolParam("f")],
        constraints=constraints,
    )


class TestStructure:
    def test_size(self):
        assert make_space().size() == 5 * 4 * 2

    def test_feasible_size_equals_size_without_constraints(self):
        space = make_space()
        assert space.feasible_size() == space.size()

    def test_feasible_size_with_constraint(self):
        space = make_space([lambda c: c["a"] != 0])
        assert space.feasible_size() == 4 * 4 * 2

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(SpaceError, match="duplicate"):
            DesignSpace("s", [IntParam("a", 0, 1), IntParam("a", 0, 1)])

    def test_empty_space_rejected(self):
        with pytest.raises(SpaceError):
            DesignSpace("s", [])

    def test_param_lookup(self):
        space = make_space()
        assert space.param("a").name == "a"
        assert space.param_index("b") == 1
        assert "a" in space and "zz" not in space
        with pytest.raises(SpaceError):
            space.param("zz")
        with pytest.raises(KeyError):
            space.param_index("zz")


class TestEnumeration:
    def test_iter_covers_space(self):
        space = make_space()
        genomes = list(space.iter_genomes())
        assert len(genomes) == space.size()
        assert len({g.key for g in genomes}) == space.size()

    def test_iter_respects_constraints(self):
        space = make_space([lambda c: c["f"]])
        assert all(g["f"] for g in space.iter_genomes())

    def test_genome_from_indices(self):
        space = make_space()
        g = space.genome_from_indices([2, 3, 1])
        assert g.as_dict() == {"a": 2, "b": 8, "f": True}

    def test_genome_from_indices_wrong_length(self):
        with pytest.raises(SpaceError):
            make_space().genome_from_indices([0])

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", None, True])
    def test_genome_from_indices_non_integer(self, bad):
        # Checkpoint codes cross this boundary: a non-integer code is a
        # ParameterError like an out-of-range one, never a bare TypeError
        # or a silently accepted bool.
        with pytest.raises(ParameterError, match="not an integer"):
            make_space().genome_from_indices([bad, 0, 0])


class TestSampling:
    def test_random_genome_feasible(self):
        space = make_space([lambda c: c["a"] >= 2])
        rng = random.Random(0)
        for _ in range(50):
            assert space.random_genome(rng)["a"] >= 2

    def test_random_genome_unsatisfiable(self):
        space = make_space([lambda c: False])
        with pytest.raises(SpaceError, match="feasible"):
            space.random_genome(random.Random(0))

    def test_random_population_distinct(self):
        space = make_space()
        population = space.random_population(10, random.Random(0))
        assert len(population) == 10
        assert len({g.key for g in population}) == 10

    def test_random_population_larger_than_space(self):
        space = DesignSpace("tiny", [BoolParam("x")])
        population = space.random_population(5, random.Random(0))
        assert len(population) == 5  # duplicates allowed when space < pop

    def test_is_feasible_on_mapping_and_genome(self):
        space = make_space([lambda c: c["a"] != 1])
        assert space.is_feasible({"a": 0, "b": 1, "f": False})
        assert not space.is_feasible({"a": 1, "b": 1, "f": False})
        genome = space.genome(a=0, b=1, f=False)
        assert space.is_feasible(genome)


@settings(max_examples=30)
@given(st.integers(0, 2**31 - 1))
def test_random_genome_always_in_domain(seed):
    space = DesignSpace(
        "p",
        [
            IntParam("a", -3, 3),
            ChoiceParam("c", ("u", "v", "w")),
            PowOfTwoParam("b", 2, 16),
        ],
    )
    g = space.random_genome(random.Random(seed))
    for param in space.params:
        assert param.contains(g[param.name])


def _bundled_spaces():
    from repro.dsp.space import fir_space
    from repro.fft.space import fft_space
    from repro.noc.space import router_space

    return [router_space(), fft_space(), fir_space()]


def _direct(space, genome):
    return all(constraint(genome) for constraint in space.constraints)


class TestFeasibilityMemo:
    def test_bundled_spaces_agree_with_their_constraints(self):
        checked = 0
        for space in _bundled_spaces():
            genomes = [space.codec.genome(c) for c in space.codec.iter_codes()]
            expected = [_direct(space, g) for g in genomes]
            for _ in range(2):  # the first query fills the memo, the second hits
                assert [space.is_feasible(g) for g in genomes] == expected
            assert len(space._feasible) == len(genomes)
            checked += len(genomes)
        assert checked == 30_240 + 12_600 + 2_808

    def test_small_cap_keeps_verdicts_and_bounds_the_memo(self, monkeypatch):
        import repro.core.space as space_module

        monkeypatch.setattr(space_module, "_FEASIBILITY_MEMO_CAP", 7)
        space = make_space([lambda c: (c["a"] + c["b"]) % 3 != 0])
        genomes = [space.codec.genome(c) for c in space.codec.iter_codes()]
        for _ in range(3):
            for genome in genomes:
                assert space.is_feasible(genome) == _direct(space, genome)
                assert 0 < len(space._feasible) <= 7

    def test_memo_is_not_pickled(self):
        import pickle

        from repro.noc.space import router_space

        fresh = router_space()
        used = router_space()
        codes = list(itertools.islice(used.codec.iter_codes(), 3_000))
        for c in codes:
            used.is_feasible(used.codec.genome(c))
        assert len(used._feasible) == 3_000
        fresh_bytes = pickle.dumps(fresh.codec.genome(codes[0]))
        used_bytes = pickle.dumps(used.codec.genome(codes[0]))
        assert len(used_bytes) == len(fresh_bytes)
        restored = pickle.loads(used_bytes)
        assert restored.space._feasible == {}
        assert restored.space.is_feasible(restored) == used.is_feasible(
            used.codec.genome(codes[0])
        )

    def test_mappings_and_foreign_genomes_run_the_constraints(self):
        calls = []

        def not_a1(config):
            calls.append(1)
            return config["a"] != 1

        space, twin = make_space([not_a1]), make_space([not_a1])
        config = {"a": 1, "b": 2, "f": True}
        foreign = twin.genome(config)
        own = space.genome(config)
        for _ in range(2):
            assert not space.is_feasible(config)
            assert not space.is_feasible(foreign)
        assert len(calls) == 4
        assert space._feasible == {}
        for _ in range(2):
            assert not space.is_feasible(own)
        assert len(calls) == 5
        assert space._feasible == {own.codes: False}
