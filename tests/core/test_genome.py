"""Tests for genomes: identity, mapping interface, derivation."""

import pytest

from repro.core import DesignSpace, Genome, GenomeError, IntParam, ChoiceParam


@pytest.fixture
def space():
    return DesignSpace(
        "g", [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))]
    )


class TestConstruction:
    def test_basic(self, space):
        g = space.genome(a=1, c="x")
        assert g["a"] == 1
        assert g["c"] == "x"

    def test_missing_param(self, space):
        with pytest.raises(GenomeError, match="missing"):
            Genome(space, {"a": 1})

    def test_unknown_param(self, space):
        with pytest.raises(GenomeError, match="unknown"):
            Genome(space, {"a": 1, "c": "x", "zz": 3})

    def test_out_of_domain(self, space):
        with pytest.raises(GenomeError, match="not in domain"):
            Genome(space, {"a": 99, "c": "x"})

    def test_from_mapping_and_kwargs(self, space):
        g = space.genome({"a": 2}, c="y")
        assert g.as_dict() == {"a": 2, "c": "y"}


class TestMappingInterface:
    def test_len_iter(self, space):
        g = space.genome(a=0, c="x")
        assert len(g) == 2
        assert list(g) == ["a", "c"]
        assert dict(g) == {"a": 0, "c": "x"}

    def test_keyerror(self, space):
        g = space.genome(a=0, c="x")
        with pytest.raises(KeyError):
            g["nope"]


class TestIdentity:
    def test_equal_genomes_hash_equal(self, space):
        g1 = space.genome(a=1, c="y")
        g2 = space.genome(a=1, c="y")
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1.key == g2.key

    def test_different_values_differ(self, space):
        assert space.genome(a=1, c="y") != space.genome(a=2, c="y")

    def test_usable_as_dict_key(self, space):
        cache = {space.genome(a=1, c="x"): 42}
        assert cache[space.genome(a=1, c="x")] == 42

    def test_key_includes_space_name(self, space):
        other = DesignSpace(
            "other", [IntParam("a", 0, 3), ChoiceParam("c", ("x", "y"))]
        )
        assert space.genome(a=1, c="x").key != other.genome(a=1, c="x").key


class TestDerivation:
    def test_replace(self, space):
        g = space.genome(a=1, c="x")
        g2 = g.replace(a=3)
        assert g2["a"] == 3 and g2["c"] == "x"
        assert g["a"] == 1  # original untouched

    def test_replace_invalid(self, space):
        with pytest.raises(GenomeError):
            space.genome(a=1, c="x").replace(a=77)

    def test_index_vector(self, space):
        g = space.genome(a=2, c="y")
        assert g.codes == (2, 1)

    def test_space_accessor(self, space):
        assert space.genome(a=0, c="x").space is space
