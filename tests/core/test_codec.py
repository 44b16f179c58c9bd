"""Tests for the ordinal codec: encode/decode tables, the trusted fast
path, O(changes) replace, and the canonical values-key contract."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BoolParam,
    ChoiceParam,
    DesignSpace,
    Genome,
    GenomeError,
    IntParam,
    Param,
    PersistentCache,
    PowOfTwoParam,
    freeze_value,
    values_key,
)


def make_space(constraints=()):
    return DesignSpace(
        "codec",
        [
            IntParam("a", 0, 4),
            PowOfTwoParam("b", 1, 8),
            BoolParam("f"),
            ChoiceParam("c", ("x", "y", "z")),
        ],
        constraints=constraints,
    )


class TestTables:
    def test_declaration_order(self):
        space = make_space()
        codec = space.codec
        assert codec.names == ("a", "b", "f", "c")
        assert codec.positions == {"a": 0, "b": 1, "f": 2, "c": 3}
        assert codec.cardinalities == (5, 4, 2, 3)
        assert codec.num_params == 4

    def test_domains_match_params(self):
        space = make_space()
        for pos, param in enumerate(space.params):
            assert space.codec.domains[pos] == param.values
            for code, value in enumerate(param.values):
                assert space.codec.index_maps[pos][freeze_value(value)] == code

    def test_codec_shares_space_lifetime(self):
        space = make_space()
        assert space.codec.space is space


class TestEncode:
    def test_round_trip(self):
        space = make_space()
        config = {"a": 3, "b": 4, "f": True, "c": "y"}
        codes = space.codec.encode_mapping(config)
        assert all(isinstance(c, int) for c in codes)
        assert dict(zip(space.codec.names, space.codec.decode(codes))) == config

    def test_unknown_param_message(self):
        space = make_space()
        with pytest.raises(GenomeError, match=r"unknown parameters.*\['zz'\]"):
            space.codec.encode_mapping(
                {"a": 0, "b": 1, "f": False, "c": "x", "zz": 1}
            )

    def test_missing_param_message(self):
        space = make_space()
        with pytest.raises(GenomeError, match=r"missing parameters.*\['c'\]"):
            space.codec.encode_mapping({"a": 0, "b": 1, "f": False})

    def test_out_of_domain_message(self):
        space = make_space()
        with pytest.raises(GenomeError, match=r"value 3 not in domain.*'b'"):
            space.codec.encode_mapping({"a": 0, "b": 3, "f": False, "c": "x"})

    def test_unhashable_value_rejected(self):
        space = make_space()
        with pytest.raises(GenomeError, match="not in domain"):
            space.codec.encode_mapping(
                {"a": {"no": 1}, "b": 1, "f": False, "c": "x"}
            )


class TestRecode:
    def test_only_changed_positions_move(self):
        space = make_space()
        codes = space.codec.encode_mapping({"a": 1, "b": 2, "f": True, "c": "x"})
        recoded = space.codec.recode(codes, {"b": 8})
        assert recoded[1] != codes[1]
        assert recoded[0] == codes[0]
        assert recoded[2:] == codes[2:]

    def test_changed_value_is_validated(self):
        space = make_space()
        codes = space.codec.encode_mapping({"a": 1, "b": 2, "f": True, "c": "x"})
        with pytest.raises(GenomeError, match="not in domain"):
            space.codec.recode(codes, {"b": 7})

    def test_unknown_name_rejected(self):
        space = make_space()
        codes = space.codec.encode_mapping({"a": 1, "b": 2, "f": True, "c": "x"})
        with pytest.raises(GenomeError, match=r"unknown parameters.*\['zz'\]"):
            space.codec.recode(codes, {"zz": 1})


class TestReplaceFastPath:
    """Satellite: Genome.replace must validate *only* the changed genes.

    The historical implementation rebuilt and re-validated every gene
    (one ``Param.contains`` per parameter per replace); the encoded core
    recodes the changed positions and copies the rest untouched.
    """

    def test_replace_makes_no_domain_membership_calls(self, monkeypatch):
        space = make_space()
        genome = space.genome({"a": 1, "b": 2, "f": True, "c": "x"})
        calls = {"contains": 0, "index_of": 0}
        orig_contains, orig_index_of = Param.contains, Param.index_of

        def counting_contains(self, value):
            calls["contains"] += 1
            return orig_contains(self, value)

        def counting_index_of(self, value):
            calls["index_of"] += 1
            return orig_index_of(self, value)

        monkeypatch.setattr(Param, "contains", counting_contains)
        monkeypatch.setattr(Param, "index_of", counting_index_of)
        child = genome.replace(b=8)
        assert calls == {"contains": 0, "index_of": 0}
        assert child["b"] == 8 and child["a"] == 1

    def test_replace_validates_changes(self):
        space = make_space()
        genome = space.genome({"a": 1, "b": 2, "f": True, "c": "x"})
        with pytest.raises(GenomeError):
            genome.replace(b=3)
        with pytest.raises(GenomeError):
            genome.replace(zz=1)

    def test_replace_preserves_untouched_codes(self):
        space = make_space()
        genome = space.genome({"a": 4, "b": 8, "f": False, "c": "z"})
        child = genome.replace(a=0)
        assert child.codes[1:] == genome.codes[1:]
        assert child is not genome


class TestTrustedPath:
    def test_from_codes_skips_validation(self):
        space = make_space()
        genome = Genome.from_codes(space, (0, 0, 0, 0))
        assert genome.as_dict() == {"a": 0, "b": 1, "f": False, "c": "x"}

    def test_equality_and_hash_agree_across_paths(self):
        space = make_space()
        via_values = space.genome({"a": 2, "b": 4, "f": True, "c": "y"})
        via_codes = Genome.from_codes(space, via_values.codes)
        assert via_values == via_codes
        assert hash(via_values) == hash(via_codes)
        assert via_values.key == via_codes.key


class TestValuesKeyContract:
    """Satellite: one canonical values-key shared by genomes and caches.

    This key is the *on-disk* format of the persistent evaluation cache —
    if any of these assertions fails, existing cache files are orphaned.
    """

    def test_one_helper_everywhere(self):
        space = make_space()
        genome = space.genome({"a": 3, "b": 2, "f": True, "c": "z"})
        values = tuple(genome[name] for name in space.param_names)
        assert genome._values_key() == values_key(values)
        assert PersistentCache._values_key(values) == values_key(values)
        assert genome.key == (space.name, values_key(values))
        assert space.codec.values_key(genome.codes) == values_key(values)

    def test_frozen_format_is_pinned(self):
        # Lists freeze to tuples (the JSON round-trip shape); everything
        # else passes through unchanged. Exact expected tuples, frozen.
        assert values_key([3, "y", True, 8]) == (3, "y", True, 8)
        assert values_key([[1, 2], "x"]) == ((1, 2), "x")
        assert values_key(((1, 2), "x")) == ((1, 2), "x")
        assert freeze_value([1, [2]]) == (1, [2])
        assert freeze_value("abc") == "abc"

    def test_json_round_trip_lands_on_same_key(self):
        import json

        values = (2, 8, False, "y")
        round_tripped = json.loads(json.dumps(list(values)))
        assert values_key(round_tripped) == values_key(values)


class TestSamplingParity:
    def test_random_codes_matches_per_param_draws(self):
        space = make_space()
        rng_a, rng_b = random.Random(11), random.Random(11)
        codes = space.codec.random_codes(rng_a)
        # The historical path: one randrange(cardinality) per parameter,
        # declaration order (Param.random_value).
        expected = tuple(rng_b.randrange(p.cardinality) for p in space.params)
        assert codes == expected
        assert rng_a.getstate() == rng_b.getstate()

    def test_iter_codes_is_lexicographic(self):
        space = DesignSpace("tiny", [BoolParam("x"), ChoiceParam("y", ("p", "q"))])
        assert list(space.codec.iter_codes()) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_feasibility_on_codes(self):
        space = make_space([lambda c: c["a"] > 0])
        codec = space.codec
        assert not codec.is_feasible_codes((0, 0, 0, 0))
        assert codec.is_feasible_codes((1, 0, 0, 0))


# Domains mixing ints, strings, None and list values (lists freeze to
# tuples), single-value domains included; unique_by keeps each domain free
# of equal values, as Param requires.
_DOMAIN_VALUE = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["x", "y", "z", None]),
    st.lists(st.integers(0, 2), max_size=2),
)


@st.composite
def design_spaces(draw):
    """Small random spaces of plain :class:`Param` domains."""
    domains = draw(
        st.lists(
            st.lists(_DOMAIN_VALUE, min_size=1, max_size=5,
                     unique_by=freeze_value),
            min_size=1,
            max_size=5,
        )
    )
    return DesignSpace(
        "prop", [Param(f"p{k}", values) for k, values in enumerate(domains)]
    )


@st.composite
def _space_and_codes(draw):
    space = draw(design_spaces())
    codes = draw(
        st.tuples(*[st.integers(0, c - 1) for c in space.codec.cardinalities])
    )
    return space, codes


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(_space_and_codes())
    def test_decode_encode_round_trip(self, case):
        space, codes = case
        codec = space.codec
        values = codec.decode(codes)
        mapping = dict(zip(codec.names, values))
        assert codec.encode_mapping(mapping) == codes
        assert codec.decode(codec.encode_mapping(mapping)) == values

    @settings(max_examples=200, deadline=None)
    @given(_space_and_codes())
    def test_values_key_matches_decoded_values(self, case):
        space, codes = case
        codec = space.codec
        assert codec.values_key(codes) == values_key(codec.decode(codes))

    @settings(max_examples=200, deadline=None)
    @given(_space_and_codes())
    def test_one_gene_reads_match_full_decode(self, case):
        space, codes = case
        genome = Genome.from_codes(space, codes)
        before = {name: genome[name] for name in space.param_names}
        # Reading genes one by one decodes nothing else.
        assert genome._values is None
        decoded = genome.as_dict()
        assert genome._values is not None
        for name in space.param_names:
            assert before[name] is decoded[name]
            assert genome[name] is decoded[name]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_recode_moves_only_named_positions(self, data):
        space, codes = data.draw(_space_and_codes())
        codec = space.codec
        named = data.draw(
            st.lists(st.sampled_from(codec.names), unique=True)
        )
        changes = {
            name: data.draw(st.sampled_from(codec.domains[codec.positions[name]]))
            for name in named
        }
        recoded = codec.recode(codes, changes)
        for pos, name in enumerate(codec.names):
            if name in changes:
                assert codec.domains[pos][recoded[pos]] == changes[name]
            else:
                assert recoded[pos] == codes[pos]
