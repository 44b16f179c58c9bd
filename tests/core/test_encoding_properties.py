"""Property tests for the encoders on the daemon's write path.

``fileio.dumps`` encodes every event line, journal line and store row,
and must write the bytes ``json.dumps`` writes. A journal line's RNG
states are base64 text of little-endian uint32 words, and must decode to
the state they came from.
"""

import base64
import json
import json.encoder
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fileio
from repro.core.fileio import dumps
from repro.core.kernel import _rng_state_from_json, _rng_state_to_json

_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308)
)
_ints = st.integers() | st.integers(min_value=2**63 - 2, max_value=2**200)
_texts = st.text() | st.text(
    alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from("\"\\/é€😀 ")
)
_scalars = st.none() | st.booleans() | _ints | _floats | _texts
_keys = _texts | _ints | _floats | st.booleans() | st.none()
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(_keys, children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_dumps_writes_the_bytes_of_json_dumps(value):
    assert dumps(value) == json.dumps(value)


@pytest.mark.parametrize("bad", [{"x": object()}, [{1, 2}], {(1, 2): 3}])
def test_dumps_raises_what_json_dumps_raises(bad):
    with pytest.raises(TypeError) as expected:
        json.dumps(bad)
    with pytest.raises(TypeError) as got:
        dumps(bad)
    assert str(got.value) == str(expected.value)


def test_dumps_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    fallback = fileio._make_dumps()
    value = {"a": [1, 2.5, None, "é\x00"], 3: {"c": math.nan, "d": -0.0}}
    assert fallback(value) == json.dumps(value)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.integers(0, 1500))
def test_rng_state_text_is_packed_little_endian_words(seed, draws):
    rng = random.Random(seed)
    for _ in range(draws):
        rng.random()
    if draws % 3 == 0:
        rng.gauss(0.0, 1.0)  # a pending gauss value rides in the state
    state = rng.getstate()
    version, words, gauss = state
    encoded = _rng_state_to_json(state)
    assert encoded == [
        version,
        base64.b64encode(struct.pack("<625I", *words)).decode("ascii"),
        gauss,
    ]
    assert json.loads(json.dumps(encoded)) == encoded
    assert _rng_state_from_json(encoded) == state
    restored = random.Random()
    restored.setstate(_rng_state_from_json(json.loads(json.dumps(encoded))))
    assert [restored.random() for _ in range(5)] == [rng.random() for _ in range(5)]
