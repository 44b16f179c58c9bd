"""``Dataset.load`` and ``content_fingerprint`` equal the per-row originals.

The loader validates and encodes a file's configs in one column pass
(``SpaceCodec.mapping_keys``) and keeps the metrics dicts it parsed; the
fingerprint hashes the same bytes in a few large updates. Both are checked
against verbatim copies of the per-row ``record()`` loop and the per-row
fingerprint loop they replaced: the same keys, in the same order, with the
same value types, the same metrics, the same fingerprint, and the same
exception for a bad row.
"""

from __future__ import annotations

import gzip
import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DesignSpace, GenomeError
from repro.core.params import Param
from repro.dataset import Dataset

# -- references: the loader and fingerprint before the column pass --------


def reference_rows(path, space) -> dict:
    """The ``_rows`` of the per-row loader: ``record()`` once per row."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        payload = json.load(fh)
    codec = space.codec
    rows: dict = {}
    for row in payload["rows"]:
        config, metrics = row["config"], row["metrics"]
        key = codec.genome_key(codec.encode_mapping(config))
        rows[key] = dict(metrics) if metrics is not None else None
    return rows


def reference_fingerprint(rows: dict) -> str:
    digest = hashlib.sha1()
    for key in sorted(rows, key=repr):
        metrics = rows[key]
        digest.update(repr(key).encode("utf-8"))
        digest.update(json.dumps(metrics, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def typed(value):
    """A value with the type of every part spelled out: ``1``, ``1.0`` and
    ``True`` compare equal but must not be interchanged in a key."""
    if isinstance(value, (tuple, list)):
        return (type(value), tuple(typed(v) for v in value))
    return (type(value), value)


def assert_same_rows(loaded: dict, reference: dict) -> None:
    assert [typed(key) for key in loaded] == [typed(key) for key in reference]
    assert list(loaded.values()) == list(reference.values())


def write(path, space, rows, name="prop") -> None:
    """A dataset file in :meth:`Dataset.save`'s format, rows as given
    (duplicates and hand-edited spellings included)."""
    payload = {
        "name": name,
        "space": space.name,
        "params": list(space.param_names),
        "rows": [{"config": config, "metrics": metrics} for config, metrics in rows],
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)


# -- strategies ------------------------------------------------------------

_DOMAINS = st.one_of(
    st.lists(st.integers(-4, 40), min_size=1, max_size=5, unique=True),
    st.lists(st.booleans(), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from(["x", "y", "mux", "", "é"]), min_size=1,
             max_size=4, unique=True),
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        min_size=1, max_size=4, unique=True,
    ),
)

_METRICS = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(["luts", "ffs", "fmax_mhz", "snr_db", "z"]),
        st.one_of(st.floats(allow_nan=False), st.integers(-5, 5)),
        max_size=4,
    ),
)


@st.composite
def spaces(draw):
    domains = draw(st.lists(_DOMAINS, min_size=1, max_size=4))
    return DesignSpace(
        "prop", [Param(f"p{k}", values) for k, values in enumerate(domains)]
    )


@st.composite
def datasets(draw):
    """A space and rows over it: infeasible rows and duplicate designs
    included (codes drawn from the full domain, so designs repeat)."""
    space = draw(spaces())
    codec = space.codec
    codes = st.tuples(*[st.integers(0, c - 1) for c in codec.cardinalities])
    rows = draw(st.lists(st.tuples(codes, _METRICS), min_size=1, max_size=24))
    return space, [
        ({name: codec.domains[pos][code] for pos, (name, code)
          in enumerate(zip(codec.names, row_codes))}, metrics)
        for row_codes, metrics in rows
    ]


def respelled(draw, value):
    """Another spelling of a domain value that a hand-edited or foreign
    JSON file could hold: a float or bool for an int, an int or float for
    a bool, a list for a tuple."""
    if isinstance(value, bool):
        return draw(st.sampled_from([value, int(value), float(value)]))
    if isinstance(value, int):
        options = [value, float(value)]
        if value in (0, 1):
            options.append(bool(value))
        return draw(st.sampled_from(options))
    if isinstance(value, tuple):
        return draw(st.sampled_from([value, list(value)]))
    return value


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestLoadEqualsPerRowLoader:
    @_SETTINGS
    @given(datasets())
    def test_rows_and_fingerprint(self, tmp_path, case):
        space, rows = case
        path = tmp_path / "d.json.gz"
        write(path, space, rows)
        loaded = Dataset.load(path, space)
        reference = reference_rows(path, space)
        assert_same_rows(loaded._rows, reference)
        assert loaded.content_fingerprint() == reference_fingerprint(reference)

    @_SETTINGS
    @given(datasets(), st.data())
    def test_hand_edited_spellings_land_on_the_same_keys(self, tmp_path, case, data):
        space, rows = case
        edited = [
            ({name: respelled(data.draw, value) for name, value in config.items()},
             metrics)
            for config, metrics in rows
        ]
        path = tmp_path / "d.json.gz"
        write(path, space, edited)
        loaded = Dataset.load(path, space)
        reference = reference_rows(path, space)
        assert_same_rows(loaded._rows, reference)
        # ...and on the keys the canonical spellings load onto.
        canonical = tmp_path / "c.json.gz"
        write(canonical, space, rows)
        assert_same_rows(loaded._rows, reference_rows(canonical, space))
        assert loaded.content_fingerprint() == reference_fingerprint(reference)

    @_SETTINGS
    @given(datasets())
    def test_saved_datasets_round_trip(self, tmp_path, case):
        space, rows = case
        dataset = Dataset("prop", space)
        for config, metrics in rows:
            dataset.record(config, metrics)
        path = tmp_path / "d.json.gz"
        dataset.save(path)
        loaded = Dataset.load(path, space)
        assert_same_rows(loaded._rows, dataset._rows)
        assert loaded.content_fingerprint() == dataset.content_fingerprint()
        assert loaded.content_fingerprint() == reference_fingerprint(dataset._rows)


# -- bad rows raise what the per-row loader raised --------------------------


def _corrupt(kind, config, space):
    config = dict(config)
    name = space.param_names[0]
    if kind == "unknown":
        config["not_a_param"] = 1
    elif kind == "missing":
        config.pop(name, None)
    elif kind == "out_of_domain":
        config[name] = "no such value"
    elif kind == "unhashable":
        config[name] = {"nested": [1]}
    elif kind == "nested_list":
        config[name] = [[1, 2]]  # freezes to a tuple holding a list
    return config


_KINDS = ["unknown", "missing", "out_of_domain", "unhashable", "nested_list"]


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return None


class TestBadRowsRaiseTheSameError:
    @_SETTINGS
    @given(datasets(), st.data())
    def test_first_bad_row_raises_the_reference_error(self, tmp_path, case, data):
        space, rows = case
        bad = data.draw(st.lists(
            st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(_KINDS)),
            min_size=1, max_size=3,
        ))
        rows = list(rows)
        for index, kind in bad:
            rows[index] = (_corrupt(kind, rows[index][0], space), rows[index][1])
        path = tmp_path / "d.json.gz"
        write(path, space, rows)
        expected = _raised(lambda: reference_rows(path, space))
        assert expected is not None and expected[0] is GenomeError
        assert _raised(lambda: Dataset.load(path, space)) == expected

    @pytest.mark.parametrize("kind", _KINDS)
    def test_each_kind(self, tmp_path, kind):
        space = DesignSpace("prop", [Param("p0", [1, 2]), Param("p1", ["x"])])
        good = {"p0": 1, "p1": "x"}
        path = tmp_path / "d.json.gz"
        write(path, space, [(good, None), (_corrupt(kind, good, space), None)])
        expected = _raised(lambda: reference_rows(path, space))
        assert expected[0] is GenomeError
        assert _raised(lambda: Dataset.load(path, space)) == expected

    def test_a_non_dict_metrics_is_converted_or_raises_as_before(self, tmp_path):
        space = DesignSpace("prop", [Param("p0", [1, 2])])
        path = tmp_path / "d.json.gz"
        write(path, space, [({"p0": 1}, [["m", 1.5]]), ({"p0": 2}, {"m": 2.0})])
        assert Dataset.load(path, space)._rows == reference_rows(path, space)
        write(path, space, [({"p0": 1}, 7)])
        expected = _raised(lambda: reference_rows(path, space))
        assert expected[0] is TypeError
        assert _raised(lambda: Dataset.load(path, space)) == expected


class TestDuplicates:
    def test_a_later_duplicate_wins_at_the_first_rows_position(self, tmp_path):
        space = DesignSpace("prop", [Param("p0", [1, 2, 3]), Param("p1", [(2, 4), (8, 8)])])
        path = tmp_path / "d.json.gz"
        write(path, space, [
            ({"p0": 2, "p1": [2, 4]}, {"m": 1.0}),
            ({"p0": 3, "p1": [8, 8]}, {"m": 3.0}),
            ({"p0": 2.0, "p1": [2, 4]}, None),
            ({"p0": True, "p1": [8, 8]}, {"m": 5.0}),
        ])
        rows = Dataset.load(path, space)._rows
        assert list(rows.items()) == [
            (("prop", (2, (2, 4))), None),
            (("prop", (3, (8, 8))), {"m": 3.0}),
            (("prop", (1, (8, 8))), {"m": 5.0}),
        ]
        assert [typed(key) for key in rows] == [
            typed(key) for key in reference_rows(path, space)
        ]


class TestMappingKeys:
    @settings(max_examples=200, deadline=None)
    @given(datasets())
    def test_equals_encode_mapping_per_config(self, case):
        space, rows = case
        codec = space.codec
        configs = [config for config, __ in rows]
        expected = [codec.values_key(codec.encode_mapping(c)) for c in configs]
        assert [typed(k) for k in codec.mapping_keys(configs)] == [
            typed(k) for k in expected
        ]

    def test_values_are_the_canonical_frozen_domain_values(self):
        space = DesignSpace("prop", [Param("p0", [0, 1]), Param("p1", [[2, 4], 5])])
        (key,) = space.codec.mapping_keys([{"p0": True, "p1": (2, 4)}])
        assert typed(key) == typed((1, (2, 4)))

    def test_empty(self):
        space = DesignSpace("prop", [Param("p0", [0, 1])])
        assert space.codec.mapping_keys([]) == []
