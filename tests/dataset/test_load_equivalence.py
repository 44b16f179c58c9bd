"""A ``Dataset`` serves what the per-row originals served.

The loader folds each row into metric columns as the parser completes it,
and the dataset builds row dicts on request; the fingerprint hashes the
same bytes in a few large updates. Both are checked against verbatim
copies of the per-row ``record()`` loop, the per-row fingerprint loop and
the dict-of-rows statistics they replaced: the same keys, in the same
order, with the same value types, the same metrics (key order and value
types too), the same statistics, lookups, saved bytes and fingerprint, and
the same exception for a bad row.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DatasetEvaluator,
    DesignSpace,
    Genome,
    GenomeError,
    InfeasibleDesignError,
    Objective,
    maximize,
    minimize,
)
from repro.core.errors import DatasetError
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
        key = (space.name, codec.values_key(codec.encode_mapping(config)))
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
        assert_same_rows(dict(loaded.iter_rows()), reference)
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
        assert_same_rows(dict(loaded.iter_rows()), reference)
        # ...and on the keys the canonical spellings load onto.
        canonical = tmp_path / "c.json.gz"
        write(canonical, space, rows)
        assert_same_rows(dict(loaded.iter_rows()), reference_rows(canonical, space))
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
        assert_same_rows(dict(loaded.iter_rows()), dict(dataset.iter_rows()))
        assert loaded.content_fingerprint() == dataset.content_fingerprint()
        assert loaded.content_fingerprint() == reference_fingerprint(dict(dataset.iter_rows()))


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
        assert dict(Dataset.load(path, space).iter_rows()) == reference_rows(path, space)
        write(path, space, [({"p0": 1}, 7)])
        expected = _raised(lambda: reference_rows(path, space))
        assert expected[0] is TypeError
        assert _raised(lambda: Dataset.load(path, space)) == expected


class TestWrongShape:
    """A payload that is not ``{..., "rows": [{"config": {...}, "metrics":
    ...}, ...]}`` raises ``DatasetError``, whatever row it breaks at."""

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"name": "prop", "space": "prop", "params": ["p0"]},
        {"name": "prop", "space": "prop", "params": ["p0"], "rows": {}},
        {"name": "prop", "space": "prop", "params": ["p0"],
         "rows": [{"config": {"p0": 1}, "metrics": None}, None]},
        {"name": "prop", "space": "prop", "params": ["p0"],
         "rows": [{"config": {"p0": 1}}]},
        {"name": "prop", "space": "prop", "params": ["p0"],
         "rows": [{"config": {"p0": 1}, "metrics": None, "note": "x"}]},
        {"name": "prop", "space": "prop", "params": ["p0"],
         "rows": [{"config": [["p0", 1]], "metrics": None}]},
        {"name": {"config": {"p0": 1}, "metrics": None}, "space": "prop",
         "params": ["p0"], "rows": [{"config": {"p0": 2}, "metrics": None}]},
    ])
    def test_raises_dataset_error(self, tmp_path, payload):
        space = DesignSpace("prop", [Param("p0", [1, 2])])
        path = tmp_path / "d.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(DatasetError):
            Dataset.load(path, space)

    def test_key_order_within_a_row_is_free(self, tmp_path):
        space = DesignSpace("prop", [Param("p0", [1, 2])])
        path = tmp_path / "d.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"name": "prop", "space": "prop", "params": ["p0"], "rows": [
                {"metrics": {"m": 2.0}, "config": {"p0": 2}},
                {"config": {"p0": 1}, "metrics": {"m": 1.0}},
            ]}, fh)
        assert list(Dataset.load(path, space).iter_rows()) == [
            (("prop", (2,)), {"m": 2.0}), (("prop", (1,)), {"m": 1.0}),
        ]


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
        rows = dict(Dataset.load(path, space).iter_rows())
        assert list(rows.items()) == [
            (("prop", (2, (2, 4))), None),
            (("prop", (3, (8, 8))), {"m": 3.0}),
            (("prop", (1, (8, 8))), {"m": 5.0}),
        ]
        assert [typed(key) for key in rows] == [
            typed(key) for key in reference_rows(path, space)
        ]


# -- the columns serve what the dict of rows served -------------------------


def typed_metrics(metrics):
    """A metrics dict with its key order and value types spelled out."""
    if metrics is None:
        return None
    return [(typed(name), typed(value)) for name, value in metrics.items()]


def recorded_rows(space, rows) -> dict:
    """The ``_rows`` of the per-row ``record()`` loop over Python rows."""
    codec = space.codec
    out: dict = {}
    for config, metrics in rows:
        key = (space.name, codec.values_key(codec.encode_mapping(config)))
        out[key] = dict(metrics) if metrics is not None else None
    return out


def reference_lookup(rows: dict, space, config):
    """``lookup`` over the dict of rows, as it was."""
    if isinstance(config, Genome):
        key = config.key
    else:
        key = (space.name, space.codec.values_key(space.codec.encode_mapping(config)))
    try:
        row = rows[key]
    except KeyError:
        raise DatasetError("not characterized") from None
    if row is None:
        raise InfeasibleDesignError("infeasible")
    return row


def reference_values(rows: dict, objective) -> list:
    return [objective.raw(row) for row in rows.values() if row is not None]


def reference_best(rows: dict, objective) -> float:
    values = reference_values(rows, objective)
    if not values:
        raise DatasetError("no feasible rows")
    return max(values) if objective.maximizing else min(values)


def reference_percentile(rows: dict, objective, top_percent) -> float:
    values = sorted(reference_values(rows, objective), reverse=objective.maximizing)
    if not values:
        raise DatasetError("no feasible rows")
    return values[max(0, math.ceil(len(values) * top_percent / 100.0) - 1)]


def reference_payload(rows: dict, space, name="prop") -> str:
    """What ``save`` wrote from the dict of rows, decompressed."""
    names = space.param_names
    return json.dumps({
        "name": name,
        "space": space.name,
        "params": list(names),
        "rows": [
            {"config": dict(zip(names, values)), "metrics": metrics}
            for (__, values), metrics in rows.items()
        ],
    })


def outcome(fn):
    """A call's typed result, or the type of what it raised."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return ("raised", type(exc))
    if isinstance(value, dict):
        return typed_metrics(value)
    return typed(value)


_OBJECTIVES = [
    maximize("luts"),  # raises on rows without "luts"
    minimize("z"),
    Objective(lambda m: float(len(m)), "min", name="width"),
    Objective(lambda m: max([float(v) for v in m.values()], default=0.0),
              "max", name="largest"),
]


def assert_serves(dataset: Dataset, space, rows: dict, tmp_path) -> None:
    """Every read of ``dataset`` equals the same read of the dict of rows."""
    assert len(dataset) == len(rows)
    assert dataset.feasible_count == sum(row is not None for row in rows.values())
    assert [typed_metrics(m) for m in dataset.iter_metrics()] == [
        typed_metrics(row) for row in rows.values() if row is not None
    ]
    assert [(typed(key), typed_metrics(m)) for key, m in dataset.iter_rows()] == [
        (typed(key), typed_metrics(row)) for key, row in rows.items()
    ]
    for objective in _OBJECTIVES:
        assert outcome(lambda: dataset.metric_values(objective)) == outcome(
            lambda: reference_values(rows, objective))
        assert outcome(lambda: dataset.best_value(objective)) == outcome(
            lambda: reference_best(rows, objective))
        for top in (0.5, 10.0, 50.0, 100.0):
            assert outcome(lambda: dataset.percentile_value(objective, top)) == outcome(
                lambda: reference_percentile(rows, objective, top))
    # Every point of the space, by genome, by mapping, and by a genome of
    # an equal but separate space.
    twin = DesignSpace(space.name, [Param(p.name, p.values) for p in space.params])
    for codes in space.codec.iter_codes():
        genome = space.codec.genome(codes)
        expected = outcome(lambda: reference_lookup(rows, space, genome))
        assert outcome(lambda: dataset.lookup(genome)) == expected
        assert outcome(lambda: dataset.lookup(genome.as_dict())) == expected
        assert outcome(lambda: dataset.lookup(twin.codec.genome(codes))) == expected
    path = tmp_path / "saved.json.gz"
    dataset.save(path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        assert fh.read() == reference_payload(rows, space, dataset.name)
    assert dataset.content_fingerprint() == reference_fingerprint(rows)


class TestColumnsServeThePerRowRows:
    @_SETTINGS
    @given(datasets())
    def test_a_loaded_dataset(self, tmp_path, case):
        space, rows = case
        path = tmp_path / "d.json.gz"
        write(path, space, rows)
        assert_serves(Dataset.load(path, space), space,
                      reference_rows(path, space), tmp_path)

    @_SETTINGS
    @given(datasets())
    def test_a_recorded_dataset(self, tmp_path, case):
        space, rows = case
        dataset = Dataset("prop", space)
        for config, metrics in rows:
            dataset.record(config, metrics)
        assert_serves(dataset, space, recorded_rows(space, rows), tmp_path)

    def test_the_fingerprint_writes_float_columns_as_json_does(self):
        """Float columns go through the fingerprint's repr template unless
        a value is not finite: json writes ``Infinity`` and ``NaN``. Names
        are escaped as json escapes them, ``%`` included."""
        space = DesignSpace("prop", [Param("p0", [1, 2, 3, 4])])
        finite = {"m%s": 1.5, "é": -0.0, "a": 1e-300}
        for extra in (None, float("inf"), float("-inf"), float("nan")):
            dataset = Dataset("prop", space)
            rows = {}
            for p0 in (1, 2, 3):
                metrics = dict(finite, z=float(p0) if extra is None or p0 < 3 else extra)
                dataset.record({"p0": p0}, metrics)
                rows[("prop", (p0,))] = metrics
            assert dataset.content_fingerprint() == reference_fingerprint(rows)

    def test_a_genome_of_another_space_is_looked_up_by_its_values(self):
        space = DesignSpace("prop", [Param("p0", [1, 2])])
        dataset = Dataset("prop", space)
        dataset.record({"p0": 1}, {"m": 1.0})
        with pytest.raises(DatasetError, match="not characterized"):
            dataset.lookup(DesignSpace("other", [Param("p0", [1, 2])]).genome({"p0": 1}))
        with pytest.raises(DatasetError, match="not characterized"):
            dataset.lookup(DesignSpace("prop", [Param("p0", [3, 1])]).genome({"p0": 3}))
        twin = DesignSpace("prop", [Param("p0", [2, 1])])
        assert dataset.lookup(twin.genome({"p0": 1})) == {"m": 1.0}

    def test_a_returned_row_is_the_callers_own(self):
        space = DesignSpace("prop", [Param("p0", [1, 2])])
        dataset = Dataset("prop", space)
        dataset.record({"p0": 1}, {"m": 1.0, "n": 2})
        genome = space.genome({"p0": 1})
        rows = [
            dataset.lookup(genome),
            dataset.lookup({"p0": 1}),
            DatasetEvaluator(dataset).evaluate(genome),
            next(dataset.iter_metrics()),
            next(dataset.iter_rows())[1],
        ]
        for row in rows:
            row["m"] = -1.0
            row["x"] = 0
            del row["n"]
        for row in (dataset.lookup(genome), next(dataset.iter_metrics())):
            assert typed_metrics(row) == typed_metrics({"m": 1.0, "n": 2})
