"""A ``Dataset`` serves what the per-row originals served, and loads only
a whole, well-formed column file.

The dataset holds metric columns and builds row dicts on request; the
fingerprint hashes the same bytes in a few large updates. Both are checked
against verbatim copies of the per-row ``record()`` loop, the per-row
fingerprint loop and the dict-of-rows statistics they replaced: the same
keys, in the same order, with the same value types, the same metrics (key
order and value types too), the same statistics, lookups and fingerprint,
and the same exception for a bad row. A saved column file loads back onto
the rows it was saved from and saves to the same bytes again. Every fault
:meth:`Dataset.load` checks for raises ``DatasetError``, so
``load_or_characterize`` characterizes the space again and rewrites the
file.
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
    CallableEvaluator,
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
from repro.dataset import Dataset, load_or_characterize
from repro.dataset.cache import DATASET_VERSION
from repro.dataset.dataset import FILE_FORMAT

# -- references: the per-row loop and fingerprint before the columns --------


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


def recorded(space, rows, name="prop") -> Dataset:
    """A dataset holding ``rows`` through one ``record()`` per row."""
    dataset = Dataset(name, space)
    for config, metrics in rows:
        dataset.record(config, metrics)
    return dataset


def column_file_rows(path, space) -> dict:
    """A column file read one row at a time: each row's key from its codes
    through the space's frozen values, its metrics from its shape."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        payload = json.load(fh)
    shapes = [None, *payload["shapes"]]
    rows: dict = {}
    for slot, shape_id in enumerate(payload["shape_ids"]):
        codes = [column[slot] for column in payload["codes"]]
        key = (space.name, space.codec.values_key(codes))
        shape = shapes[shape_id]
        rows[key] = None if shape is None else {
            name: payload["columns"][name][slot] for name in shape
        }
    return rows


def saved_and_loaded(dataset: Dataset, path) -> Dataset:
    dataset.save(path)
    return Dataset.load(path, dataset.space)


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
    """Another spelling of a domain value that a caller could pass: a
    float or bool for an int, an int or float for a bool, a list for a
    tuple."""
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
        """A saved file loads onto the rows it holds, read one at a time,
        which are the rows of the per-row record loop."""
        space, rows = case
        path = tmp_path / "d.json.gz"
        loaded = saved_and_loaded(recorded(space, rows), path)
        reference = recorded_rows(space, rows)
        for expected in (column_file_rows(path, space), reference):
            assert [(typed(key), typed_metrics(m)) for key, m in loaded.iter_rows()] == [
                (typed(key), typed_metrics(m)) for key, m in expected.items()
            ]
        assert loaded.content_fingerprint() == reference_fingerprint(reference)

    @_SETTINGS
    @given(datasets(), st.data())
    def test_hand_edited_spellings_land_on_the_same_keys(self, tmp_path, case, data):
        """``record()`` takes a value in any spelling its parameter's
        index map accepts (``1.0`` or ``True`` for ``1``, ``[2, 4]`` for
        ``(2, 4)``); the file holds codes, so the saved dataset loads onto
        the keys of the canonical spellings."""
        space, rows = case
        edited = [
            ({name: respelled(data.draw, value) for name, value in config.items()},
             metrics)
            for config, metrics in rows
        ]
        loaded = saved_and_loaded(recorded(space, edited), tmp_path / "d.json.gz")
        canonical = recorded_rows(space, rows)
        assert [(typed(key), typed_metrics(m)) for key, m in loaded.iter_rows()] == [
            (typed(key), typed_metrics(m)) for key, m in canonical.items()
        ]
        assert loaded.content_fingerprint() == reference_fingerprint(canonical)

    @_SETTINGS
    @given(datasets())
    def test_saved_datasets_round_trip(self, tmp_path, case):
        """A loaded file saves to its own bytes: one spelling per dataset."""
        space, rows = case
        dataset = recorded(space, rows)
        first, second = tmp_path / "d.json.gz", tmp_path / "e.json.gz"
        loaded = saved_and_loaded(dataset, first)
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()
        assert loaded.name == dataset.name
        assert loaded.content_fingerprint() == dataset.content_fingerprint()


# -- bad rows raise what the per-row loop raised ------------------------------


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
    """Rows enter a dataset through ``record()`` (``characterize`` calls
    it), which validates each config as the per-row loop did: the first
    bad row raises the codec's ``GenomeError``."""

    @_SETTINGS
    @given(datasets(), st.data())
    def test_first_bad_row_raises_the_reference_error(self, case, data):
        space, rows = case
        bad = data.draw(st.lists(
            st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(_KINDS)),
            min_size=1, max_size=3,
        ))
        rows = list(rows)
        for index, kind in bad:
            rows[index] = (_corrupt(kind, rows[index][0], space), rows[index][1])
        expected = _raised(lambda: recorded_rows(space, rows))
        assert expected is not None and expected[0] is GenomeError
        assert _raised(lambda: recorded(space, rows)) == expected

    @pytest.mark.parametrize("kind", _KINDS)
    def test_each_kind(self, kind):
        space = DesignSpace("prop", [Param("p0", [1, 2]), Param("p1", ["x"])])
        good = {"p0": 1, "p1": "x"}
        rows = [(good, None), (_corrupt(kind, good, space), None)]
        expected = _raised(lambda: recorded_rows(space, rows))
        assert expected[0] is GenomeError
        assert _raised(lambda: recorded(space, rows)) == expected

    def test_a_non_dict_metrics_is_converted_or_raises_as_before(self, tmp_path):
        space = DesignSpace("prop", [Param("p0", [1, 2])])
        rows = [({"p0": 1}, [["m", 1.5]]), ({"p0": 2}, {"m": 2.0})]
        loaded = saved_and_loaded(recorded(space, rows), tmp_path / "d.json.gz")
        assert dict(loaded.iter_rows()) == recorded_rows(space, rows)
        rows = [({"p0": 1}, 7)]
        expected = _raised(lambda: recorded_rows(space, rows))
        assert expected[0] is TypeError
        assert _raised(lambda: recorded(space, rows)) == expected


class TestDuplicates:
    def test_a_later_duplicate_wins_at_the_first_rows_position(self, tmp_path):
        space = DesignSpace("prop", [Param("p0", [1, 2, 3]), Param("p1", [(2, 4), (8, 8)])])
        dataset = recorded(space, [
            ({"p0": 2, "p1": [2, 4]}, {"m": 1.0}),
            ({"p0": 3, "p1": [8, 8]}, {"m": 3.0}),
            ({"p0": 2.0, "p1": [2, 4]}, None),
            ({"p0": True, "p1": [8, 8]}, {"m": 5.0}),
        ])
        expected = [
            (("prop", (2, (2, 4))), None),
            (("prop", (3, (8, 8))), {"m": 3.0}),
            (("prop", (1, (8, 8))), {"m": 5.0}),
        ]
        loaded = saved_and_loaded(dataset, tmp_path / "d.json.gz")
        for rows in (list(dataset.iter_rows()), list(loaded.iter_rows())):
            assert rows == expected
            assert [typed(key) for key, __ in rows] == [typed(key) for key, __ in expected]


# -- a file that fails a check is stale --------------------------------------

#: A space with int, bool, tuple and str domains.
FAULTS = DesignSpace("faults", [
    Param("n", [1, 2, 4]),
    Param("flag", [False, True]),
    Param("pair", [(2, 4), (8, 8)]),
    Param("kind", ["a", "b"]),
])
TAG = "faults"


def _faults_metrics(genome):
    """Infeasible rows, and two metric shapes, one with an int value."""
    if genome["n"] == 4 and genome["flag"]:
        raise InfeasibleDesignError("hole")
    if genome["kind"] == "a":
        return {"luts": float(genome["n"]), "stages": genome["n"] + 1}
    return {"fmax_mhz": 100.0 / genome["n"]}


@pytest.fixture
def stale(tmp_path, monkeypatch):
    """``check(edit)``: apply ``edit`` to the payload of a good file,
    require ``Dataset.load`` to raise ``DatasetError`` and
    ``load_or_characterize`` to characterize the space again and rewrite
    the file."""
    monkeypatch.setenv("NAUTILUS_DATA_DIR", str(tmp_path))
    path = tmp_path / f"{TAG}_{DATASET_VERSION}.json.gz"
    calls = []

    def evaluate(genome):
        calls.append(genome)
        return _faults_metrics(genome)

    def characterized() -> Dataset:
        return load_or_characterize(FAULTS, CallableEvaluator(evaluate), TAG)

    good = characterized()
    good_bytes = path.read_bytes()
    assert len(calls) == FAULTS.size() == len(good)

    def check(edit=None, replace=None) -> None:
        payload = json.loads(gzip.decompress(good_bytes))
        if edit is not None:
            edit(payload)
        else:
            payload = replace
        path.write_bytes(gzip.compress(json.dumps(payload).encode("utf-8")))
        with pytest.raises(DatasetError):
            Dataset.load(path, FAULTS)
        calls.clear()
        assert list(characterized().iter_rows()) == list(good.iter_rows())
        assert len(calls) == FAULTS.size()
        assert path.read_bytes() == good_bytes

    return check


def _setter(key, value):
    def edit(payload):
        payload[key] = value
    return edit


class TestLoadFaults:
    """One test per check :meth:`Dataset.load` makes."""

    def test_the_format_marker(self, stale):
        stale(lambda payload: payload.pop("format"))
        stale(_setter("format", FILE_FORMAT[:-1] + "0"))

        def row_format(payload):
            """The row format this one replaced."""
            payload.clear()
            payload.update({"name": TAG, "space": "faults", "params": list(FAULTS.param_names),
                            "rows": [{"config": {"n": 1, "flag": False, "pair": [2, 4],
                                                 "kind": "b"}, "metrics": None}]})
        stale(row_format)

    def test_the_space_name(self, stale):
        stale(_setter("space", "other"))
        stale(lambda payload: payload.pop("space"))

    def test_the_param_names_and_order(self, stale):
        names = list(FAULTS.param_names)
        stale(_setter("params", names[::-1]))
        stale(_setter("params", names[:-1]))
        stale(_setter("params", names + ["extra"]))
        stale(_setter("params", [*names[:-1], "other"]))

    def test_each_domain_value_for_value_with_its_type(self, stale):
        for pos, domain in [
            (0, [1, 2, 3]),            # another value
            (0, [1.0, 2, 4]),          # 1.0 is not 1
            (0, [2, 1, 4]),            # another order
            (0, [1, 2]),               # a value short
            (1, [0, 1]),               # 0 and 1 are not false and true
            (2, [[2, 4], [8, 8.0]]),   # 8.0 is not 8
            (3, ["a", "b", "c"]),      # a value more
        ]:
            def edit(payload, pos=pos, domain=domain):
                payload["domains"][pos] = domain
            stale(edit)

    def test_every_code_an_int(self, stale):
        for bad in (1.0, True, "1", None, [1]):
            def edit(payload, bad=bad):
                payload["codes"][0][-1] = bad
            stale(edit)

    def test_every_code_below_its_cardinality(self, stale):
        for pos, bad in ((0, 3), (1, 2), (3, -1)):
            def edit(payload, pos=pos, bad=bad):
                payload["codes"][pos][0] = bad
            stale(edit)

    def test_every_arrays_length(self, stale):
        def short(key, *path):
            def edit(payload):
                target = payload[key]
                for step in path:
                    target = target[step]
                target.pop()
            return edit

        stale(short("codes", 2))
        stale(short("codes"))                # a parameter's array missing
        stale(short("shape_ids"))
        stale(short("columns", "luts"))
        stale(lambda payload: payload["codes"].append(list(payload["codes"][0])))

    def test_every_shape_id(self, stale):
        for bad in (3, -1, True, 1.0, None):  # the file has two shapes
            def edit(payload, bad=bad):
                payload["shape_ids"][0] = bad
            stale(edit)

    def test_every_shape_names_the_columns(self, stale):
        stale(lambda payload: payload["shapes"][0].append("unknown"))
        stale(lambda payload: payload["shapes"][0].append(payload["shapes"][0][0]))
        stale(lambda payload: payload["shapes"].append(list(payload["shapes"][0])))
        stale(lambda payload: payload["shapes"][0].append(7))
        stale(lambda payload: payload["columns"].update(spare=[None] * len(payload["shape_ids"])))

    def test_a_null_where_a_shape_lacks_a_metric(self, stale):
        def edit(payload):
            slot = payload["shape_ids"].index(0)  # an infeasible row
            payload["columns"]["luts"][slot] = 1.0
        stale(edit)

    def test_no_design_point_twice(self, stale):
        def edit(payload):
            for column in payload["codes"]:
                column[1] = column[0]
        stale(edit)


class TestWrongShape:
    """A payload that is not a column dataset object raises
    ``DatasetError``, whatever member it breaks at."""

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"format": FILE_FORMAT},
        {"name": ["faults"]},
        {"codes": {}},
        {"codes": ["0", "1", "0", "1"]},
        {"shapes": None},
        {"shape_ids": "1"},
        {"columns": []},
    ])
    def test_raises_dataset_error(self, stale, payload):
        if type(payload) is dict and "format" not in payload:
            stale(lambda good: good.update(payload))  # one member replaced
        else:
            stale(replace=payload)


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


def assert_serves(dataset: Dataset, space, rows: dict) -> None:
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
    assert dataset.content_fingerprint() == reference_fingerprint(rows)


class TestColumnsServeThePerRowRows:
    @_SETTINGS
    @given(datasets())
    def test_a_loaded_dataset(self, tmp_path, case):
        space, rows = case
        loaded = saved_and_loaded(recorded(space, rows), tmp_path / "d.json.gz")
        assert_serves(loaded, space, recorded_rows(space, rows))

    @_SETTINGS
    @given(datasets())
    def test_a_recorded_dataset(self, case):
        space, rows = case
        assert_serves(recorded(space, rows), space, recorded_rows(space, rows))

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
