"""Characterized-design datasets.

The paper's methodology (Section 4.1) characterizes each IP's design space
*offline* ("a dedicated cluster with 200+ cores running non-stop for about 2
weeks") and runs every search against the resulting dataset. A
:class:`Dataset` is that artifact: one metrics row per characterized design
point, with gzipped JSON persistence and the summary statistics the
evaluation needs (reference optimum, percentile thresholds,
quality-of-results scoring).

A dataset holds its rows as metric columns, not as row dicts: one column
per metric name and one ``{mixed-radix position: slot}`` index in row
order. Row dicts are built only on request, with the keys, key order,
values and value types of the row that was loaded or recorded.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import zlib
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import is_not, mul, not_
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..core.errors import DatasetError, InfeasibleDesignError
from ..core.fileio import dumps, dumps_sorted
from ..core.fitness import Objective
from ..core.genome import Genome
from ..core.space import DesignSpace

__all__ = ["Dataset"]


#: Rows per sha1 update of the content fingerprint: bounds the joined string.
_FINGERPRINT_CHUNK = 4096

#: Shape id of an infeasible row; ``Dataset._shapes[0]`` is None.
_INFEASIBLE = 0

#: The ``format`` marker of a dataset file; a file without it is not one.
FILE_FORMAT = "nautilus-dataset-columns-1"


class Dataset:
    """All characterized design points of one space.

    Each row maps a design point to a metrics dict. Infeasible points
    (evaluator raised :class:`InfeasibleDesignError`) are recorded with
    ``None`` so a replayed search sees the same failures the
    characterization run did.

    Storage: a design point is its mixed-radix position (its code vector
    read as one number, the last parameter fastest); ``_index`` maps each
    position to its slot, in row order. A slot's metric names, in order,
    are its shape (``_shapes[_shape_ids[slot]]``), and each metric value
    sits at the slot in that metric's column: an ``array('d')`` while every
    value in it is a float, a list holding the values as given otherwise.
    """

    def __init__(self, name: str, space: DesignSpace):
        self.name = name
        self.space = space
        strides = [1]
        for cardinality in reversed(space.codec.cardinalities[1:]):
            strides.append(strides[-1] * cardinality)
        self._strides = tuple(reversed(strides))
        self._index: dict[int, int] = {}
        self._shape_ids = array("I")
        self._shapes: list[tuple | None] = [None]
        self._shape_of: dict[tuple, int] = {}
        self._columns: dict[Any, array | list] = {}
        self._fingerprint: str | None = None
        #: (objective, its sorted non-NaN raw values, feasible rows) for
        #: the last objective :meth:`score_percent` was asked about.
        self._scored: tuple[Objective, list[float], int] | None = None

    # -- positions and rows -----------------------------------------------------------

    def _position(self, config: Genome | Mapping[str, Any]) -> int:
        """The mixed-radix position of a point; -1 for a genome whose
        values are not in this space's domains."""
        codec = self.space.codec
        if isinstance(config, Genome):
            if config.space is self.space:
                codes = config.codes
            else:
                name, values = config.key
                if name != self.space.name or len(values) != codec.num_params:
                    return -1
                try:
                    codes = list(map(dict.__getitem__, codec.index_maps, values))
                except (KeyError, TypeError):
                    return -1
        else:
            codes = codec.encode_mapping(config)
        return sum(map(mul, codes, self._strides))

    def _key(self, position: int) -> tuple:
        """The genome cache key of the point at a position."""
        frozen = self.space.codec.frozen
        values = [
            frozen[pos][position // stride % len(frozen[pos])]
            for pos, stride in enumerate(self._strides)
        ]
        return (self.space.name, tuple(values))

    def _metrics(self, slot: int) -> dict[str, Any] | None:
        """A fresh metrics dict for a slot; None for an infeasible row."""
        shape = self._shapes[self._shape_ids[slot]]
        if shape is None:
            return None
        columns = self._columns
        return {name: columns[name][slot] for name in shape}

    def _put(self, position: int, metrics: dict[str, Any] | None) -> None:
        """Store a row; a later row for a known position replaces it at the
        first row's slot."""
        shape_ids = self._shape_ids
        slot = self._index.setdefault(position, len(shape_ids))
        columns = self._columns
        if slot == len(shape_ids):
            shape_ids.append(_INFEASIBLE)
            for column in columns.values():
                column.append(0.0 if type(column) is array else None)
        if metrics is None:
            shape_ids[slot] = _INFEASIBLE
            return
        shape = tuple(metrics)
        shape_id = self._shape_of.get(shape)
        if shape_id is None:
            shape_id = self._shape_of[shape] = len(self._shapes)
            self._shapes.append(shape)
        shape_ids[slot] = shape_id
        for name, value in metrics.items():
            column = columns.get(name)
            if column is None:
                column = columns[name] = array("d", bytes(8 * len(shape_ids)))
            if type(column) is array and type(value) is not float:
                column = columns[name] = column.tolist()
            column[slot] = value

    # -- population ----------------------------------------------------------------

    def record(
        self, config: Genome | Mapping[str, Any], metrics: Mapping[str, float] | None
    ) -> None:
        """Store the metrics (or infeasibility marker) for one point."""
        position = self._position(config)
        if position < 0:
            raise DatasetError(
                f"design point {config!r} is not in space {self.space.name!r}"
            )
        self._put(position, dict(metrics) if metrics is not None else None)
        self._fingerprint = None  # rows changed; recompute lazily
        self._scored = None

    def content_fingerprint(self) -> str:
        """Stable hash of the dataset's rows (order-independent).

        Two datasets with identical characterized points share a
        fingerprint, so persistent evaluation caches built against one are
        valid for the other; any re-characterization that changes a metric
        invalidates it.
        """
        if self._fingerprint is None:
            # The bytes are fixed: store file names, fleet task ids and every
            # eval cache and archive on disk derive from them. They are each
            # row's key repr and its metrics as ``json.dumps(..., sort_keys=
            # True)`` writes them, rows sorted by key repr, hashed a few
            # thousand rows at a time.
            reprs = self._key_reprs()
            order = sorted(range(len(reprs)), key=reprs.__getitem__)
            metrics = self._sorted_json()
            digest = hashlib.sha1()
            for start in range(0, len(order), _FINGERPRINT_CHUNK):
                chunk = order[start:start + _FINGERPRINT_CHUNK]
                digest.update(
                    "".join([reprs[slot] + metrics(slot) for slot in chunk])
                    .encode("utf-8")
                )
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    def _key_reprs(self) -> list[str]:
        """``repr(key)`` of every row, by slot: the reprs of each
        parameter's frozen values, joined as ``repr`` joins a tuple."""
        frozen = self.space.codec.frozen
        columns = []
        positions = list(self._index)
        for pos, stride in enumerate(self._strides):
            reprs = [repr(value) for value in frozen[pos]]
            cardinality = len(reprs)
            columns.append([reprs[p // stride % cardinality] for p in positions])
        head = f"({self.space.name!r}, ("
        tail = ",))" if len(columns) == 1 else "))"
        return [head + ", ".join(values) + tail for values in zip(*columns)]

    def _sorted_json(self):
        """A slot's metrics as ``json.dumps(..., sort_keys=True)`` writes
        them. A shape whose metrics are all str-named float columns with
        finite values fills a template with each float's ``repr``, the
        text json writes for it; any other row goes through the encoder."""
        templates: dict[int, tuple[str, tuple]] = {}
        for shape_id, shape in enumerate(self._shapes):
            if shape is None or not all(type(name) is str for name in shape):
                continue
            names = sorted(shape)
            columns = tuple(self._columns[name] for name in names)
            if all(
                type(column) is array and all(map(math.isfinite, column))
                for column in columns
            ):
                fields = ", ".join(
                    dumps_sorted(name).replace("%", "%%") + ": %r" for name in names
                )
                templates[shape_id] = ("{" + fields + "}", columns)
        shape_ids = self._shape_ids

        def metrics_json(slot: int) -> str:
            template = templates.get(shape_ids[slot])
            if template is None:
                return dumps_sorted(self._metrics(slot))
            text, columns = template
            return text % tuple([column[slot] for column in columns])

        return metrics_json

    @classmethod
    def characterize(
        cls,
        space: DesignSpace,
        evaluator,
        name: str | None = None,
        batch_size: int = 256,
    ) -> "Dataset":
        """Evaluate every structurally feasible point of a space.

        This is the reproduction's stand-in for the paper's two-week cluster
        run; the miniature flow makes it a seconds-to-minutes job on one
        core. The space is streamed through an
        :class:`~repro.core.evalstack.EvaluationStack` in ``batch_size``
        chunks.
        """
        from ..core.evalstack import EvaluationStack

        stack = EvaluationStack(evaluator)
        dataset = cls(name or space.name, space)
        batch: list[Genome] = []

        def flush() -> None:
            for genome, outcome in zip(batch, stack.evaluate_many(batch)):
                if isinstance(outcome, InfeasibleDesignError):
                    metrics = None
                elif isinstance(outcome, Exception):
                    raise outcome
                else:
                    metrics = outcome
                dataset.record(genome, metrics)
            batch.clear()

        for genome in space.iter_genomes():
            batch.append(genome)
            if len(batch) >= batch_size:
                flush()
        flush()
        if not dataset._index:
            raise DatasetError(f"space {space.name!r} produced no rows")
        return dataset

    # -- access --------------------------------------------------------------------

    def lookup(self, config: Genome | Mapping[str, Any]) -> dict[str, float]:
        """A fresh metrics dict for a point.

        Raises:
            DatasetError: The point was never characterized.
            InfeasibleDesignError: The point was characterized as
                infeasible.
        """
        slot = self._index.get(self._position(config))
        if slot is None:
            raise DatasetError(
                f"design point not characterized in dataset {self.name!r}"
            )
        row = self._metrics(slot)
        if row is None:
            raise InfeasibleDesignError(
                f"design point recorded as infeasible in dataset {self.name!r}"
            )
        return row

    def __len__(self) -> int:
        return len(self._index)

    @property
    def feasible_count(self) -> int:
        return len(self._shape_ids) - self._shape_ids.count(_INFEASIBLE)

    def iter_rows(self) -> Iterator[tuple[tuple, dict[str, Any] | None]]:
        """Yield ``(genome key, metrics dict or None)`` for every row, in
        row order; each metrics dict is fresh."""
        for position, slot in self._index.items():
            yield self._key(position), self._metrics(slot)

    def iter_metrics(self) -> Iterator[dict[str, float]]:
        """Yield the metric dicts of all feasible rows, in row order."""
        shape_ids = self._shape_ids
        return (
            self._metrics(slot)
            for slot in range(len(shape_ids))
            if shape_ids[slot] != _INFEASIBLE
        )

    def metric_values(self, objective: Objective) -> list[float]:
        """All raw objective values over feasible rows."""
        return [objective.raw(row) for row in self.iter_metrics()]

    # -- statistics -----------------------------------------------------------------

    def best_value(self, objective: Objective) -> float:
        """The reference optimum of the space for an objective."""
        values = self.metric_values(objective)
        if not values:
            raise DatasetError(f"dataset {self.name!r} has no feasible rows")
        return max(values) if objective.maximizing else min(values)

    def percentile_value(self, objective: Objective, top_percent: float) -> float:
        """Raw value at the boundary of the top ``top_percent`` of designs.

        ``top_percent=1.0`` returns the threshold a design must beat to be
        "within the top 1%" — the paper's Figure 3/4 quality bar.
        """
        values = sorted(self.metric_values(objective), reverse=objective.maximizing)
        if not values:
            raise DatasetError(f"dataset {self.name!r} has no feasible rows")
        index = max(0, math.ceil(len(values) * top_percent / 100.0) - 1)
        return values[index]

    def score_percent(self, objective: Objective, raw_value: float) -> float:
        """Percentile rank of a raw value among all designs (100 = best).

        This is the "Design Solution Score (in %)" of the paper's Figure 3:
        the share of feasible rows whose raw value the given one matches or
        beats. A NaN beats nothing, and a NaN row is beaten by nothing. The
        sorted raw values of the last objective asked are kept, so a
        Figure 3 curve costs one sort, not one scan per point.
        """
        scored = self._scored
        if scored is None or scored[0] is not objective:
            values = self.metric_values(objective)
            if not values:
                raise DatasetError(f"dataset {self.name!r} has no feasible rows")
            ordered = sorted(value for value in values if value == value)
            scored = self._scored = (objective, ordered, len(values))
        __, ordered, total = scored
        if raw_value != raw_value:
            beaten = 0
        elif objective.maximizing:
            beaten = bisect_right(ordered, raw_value)
        else:
            beaten = len(ordered) - bisect_left(ordered, raw_value)
        return 100.0 * beaten / total

    # -- persistence ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the dataset as one gzipped JSON column file.

        The file holds the space's parameters with their domains in code
        order and, for the rows in slot order, one code array per
        parameter, one shape id per row (0 for an infeasible row, else one
        more than the index of the row's metric names in ``shapes``) and
        one value array per metric, null where the row's shape lacks the
        metric. The gzip header is fixed (no time, no file name), so an
        unchanged dataset saves to the same bytes with the same zlib.

        Raises:
            DatasetError: A metric name is not a string (a JSON object key).
        """
        if not all(type(name) is str for name in self._columns):
            raise DatasetError(
                f"dataset {self.name!r} has a metric name that is not a string"
            )
        codec = self.space.codec
        positions = list(self._index)
        columns = {name: [None] * len(positions) for name in self._columns}
        for slot, shape_id in enumerate(self._shape_ids):
            for name in self._shapes[shape_id] or ():
                columns[name][slot] = self._columns[name][slot]
        payload = {
            "format": FILE_FORMAT,
            "name": self.name,
            "space": self.space.name,
            "params": list(codec.names),
            "domains": list(map(list, codec.domains)),
            "codes": [
                [position // stride % cardinality for position in positions]
                for stride, cardinality in zip(self._strides, codec.cardinalities)
            ],
            "shapes": list(map(list, self._shapes[1:])),
            "shape_ids": self._shape_ids.tolist(),
            "columns": columns,
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # zlib writes the gzip header with no time and no file name; its
        # OS byte (like gzip.compress's, which is 255 from Python 3.13 on)
        # depends on the build, so it is set to 3 (Unix) here.
        stream = zlib.compress(dumps(payload).encode("utf-8"), 9, wbits=31)
        path.write_bytes(stream[:9] + b"\x03" + stream[10:])

    @classmethod
    def load(cls, path: str | Path, space: DesignSpace) -> "Dataset":
        """Load a dataset saved by :meth:`save`, checked against a space.

        The whole file is checked before a row is used: its format, space,
        parameter names and order, each domain value for value with its
        type (``true`` is not ``1``), every code an ``int`` below its
        parameter's cardinality, every shape id, every array's length, a
        null wherever a row's shape lacks a metric, and no design point
        twice. Keys are built from the space's own values.

        Raises:
            DatasetError: The file is not a column file of this space (a
                row-format file included) or fails one of the checks.
        """
        path = Path(path)
        payload = json.loads(gzip.decompress(path.read_bytes()))
        if type(payload) is not dict or payload.get("format") != FILE_FORMAT:
            raise DatasetError(f"dataset {path} is not a {FILE_FORMAT} file")
        if payload.get("space") != space.name:
            raise DatasetError(
                f"dataset {path} was characterized for space "
                f"{payload.get('space')!r}, not {space.name!r}"
            )
        codec = space.codec
        if payload.get("params") != list(codec.names):
            raise DatasetError(f"dataset {path} has mismatched parameter names")
        # JSON text tells 1, 1.0 and true apart, as == does not.
        if dumps(payload.get("domains")) != dumps(list(map(list, codec.domains))):
            raise DatasetError(f"dataset {path} has mismatched parameter domains")
        name, codes, shapes, shape_ids, columns = map(
            payload.get, ("name", "codes", "shapes", "shape_ids", "columns")
        )
        if not (
            type(name) is str and type(codes) is type(shapes) is list
            and type(shape_ids) is list and type(columns) is dict
            and len(codes) == codec.num_params
        ):
            raise DatasetError(f"dataset {path} does not hold a column dataset")
        rows = len(shape_ids)
        kinds: list[tuple | None] = [None]
        for shape in shapes:
            if (
                type(shape) is not list
                or not all(type(metric) is str for metric in shape)
                or len(set(shape)) != len(shape)
            ):
                raise DatasetError(f"dataset {path} has a malformed metric shape")
            kinds.append(tuple(shape))
        if len(set(kinds)) != len(kinds) or set(columns) != set().union(*kinds[1:]):
            raise DatasetError(
                f"dataset {path} has shapes that do not name its columns"
            )
        if not _all_ints(shape_ids, rows):
            raise DatasetError(f"dataset {path} has a bad shape id array")
        used = set(shape_ids)
        if not used <= set(range(len(kinds))):
            raise DatasetError(f"dataset {path} has a shape id without a shape")
        dataset = cls(name, space)
        # Per parameter, {code: code * stride}: a position is the sum of
        # its codes' offsets, and a code outside the domain has none.
        offsets = []
        for param, column, stride, cardinality in zip(
            codec.names, codes, dataset._strides, codec.cardinalities
        ):
            if not _all_ints(column, rows):
                raise DatasetError(f"dataset {path} has a bad code array for {param!r}")
            table = {code: code * stride for code in range(cardinality)}
            offsets.append(map(table.__getitem__, column))
        try:
            positions = list(map(sum, zip(*offsets)))
        except KeyError:
            raise DatasetError(f"dataset {path} has a code beyond its domain") from None
        index = dict(zip(positions, range(rows)))
        if len(index) != rows:
            raise DatasetError(f"dataset {path} holds a design point twice")
        for metric, values in columns.items():
            if type(values) is not list or len(values) != rows:
                raise DatasetError(f"dataset {path} has a bad column for {metric!r}")
            lacking = [shape is None or metric not in shape for shape in kinds]
            if any(lacking[shape_id] for shape_id in used):
                absent = list(map(lacking.__getitem__, shape_ids))
                if any(map(is_not, compress(values, absent), repeat(None))):
                    raise DatasetError(
                        f"dataset {path} has a {metric!r} value in a row without it"
                    )
                if set(map(type, compress(values, map(not_, absent)))) <= {float}:
                    columns[metric] = array(
                        "d", [0.0 if value is None else value for value in values]
                    )
            elif set(map(type, values)) <= {float}:
                columns[metric] = array("d", values)
        dataset._index = index
        dataset._shape_ids = array("I", shape_ids)
        dataset._shapes = kinds
        dataset._shape_of = dict(zip(kinds[1:], range(1, len(kinds))))
        dataset._columns = columns
        return dataset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset({self.name!r}, {len(self)} rows, "
            f"{self.feasible_count} feasible)"
        )


def _all_ints(values: Any, length: int) -> bool:
    """Whether ``values`` is a list of ``length`` ints (a bool is not one)."""
    return (
        type(values) is list
        and len(values) == length
        and set(map(type, values)) <= {int}
    )
