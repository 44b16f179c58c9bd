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
from array import array
from bisect import bisect_left, bisect_right
from operator import itemgetter, mul
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from ..core.errors import DatasetError, GenomeError, InfeasibleDesignError
from ..core.fileio import dumps_sorted
from ..core.fitness import Objective
from ..core.genome import Genome
from ..core.space import DesignSpace

__all__ = ["Dataset"]


#: Rows per sha1 update of the content fingerprint: bounds the joined string.
_FINGERPRINT_CHUNK = 4096

#: Shape id of an infeasible row; ``Dataset._shapes[0]`` is None.
_INFEASIBLE = 0

#: What the load hook returns for a row it folded into the columns.
_FOLDED = object()


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
        """Write the dataset as gzipped JSON (config values + metrics)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.space.param_names
        rows = [
            {"config": dict(zip(names, values)), "metrics": metrics}
            for (__, values), metrics in self.iter_rows()
        ]
        payload = {
            "name": self.name,
            "space": self.space.name,
            "params": list(names),
            "rows": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path: str | Path, space: DesignSpace) -> "Dataset":
        """Load a dataset saved by :meth:`save`, validated against a space.

        Each row object is folded into the columns as the parser completes
        it (:func:`_row_fold`), so the parsed rows never all exist at once.

        Raises:
            DatasetError: The file was saved for another space or its
                payload has the wrong shape.
            GenomeError: A row's config is not a point of the space (the
                first such row's error).
        """
        path = Path(path)
        dataset = cls(space.name, space)
        hook, finish = _row_fold(dataset)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            payload = json.load(fh, object_hook=hook)
        folded, error = finish()
        if type(payload) is not dict:
            raise DatasetError(f"dataset {path} does not hold a dataset object")
        if payload.get("space") != space.name:
            raise DatasetError(
                f"dataset {path} was characterized for space "
                f"{payload.get('space')!r}, not {space.name!r}"
            )
        if tuple(payload.get("params", ())) != space.param_names:
            raise DatasetError(f"dataset {path} has mismatched parameter names")
        rows = payload.get("rows")
        if (
            type(rows) is not list
            or folded != len(rows)
            or rows.count(_FOLDED) != len(rows)
        ):
            raise DatasetError(
                f"dataset {path} does not hold a list of "
                '{"config": ..., "metrics": ...} rows'
            )
        if error is not None:
            raise error
        dataset.name = payload.get("name", space.name)
        return dataset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset({self.name!r}, {len(self)} rows, "
            f"{self.feasible_count} feasible)"
        )


#: Rows the load hook buffers before moving them into their columns.
_PENDING_ROWS = 1024


def _row_fold(dataset: Dataset) -> tuple[Callable[[dict], Any], Callable[[], tuple]]:
    """The ``object_hook`` of one :meth:`Dataset.load`, and its ``finish``.

    The parser completes a row's config and metrics objects, then the row
    object itself, and hands each to the hook as it completes. A row (an
    object of exactly the keys ``config`` and ``metrics``, whose config is
    an object) is stored in the dataset and replaced by :data:`_FOLDED`;
    every other object is returned as parsed.

    Rows stream through a buffer. While the last row stored left the
    columns exactly its shape's float columns, a new row of as many
    metrics takes the next slot and its metric names and values go to the
    pending lists; ``flush`` checks, a thousand rows at a time, that every
    pending row has that shape and only floats, then moves the values into
    the columns. A pending row that fails the check is stored as given,
    like any other row (:meth:`Dataset._put`). ``finish`` flushes and
    returns ``(rows folded, first error)``.

    Errors keep the precedence of validating every config before reading
    any metrics: the first config that fails to encode wins, and nothing
    after it is stored. A metrics value that ``dict()`` rejects is held
    until the configs after it are validated too.
    """
    codec = dataset.space.codec
    num_params = codec.num_params
    # One name more than the params: itemgetter of a single name returns
    # the bare value, not a tuple. map() stops at the last param.
    values_of = itemgetter(*codec.names, *codec.names[:1])
    strides = dataset._strides
    #: Per param, {frozen value: code * stride}: a position is their sum.
    offsets = tuple(
        {value: code * stride for value, code in index_map.items()}
        for index_map, stride in zip(codec.index_maps, strides)
    )
    getitem = dict.__getitem__
    index = dataset._index
    shape_ids = dataset._shape_ids
    #: (shape, shape id, its columns) while the columns are exactly that
    #: shape's float columns, as the last row stored left them.
    lane: tuple[tuple, int, list] | None = None
    width = -1
    positions: list[int] = []
    names: list[Any] = []
    values: list[Any] = []
    rows = 0
    config_error: GenomeError | None = None
    metrics_error: Exception | None = None

    def flush() -> None:
        nonlocal lane, width
        if not positions:
            return
        shape, __, columns = lane
        if names == list(shape) * len(positions) and set(map(type, values)) <= {float}:
            for offset, column in enumerate(columns):
                column.fromlist(values[offset::width])
        else:
            for column in dataset._columns.values():
                column.fromlist([0.0] * len(positions))
            for row, position in enumerate(positions):
                span = slice(row * width, (row + 1) * width)
                dataset._put(position, dict(zip(names[span], values[span])))
            lane, width = None, -1
        positions.clear()
        names.clear()
        values.clear()

    def store(position: int, metrics: dict | None) -> None:
        nonlocal lane, width
        flush()
        dataset._put(position, metrics)
        if metrics is not None:
            shape = tuple(metrics)
            columns = dataset._columns
            lane, width = None, -1
            if tuple(columns) == shape and all(
                type(column) is array for column in columns.values()
            ):
                lane = (shape, dataset._shape_of[shape], list(columns.values()))
                width = len(shape)

    def hook(obj: dict) -> Any:
        nonlocal rows, config_error, metrics_error
        if len(obj) != 2 or "config" not in obj or "metrics" not in obj:
            return obj
        config = obj["config"]
        if type(config) is not dict:
            return obj
        rows += 1
        if config_error is not None:
            return _FOLDED
        try:
            if len(config) != num_params:
                raise KeyError
            position = sum(map(getitem, offsets, values_of(config)))
        except (KeyError, TypeError):
            # The codec's validating encoder raises the config's
            # GenomeError, or freezes a list spelling of a tuple value.
            try:
                position = sum(map(mul, codec.encode_mapping(config), strides))
            except GenomeError as exc:
                config_error = exc
                return _FOLDED
        if metrics_error is not None:
            return _FOLDED
        metrics = obj["metrics"]
        if type(metrics) is dict and len(metrics) == width and position not in index:
            index[position] = len(shape_ids)
            shape_ids.append(lane[1])
            positions.append(position)
            names.extend(metrics)
            values.extend(metrics.values())
            if len(positions) == _PENDING_ROWS:
                flush()
            return _FOLDED
        if metrics is not None and type(metrics) is not dict:
            try:
                metrics = dict(metrics)
            except (TypeError, ValueError) as exc:
                metrics_error = exc
                return _FOLDED
        store(position, metrics)
        return _FOLDED

    def finish() -> tuple[int, Exception | None]:
        flush()
        return rows, config_error or metrics_error

    return hook, finish
