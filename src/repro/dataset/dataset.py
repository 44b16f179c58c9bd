"""Characterized-design datasets.

The paper's methodology (Section 4.1) characterizes each IP's design space
*offline* ("a dedicated cluster with 200+ cores running non-stop for about 2
weeks") and runs every search against the resulting dataset. A
:class:`Dataset` is that artifact: one metrics dict per feasible design
point, with gzipped JSON persistence and the summary statistics the evaluation
needs (reference optimum, percentile thresholds, quality-of-results
scoring).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from itertools import repeat
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..core.errors import DatasetError, InfeasibleDesignError
from ..core.fileio import dumps_sorted
from ..core.fitness import Objective
from ..core.genome import Genome
from ..core.space import DesignSpace

__all__ = ["Dataset"]


def _freeze_config(space: DesignSpace, config: Mapping[str, Any]) -> tuple:
    if isinstance(config, Genome):
        return config.key
    # Validating encode straight to the cache key — the codec's frozen
    # tables skip the Genome allocation per row, which matters when loading
    # a 30k-row characterized dataset.
    codec = space.codec
    return codec.genome_key(codec.encode_mapping(config))


#: Rows per sha1 update of the content fingerprint: bounds the joined string.
_FINGERPRINT_CHUNK = 4096


def _own_metrics(metrics: Any) -> dict[str, float] | None:
    """A parsed row's metrics as :meth:`Dataset.record` stores them; a
    parsed JSON object is kept, not copied."""
    if type(metrics) is dict or metrics is None:
        return metrics
    return dict(metrics)


class Dataset:
    """All characterized design points of one space.

    Rows map genome keys to metric dicts. Infeasible points (evaluator
    raised :class:`InfeasibleDesignError`) are recorded with ``None`` so a
    replayed search sees the same failures the characterization run did.
    """

    def __init__(self, name: str, space: DesignSpace):
        self.name = name
        self.space = space
        self._rows: dict[tuple, dict[str, float] | None] = {}
        self._fingerprint: str | None = None

    # -- population ----------------------------------------------------------------

    def record(
        self, config: Genome | Mapping[str, Any], metrics: Mapping[str, float] | None
    ) -> None:
        """Store the metrics (or infeasibility marker) for one point."""
        key = _freeze_config(self.space, config)
        self._rows[key] = dict(metrics) if metrics is not None else None
        self._fingerprint = None  # rows changed; recompute lazily

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
            # thousand rows at a time. The reprs are made again per chunk
            # rather than kept from the sort, so the sort's own transient
            # stays the fingerprint's peak memory.
            rows = self._rows
            keys = sorted(rows, key=repr)
            digest = hashlib.sha1()
            for start in range(0, len(keys), _FINGERPRINT_CHUNK):
                chunk = keys[start:start + _FINGERPRINT_CHUNK]
                digest.update(
                    "".join([repr(key) + dumps_sorted(rows[key]) for key in chunk])
                    .encode("utf-8")
                )
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

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
        if not dataset._rows:
            raise DatasetError(f"space {space.name!r} produced no rows")
        return dataset

    # -- access --------------------------------------------------------------------

    def lookup(self, config: Genome | Mapping[str, Any]) -> dict[str, float] | None:
        """Metrics for a point; None marks a characterized-infeasible point.

        Raises:
            DatasetError: The point was never characterized.
        """
        key = _freeze_config(self.space, config)
        try:
            row = self._rows[key]
        except KeyError:
            raise DatasetError(
                f"design point not characterized in dataset {self.name!r}"
            ) from None
        if row is None:
            raise InfeasibleDesignError(
                f"design point recorded as infeasible in dataset {self.name!r}"
            )
        return row

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def feasible_count(self) -> int:
        return sum(1 for row in self._rows.values() if row is not None)

    def iter_metrics(self) -> Iterator[dict[str, float]]:
        """Yield the metric dicts of all feasible rows."""
        return (row for row in self._rows.values() if row is not None)

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

        This is the "Design Solution Score (in %)" of the paper's Figure 3.
        """
        values = self.metric_values(objective)
        if not values:
            raise DatasetError(f"dataset {self.name!r} has no feasible rows")
        if objective.maximizing:
            beaten = sum(1 for v in values if v <= raw_value)
        else:
            beaten = sum(1 for v in values if v >= raw_value)
        return 100.0 * beaten / len(values)

    # -- persistence ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the dataset as gzipped JSON (config values + metrics)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.space.param_names
        rows = []
        for key, metrics in self._rows.items():
            __, values = key
            rows.append({"config": dict(zip(names, values)), "metrics": metrics})
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
        """Load a dataset saved by :meth:`save`, validated against a space."""
        path = Path(path)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("space") != space.name:
            raise DatasetError(
                f"dataset {path} was characterized for space "
                f"{payload.get('space')!r}, not {space.name!r}"
            )
        if tuple(payload.get("params", ())) != space.param_names:
            raise DatasetError(f"dataset {path} has mismatched parameter names")
        dataset = cls(payload.get("name", space.name), space)
        rows = payload["rows"]
        keys = space.codec.mapping_keys([row["config"] for row in rows])
        # The parsed metrics dicts are private to this call, so they are
        # kept rather than copied as record() copies; a later duplicate row
        # wins at the first row's position, as with record().
        dataset._rows = dict(zip(
            zip(repeat(space.name), keys),
            [_own_metrics(row["metrics"]) for row in rows],
        ))
        return dataset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset({self.name!r}, {len(self)} rows, "
            f"{self.feasible_count} feasible)"
        )
