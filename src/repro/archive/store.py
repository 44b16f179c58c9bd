"""The cross-campaign design archive — every evaluated point, queryable.

The paper's economics are per-campaign: hints make *one* search cheap. But a
daemon that has served many campaigns has already paid for thousands of
synthesis results, and today each new campaign starts cold. The archive
turns that history into a knowledge base: queries over the one store of
paid-for evaluations (:class:`~repro.core.evalstack.PersistentCache`, whose
rows carry the campaign that paid for them), code-addressable via the
space's :class:`~repro.core.codec.SpaceCodec`, answering the retrieval
questions new searches ask:

* top-k designs by an objective (warm-start seeding),
* scored rows in code space, which
  :func:`~repro.archive.guidance.mine_hints` turns into hints for
  :class:`~repro.archive.guidance.ArchiveGuidance`.

The archive opens no file itself: the store owns the file layout, the
first-writer-wins index, torn-line tolerance and the lock, so a daemon
run with ``--eval-cache --archive`` keeps one directory whose rows serve
both cache hits and these queries.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, TYPE_CHECKING

from ..core.errors import EvaluationError
from ..core.evalstack import PersistentCache

if TYPE_CHECKING:  # pragma: no cover
    from ..core.fitness import Objective
    from ..core.genome import Genome
    from ..core.space import DesignSpace

__all__ = ["DesignArchive"]


class DesignArchive:
    """Retrieval queries over one store of paid-for evaluations.

    Args:
        root: The store's directory (see
            :class:`~repro.core.evalstack.PersistentCache`); ``self.store``
            is the store itself, which an evaluation stack may also use as
            its eval cache.
        registry: Optional duck-typed metrics registry (a
            :class:`repro.obs.registry.MetricsRegistry` in the daemon);
            when given, rows written through the archive increment the
            ``nautilus_archive_rows_total`` counter.
    """

    def __init__(self, root: str | Path, registry=None):
        self.store = PersistentCache(root)
        self.root = self.store.root
        self._rows_counter = None
        if registry is not None:
            self._rows_counter = registry.counter(
                "nautilus_archive_rows_total",
                "Design points appended to the cross-campaign archive.",
            )

    def _count(self, written: int) -> int:
        if written and self._rows_counter is not None:
            self._rows_counter.inc(written)
        return written

    # -- recording --------------------------------------------------------------

    def record_many(
        self, outcomes, fingerprint: str, campaign: str = ""
    ) -> int:
        """Record ``(genome, outcome)`` pairs; returns rows actually written.

        The store's policy: metrics dicts and
        :class:`~repro.core.errors.InfeasibleDesignError` outcomes are
        recorded (the failed synthesis was knowledge too); other exceptions
        are transient and skipped. Already-stored designs are skipped —
        the first campaign to evaluate a point owns its row.
        """
        return self._count(self.store.put_many(outcomes, fingerprint, campaign))

    def record(
        self, genome: "Genome", outcome, fingerprint: str, campaign: str = ""
    ) -> bool:
        """Record one outcome; True when a new row was written."""
        return self.record_many([(genome, outcome)], fingerprint, campaign) == 1

    def import_cache(self, cache_root: str | Path, campaign: str = "import") -> dict:
        """Copy the rows of another store directory that the archive lacks.

        ``cache_root`` is any store directory: an old ``--eval-cache``
        directory or another archive. A row keeps its campaign; a row
        without one (an eval-cache row) is recorded under ``campaign``.
        Torn and corrupt lines are skipped. Returns ``{"files",
        "imported", "skipped"}``.
        """
        source = PersistentCache(cache_root)
        report = {"files": 0, "imported": 0, "skipped": 0}
        for space_name, params, fingerprint in source.files():
            rows = source.rows(space_name, params, fingerprint)
            written = self._count(
                self.store.put_rows(
                    space_name,
                    params,
                    fingerprint,
                    (
                        (key, metrics, origin or campaign)
                        for key, (metrics, origin) in rows
                    ),
                )
            )
            report["files"] += 1
            report["imported"] += written
            report["skipped"] += len(rows) - written
        return report

    # -- indexed access ----------------------------------------------------------

    def entries(self, space: "DesignSpace", fingerprint: str) -> int:
        """Number of archived rows for one (space, fingerprint)."""
        return self.store.entries(space, fingerprint)

    def scored_rows(
        self, space: "DesignSpace", fingerprint: str, objective: "Objective"
    ) -> list[tuple[tuple[int, ...], float, dict[str, Any]]]:
        """Feasible rows as ``(codes, internal score, row)`` triples.

        Scores come from :meth:`Objective.score` — the engine's internal
        maximized orientation — so every consumer (top-k, hint mining)
        ranks consistently regardless of the metric's direction. Rows whose
        values fell out of the live space's domains (the IP generator
        evolved) are silently excluded — they stay on disk, but no
        retrieval path can hand a stale design to a search.
        """
        index_maps = space.codec.index_maps
        out = []
        for row_key, (metrics, campaign) in self.store.rows(
            space.name, space.param_names, fingerprint
        ):
            if metrics is None or len(row_key) != len(index_maps):
                continue
            codes = tuple(
                index_maps[pos].get(value) for pos, value in enumerate(row_key)
            )
            if None in codes:
                continue
            try:
                score = objective.score(metrics)
            except (EvaluationError, KeyError, TypeError, ZeroDivisionError):
                continue  # row predates this metric; not comparable
            row = {"values": list(row_key), "metrics": metrics, "campaign": campaign}
            out.append((codes, score, row))
        return out

    def top_k(
        self,
        space: "DesignSpace",
        fingerprint: str,
        objective: "Objective",
        k: int = 10,
    ) -> list[dict[str, Any]]:
        """The k best archived designs for an objective, best first.

        Ties break on the code vector, so the ranking is deterministic
        across processes and reload orders.
        """
        rows = self.scored_rows(space, fingerprint, objective)
        rows.sort(key=lambda item: (-item[1], item[0]))
        codec = space.codec
        return [
            {
                "config": dict(zip(codec.names, codec.decode(codes))),
                "metrics": dict(row["metrics"]),
                "score": score,
                "raw": objective.raw(row["metrics"]),
                "campaign": row["campaign"],
            }
            for codes, score, row in rows[: max(k, 0)]
        ]

    def warm_start_configs(
        self,
        space: "DesignSpace",
        fingerprint: str,
        objective: "Objective",
        k: int,
    ) -> list[dict[str, Any]]:
        """Top-k archived configs, best first — ``GAConfig.warm_start`` food."""
        return [entry["config"] for entry in self.top_k(space, fingerprint, objective, k)]

    # -- global readout ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Row/feasibility/campaign counts over every file under ``root``."""
        files = rows = feasible = infeasible = 0
        spaces: dict[str, int] = {}
        campaigns: dict[str, int] = {}
        for space_name, params, fingerprint in self.store.files():
            files += 1
            for __, (metrics, campaign) in self.store.rows(
                space_name, params, fingerprint
            ):
                rows += 1
                spaces[space_name] = spaces.get(space_name, 0) + 1
                campaigns[campaign] = campaigns.get(campaign, 0) + 1
                if metrics is None:
                    infeasible += 1
                else:
                    feasible += 1
        return {
            "rows": rows,
            "feasible": feasible,
            "infeasible": infeasible,
            "files": files,
            "spaces": spaces,
            "campaigns": campaigns,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DesignArchive({str(self.root)!r})"
