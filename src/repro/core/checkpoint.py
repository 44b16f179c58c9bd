"""Checkpoint/resume for long search campaigns.

Against real CAD tools a Nautilus run is hours-to-days of synthesis jobs;
losing the evaluation cache to a crash wastes all of it. A
:class:`SearchCheckpoint` holds everything a generational search needs to
continue — the current population, the state of every named RNG stream,
the guidance provider's state, the stall counter, the evaluation
counters, the per-generation records (replayed into the kernel's history
on resume) and (crucially) the evaluation cache, so resumed runs never
re-pay for a design the snapshot recorded.

Format 6 is an append-only journal of JSON lines, so a snapshot costs
O(population) bytes rather than O(everything ever evaluated). Every line
carries:

* the O(population) state — ``population`` (code vectors in parameter
  declaration order, guarded by ``params``), ``rng_streams`` (each
  Mersenne Twister state's 625 words packed as base64 of little-endian
  uint32), ``guidance``, ``stalled`` and ``eval_stats`` (the stack's
  integer counters);
* only the ``cache`` rows (``{"values": [...], "metrics": {...} | null}``,
  the :class:`~repro.core.evalstack.PersistentCache` row shape without
  its ``campaign``) and the
  ``records`` produced since the previous line. The writer finds them
  with two watermarks: the memo's insertion order and the record count.

:meth:`SearchCheckpoint.load` folds the lines: rows and records
accumulate, the state comes from the last complete line, and a torn final
line (a writer killed mid-line) is ignored — the resumed
:class:`CheckpointJournal` truncates it before its first append. When the
search finishes, the journal is compacted into one full line through
:meth:`SearchCheckpoint.save` (tmp + replace).

Formats 4 and 5 still load. Both write each RNG state as a list of 625
ints, which the decoder tells apart from packed words by its shape; a
format-5 line differs from a format-6 one in nothing else, so a format-5
journal continued by this version simply gains format-6 lines. An older
reader rejects a format-6 line as an unsupported format. A format-4 file
is one line with the same keys, so it loads as a one-line journal; it
carries no counters, so its rows count as distinct evaluations, as they
did in format 4. A malformed RNG state of any format raises
:class:`~repro.core.errors.NautilusError` when a search resumes from it.

This module holds only the format. The journal's writer and reader is
:class:`~repro.core.kernel.GenerationalEngine`: an engine built with
``checkpoint_path=`` appends a line after every generation, compacts the
journal when it finishes, and resumes from it with ``resume()`` — the
single-objective GA and NSGA-II alike.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import NautilusError
from .fileio import dumps
from .genome import Genome
from .space import DesignSpace

__all__ = ["SearchCheckpoint", "CheckpointJournal"]

_FORMAT_VERSION = 6
#: Formats a journal line may carry (a format-4 file is a one-line journal).
_READABLE_FORMATS = (4, 5, _FORMAT_VERSION)


class SearchCheckpoint:
    """The state of an in-flight generational search, as one journal line
    or as the fold of a whole journal."""

    def __init__(
        self,
        space_name: str,
        generation: int,
        population: list,
        rng_streams: dict[str, Any],
        records: list[dict[str, Any]],
        cache: list[dict[str, Any]],
        stalled: int | None = None,
        guidance: dict[str, Any] | None = None,
        params: list[str] | None = None,
        eval_stats: dict[str, int] | None = None,
    ):
        self.space_name = space_name
        self.generation = generation
        #: Code vectors (``list[list[int]]``); use :meth:`population_genomes`.
        self.population = population
        #: Parameter names in the order the code vectors index — a guard
        #: against resuming into a space whose declaration order changed.
        self.params = params
        #: :meth:`RngStreams.getstate` payload — every named stream.
        self.rng_streams = rng_streams
        self.records = records
        self.cache = cache
        #: Consecutive no-improvement generations at snapshot time.
        self.stalled = stalled
        #: :meth:`GuidanceProvider.state_dict` payload at snapshot time;
        #: ``None`` for unguided runs.
        self.guidance = guidance
        #: :meth:`EvalStats.counts` at snapshot time; ``None`` for format 4.
        self.eval_stats = eval_stats
        #: Byte length of the journal prefix this checkpoint was folded
        #: from — where a resumed :class:`CheckpointJournal` continues.
        self.end = 0

    def line(self) -> bytes:
        """This checkpoint as one newline-terminated journal line."""
        payload = {
            "format": _FORMAT_VERSION,
            "space": self.space_name,
            "params": self.params,
            "generation": self.generation,
            "population": self.population,
            "rng_streams": self.rng_streams,
            "records": self.records,
            "cache": self.cache,
            "stalled": self.stalled,
            "guidance": self.guidance,
            "eval_stats": self.eval_stats,
        }
        return (dumps(payload) + "\n").encode("utf-8")

    def save(self, path: str | Path) -> None:
        """Replace ``path`` with a one-line journal holding this checkpoint.

        Atomic (tmp + replace): a crash never leaves a torn file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(self.line())
        tmp.replace(path)

    @classmethod
    def load(cls, path: str | Path) -> "SearchCheckpoint":
        """Fold a journal (see the module docstring).

        Raises:
            NautilusError: No line is complete, a line other than the last
                is corrupt, or a line has an unsupported format.
        """
        checkpoint = cls.read(path)
        if checkpoint is None:
            raise NautilusError(f"checkpoint {path} holds no complete snapshot")
        return checkpoint

    @classmethod
    def read(cls, path: str | Path) -> "SearchCheckpoint | None":
        """Like :meth:`load`, but ``None`` when no line is complete yet."""
        data = Path(path).read_bytes()
        records: list[dict[str, Any]] = []
        cache: list[dict[str, Any]] = []
        checkpoint = None
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            end = len(data) if newline < 0 else newline + 1
            text = data[offset:end]
            offset = end
            try:
                payload = json.loads(text)
            except ValueError:
                if newline < 0:
                    break  # torn final line: the writer died mid-append
                raise NautilusError(
                    f"corrupt checkpoint journal line in {path}"
                ) from None
            version = payload.get("format") if isinstance(payload, dict) else None
            if version not in _READABLE_FORMATS:
                raise NautilusError(f"unsupported checkpoint format {version!r}")
            try:
                records.extend(payload["records"])
                cache.extend(payload["cache"])
                checkpoint = cls(
                    space_name=payload["space"],
                    generation=payload["generation"],
                    population=payload["population"],
                    rng_streams=payload["rng_streams"],
                    records=records,
                    cache=cache,
                    stalled=payload["stalled"],
                    guidance=payload["guidance"],
                    params=payload["params"],
                    eval_stats=payload.get("eval_stats"),
                )
            except KeyError as exc:
                raise NautilusError(
                    f"checkpoint journal line in {path} lacks {exc}"
                ) from None
            checkpoint.end = end
        return checkpoint

    # -- materialization ---------------------------------------------------------

    def population_genomes(self, space: DesignSpace) -> list[Genome]:
        """Rebuild the checkpointed population against a live space,
        through the range-checked
        :meth:`~repro.core.space.DesignSpace.genome_from_indices` boundary."""
        return [space.genome_from_indices(codes) for codes in self.population]

    def cache_configs(self, space: DesignSpace):
        """Yield ``(config dict, metrics)`` for every cached evaluation."""
        names = tuple(self.params) if self.params else space.param_names
        for row in self.cache:
            yield dict(zip(names, row["values"])), row["metrics"]


class CheckpointJournal:
    """Appends :class:`SearchCheckpoint` lines to a journal file through
    one open handle, flushed once per line.

    ``keep`` is the byte length of the journal prefix to continue after
    (a loaded checkpoint's :attr:`~SearchCheckpoint.end`); 0 starts a new
    journal, replacing whatever the path held. Before the first append the
    file is truncated to ``keep`` — dropping a torn tail — and a final line
    that lost only its newline gets one, so an appended line is never
    glued onto a partial one.
    """

    def __init__(self, path: str | Path, keep: int = 0):
        self.path = Path(path)
        self._keep = keep
        self._handle = None

    def append(self, checkpoint: SearchCheckpoint) -> None:
        if self._handle is None:
            self._handle = self._open()
        self._handle.write(checkpoint.line())
        self._handle.flush()

    def _open(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self._keep:
            return open(self.path, "wb")
        handle = open(self.path, "r+b")
        handle.truncate(self._keep)
        handle.seek(self._keep - 1)
        last = handle.read(1)
        handle.seek(self._keep)
        if last != b"\n":
            handle.write(b"\n")
        return handle

    def close(self) -> None:
        """Close the handle; a later append reopens after what was written."""
        if self._handle is not None:
            self._keep = self._handle.tell()
            self._handle.close()
            self._handle = None
