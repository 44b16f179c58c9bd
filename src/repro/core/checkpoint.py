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
  the :class:`~repro.core.evalstack.PersistentCache` row shape) and the
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

Both the single-objective GA (:class:`CheckpointedSearch`) and the NSGA-II
engine (:class:`CheckpointedParetoSearch`) checkpoint through the same
mixin — the service schedules and resumes them identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .engine import GAConfig, GeneticSearch
from .errors import NautilusError
from .evaluator import Evaluator
from .fitness import Objective
from .genome import Genome
from .guidance import GuidanceProvider, GuidanceState
from .hints import HintSet
from .kernel import _RECORD_FIELDS, RngStreams
from .pareto import ParetoSearch
from .population import Population
from .space import DesignSpace

__all__ = [
    "SearchCheckpoint",
    "CheckpointJournal",
    "CheckpointedSearch",
    "CheckpointedParetoSearch",
]

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
        return (json.dumps(payload) + "\n").encode("utf-8")

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


class _CheckpointMixin:
    """Snapshot/resume plumbing shared by every checkpointed engine.

    Composes with any :class:`~repro.core.kernel.SearchKernel` subclass
    whose population members expose ``.genome``: every
    ``checkpoint_every`` generations the mixin appends one journal line,
    compacts the journal when the search finishes, and on resume restores
    the memo, the evaluation counters, the population and RNG streams, and
    replays the recorded generations into the kernel's history (without
    notifying sinks — the events were already delivered before the
    interruption).
    """

    def _init_checkpointing(
        self, checkpoint_path: str | Path, checkpoint_every: int
    ) -> None:
        if checkpoint_every < 1:
            raise NautilusError("checkpoint_every must be >= 1")
        self.checkpoint_path = Path(checkpoint_path)
        self.checkpoint_every = checkpoint_every
        self._resume_from: SearchCheckpoint | None = None
        self._resume_rngs: RngStreams | None = None
        self._journal = CheckpointJournal(self.checkpoint_path)
        #: Watermarks: memo rows and records already in the journal.
        self._rows_journaled = 0
        self._records_journaled = 0

    # -- snapshotting -----------------------------------------------------------

    def _cache_rows(self, start: int = 0) -> list[dict[str, Any]]:
        rows = []
        for (__, values), outcome in self._counter.memo_items(start):
            metrics = None if isinstance(outcome, Exception) else dict(outcome)
            rows.append({"values": list(values), "metrics": metrics})
        return rows

    def _checkpoint(self, cache, records) -> SearchCheckpoint:
        return SearchCheckpoint(
            space_name=self.space.name,
            generation=self._generation,
            population=[list(ind.genome.codes) for ind in self._population],
            params=list(self.space.param_names),
            rng_streams=self.rngs.getstate(),
            records=[{f: getattr(r, f) for f in _RECORD_FIELDS} for r in records],
            cache=cache,
            stalled=self._stalled_generations,
            guidance=(
                self._guidance.state_dict() if self._guidance is not None else None
            ),
            eval_stats=self._counter.stats().counts(),
        )

    def _snapshot(self) -> None:
        """Append one journal line: the state plus what is new since the
        previous line."""
        rows = self._cache_rows(self._rows_journaled)
        records = self._records[self._records_journaled:]
        self._journal.append(self._checkpoint(rows, records))
        self._rows_journaled += len(rows)
        self._records_journaled += len(records)

    def _compact(self) -> None:
        """Replace the journal with one full line (tmp + replace)."""
        self._journal.close()
        checkpoint = self._checkpoint(self._cache_rows(), self._records)
        checkpoint.save(self.checkpoint_path)
        self._rows_journaled = len(checkpoint.cache)
        self._records_journaled = len(checkpoint.records)
        self._journal = CheckpointJournal(
            self.checkpoint_path, keep=self.checkpoint_path.stat().st_size
        )

    def close(self) -> None:
        self._journal.close()

    def resume(self, path: str | Path | None = None):
        """Load a journal; the next :meth:`run` continues from it.

        The evaluation cache and counters are restored immediately (so even
        pre-run lookups are free) and the RNG streams are decoded (a
        damaged state raises :class:`NautilusError` here); population, RNG
        streams and history take effect when the search starts. A journal
        with no complete line (killed during its first append) resumes
        nothing: the search starts fresh and overwrites it.
        """
        path = Path(path or self.checkpoint_path)
        checkpoint = SearchCheckpoint.read(path)
        if checkpoint is None:
            return self
        if checkpoint.space_name != self.space.name:
            raise NautilusError(
                f"checkpoint is for space {checkpoint.space_name!r}, "
                f"not {self.space.name!r}"
            )
        if checkpoint.params is not None and tuple(checkpoint.params) != self.space.param_names:
            raise NautilusError(
                f"checkpoint parameter order {tuple(checkpoint.params)!r} does "
                f"not match space {self.space.name!r} parameters "
                f"{self.space.param_names!r}"
            )
        rngs = RngStreams(self.seed, split=self.split_rngs)
        rngs.setstate(checkpoint.rng_streams)
        for config, metrics in checkpoint.cache_configs(self.space):
            self._counter.preload(self.space.genome(config), metrics)
        self._counter.restore_counts(
            checkpoint.eval_stats
            if checkpoint.eval_stats is not None
            else {"distinct": len(checkpoint.cache)}
        )
        if path.resolve() == self.checkpoint_path.resolve():
            # Continue this journal; everything restored is already in it.
            self._journal = CheckpointJournal(path, keep=checkpoint.end)
            self._rows_journaled = len(checkpoint.cache)
            self._records_journaled = len(checkpoint.records)
        self._resume_from = checkpoint
        self._resume_rngs = rngs
        return self

    # -- lifecycle --------------------------------------------------------------

    def start(self):
        """Start fresh, or restore the full state of a loaded snapshot.

        On resume the population, RNG streams, history (replayed into the
        trace), best-so-far, the stall counter and the evaluation counters
        are all reconstituted from the checkpoint, so the continued step
        sequence is exactly the run that would have happened without the
        interruption — including ``stall_generations`` cutoffs and
        :class:`~repro.core.evalstack.EvalStats`. Returns the record of the
        last completed generation.
        """
        if self._resume_from is None:
            return super().start()
        if self.started:
            raise NautilusError("search already started")
        checkpoint, self._rngs = self._resume_from, self._resume_rngs
        self._resume_from = self._resume_rngs = None
        # Re-assessing the restored population only hits the memo; keep
        # those lookups out of the restored counters.
        counts = self._counter.stats().counts()
        self._restore_population(checkpoint)
        self._counter.restore_counts(counts)
        for payload in checkpoint.records:
            self._replay_record(payload)
        self._generation = checkpoint.generation
        self._stalled_generations = checkpoint.stalled or 0
        if self._guidance is not None:
            if checkpoint.guidance is not None:
                self._guidance.load_state_dict(checkpoint.guidance)
            # Rebuild the in-force state for the checkpointed generation so
            # the next step's advance() continues the provider's sequence.
            self._guidance_state = self._guidance.peek(checkpoint.generation)
        else:
            self._guidance_state = GuidanceState.neutral(checkpoint.generation)
        records = self._records
        return records[-1] if records else self._make_record(self._generation)

    def _after_generation(self, record) -> None:
        if record.generation % self.checkpoint_every == 0:
            self._snapshot()

    def _on_finish(self, reason: str) -> None:
        self._compact()

    # -- engine-specific restoration ---------------------------------------------

    def _restore_population(self, checkpoint: SearchCheckpoint) -> None:
        raise NotImplementedError  # pragma: no cover - abstract


class CheckpointedSearch(_CheckpointMixin, GeneticSearch):
    """A :class:`GeneticSearch` that journals a snapshot every N generations.

    Args:
        checkpoint_path: The journal file (see the module docstring).
        checkpoint_every: Generations between journal lines.

    Use :meth:`resume` to continue from a journal: the population, RNG
    streams, history, counters and — most importantly — the cache of
    already-paid-for evaluations are all restored, so the continued run is
    exactly the run that would have happened without the interruption.
    """

    def __init__(
        self,
        space: DesignSpace,
        evaluator: Evaluator,
        objective: Objective,
        config: GAConfig | None = None,
        hints: HintSet | None = None,
        label: str = "",
        checkpoint_path: str | Path = "nautilus.ckpt.json",
        checkpoint_every: int = 5,
        guidance: GuidanceProvider | None = None,
    ):
        super().__init__(
            space, evaluator, objective, config, hints, label, guidance=guidance
        )
        self._init_checkpointing(checkpoint_path, checkpoint_every)

    def _restore_population(self, checkpoint: SearchCheckpoint) -> None:
        # Cached, so re-assessing the population costs no synthesis jobs.
        self._population = Population(
            [self._assess(g) for g in checkpoint.population_genomes(self.space)]
        )
        best = max(self._population, key=lambda ind: ind.score)
        for row in checkpoint.records:
            if row["best_score"] > best.score:
                best = self._assess(self.space.genome(row["best_config"]))
        self._best = best


class CheckpointedParetoSearch(_CheckpointMixin, ParetoSearch):
    """A :class:`ParetoSearch` that journals a snapshot every N generations.

    Multi-objective runs checkpoint exactly like single-objective ones:
    scores are *not* serialized — the population is re-assessed from the
    restored evaluation cache, then re-ranked, so the resumed NSGA-II state
    (ranks, crowding, front signature) is rebuilt bit-identically.
    """

    def __init__(
        self,
        space: DesignSpace,
        evaluator: Evaluator,
        objectives,
        config: GAConfig | None = None,
        hints: HintSet | None = None,
        label: str = "pareto",
        checkpoint_path: str | Path = "nautilus.ckpt.json",
        checkpoint_every: int = 5,
        guidance: GuidanceProvider | None = None,
    ):
        super().__init__(
            space, evaluator, objectives, config, hints, label, guidance=guidance
        )
        self._init_checkpointing(checkpoint_path, checkpoint_every)

    def _restore_population(self, checkpoint: SearchCheckpoint) -> None:
        self._population = self._assess_all(
            checkpoint.population_genomes(self.space)
        )
        self._rank(self._population)
        self._front_signature = self._signature()
        self._best = self._projected_best()
