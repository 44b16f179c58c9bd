"""Columnar population — row access for engines, column access for operators.

A generational engine holds its population as scored individuals (rows). The
hot breeding loop, however, wants *columns*: all scores for one selection
draw, all code vectors for crossover statistics. :class:`Population` wraps
the row list and materializes those columns lazily, once — every selection
draw of a generation then reads the same tuple instead of re-walking
``ind.score`` attribute loads per draw.

The wrapper is a read-only :class:`~collections.abc.Sequence`, so every
consumer that indexed or iterated the old ``list[Individual]`` population
(selection strategies, survivor rules, health telemetry, checkpoints) works
unchanged; columns are an additive fast path the selection strategies probe
with ``getattr``.
"""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

__all__ = ["Population"]

T = TypeVar("T")


class Population(Sequence[T]):
    """An immutable, columnar view over scored individuals.

    Rows must expose ``.genome`` and a scalar ``.score`` (the single-
    objective :class:`~repro.core.selection.Individual` shape). Columns are
    built on first access and cached — valid because rows are never mutated
    after a generation is assessed.
    """

    __slots__ = ("_rows", "_scores", "_codes", "_genomes", "selection_cache")

    def __init__(self, rows: Sequence[T]):
        self._rows = list(rows)
        self._scores: tuple[float, ...] | None = None
        self._codes: tuple[tuple[int, ...], ...] | None = None
        self._genomes: tuple | None = None
        #: Strategy-keyed memo for derived selection tables (the roulette
        #: weights). Safe because rows and scores never change after
        #: construction; one table then serves every parent draw of the
        #: generation.
        self.selection_cache: dict = {}

    # -- Sequence interface -------------------------------------------------

    def __getitem__(self, index):
        return self._rows[index]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[T]:
        return iter(self._rows)

    # -- columns ------------------------------------------------------------

    @property
    def scores(self) -> tuple[float, ...]:
        """All fitness scores, population order (lazily cached)."""
        scores = self._scores
        if scores is None:
            scores = self._scores = tuple(ind.score for ind in self._rows)
        return scores

    @property
    def genomes(self) -> tuple:
        """All genomes, population order (lazily cached)."""
        genomes = self._genomes
        if genomes is None:
            genomes = self._genomes = tuple(ind.genome for ind in self._rows)
        return genomes

    @property
    def codes(self) -> tuple[tuple[int, ...], ...]:
        """All code vectors, population order (lazily cached)."""
        codes = self._codes
        if codes is None:
            codes = self._codes = tuple(
                ind.genome.codes for ind in self._rows
            )
        return codes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Population({len(self._rows)} individuals)"
