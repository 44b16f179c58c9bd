"""Columnar population — row access for engines, column access for operators.

A generational engine holds its population as scored individuals (rows).
Breeding and telemetry, however, want tables derived from the whole
generation: the roulette wheel's running sums for every parent draw, all
code vectors for the ``health`` payload. :class:`Population` wraps the row
list and keeps each table once it is built — every parent draw of a
generation then bisects the same sums instead of rescanning the scores.

The wrapper is a read-only :class:`~collections.abc.Sequence`, so every
consumer that indexed or iterated the old ``list[Individual]`` population
(selection strategies, survivor rules, health telemetry, checkpoints) works
unchanged.
"""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

__all__ = ["Population"]

T = TypeVar("T")


class Population(Sequence[T]):
    """An immutable, columnar view over scored individuals.

    Rows must expose ``.genome`` and a scalar ``.score`` (the single-
    objective :class:`~repro.core.selection.Individual` shape). Tables are
    built on first access and kept — valid because rows are never mutated
    after a generation is assessed.
    """

    __slots__ = ("_rows", "_codes", "wheel")

    def __init__(self, rows: Sequence[T]):
        self._rows = list(rows)
        self._codes: tuple[tuple[int, ...], ...] | None = None
        #: The roulette wheel's ``(rows, running sums, total)``, built by
        #: the generation's first parent draw
        #: (:func:`~repro.core.selection.roulette_wheel`) and kept: rows and
        #: scores never change after construction.
        self.wheel: tuple | None = None

    # -- Sequence interface -------------------------------------------------

    def __getitem__(self, index):
        return self._rows[index]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[T]:
        return iter(self._rows)

    # -- tables -------------------------------------------------------------

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
