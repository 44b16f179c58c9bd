"""Genomes — concrete design points in an IP design space.

A :class:`Genome` is an immutable assignment of one domain value per
parameter of a :class:`~repro.core.space.DesignSpace`. Genomes are hashable
so evaluation caches can count *distinct* design points — the cost metric
the paper reports on every x-axis ("# designs evaluated").

Internally a genome is a *code vector*: one ordinal domain index per
parameter, encoded through the space's
:class:`~repro.core.codec.SpaceCodec`. Values, the mapping interface and the
cache key are lazily-decoded views over the codes. Two construction paths:

* ``Genome(space, values)`` — the validating boundary: encodes a
  ``{name: value}`` mapping, raising :class:`GenomeError` for unknown /
  missing parameters and out-of-domain values.
* :meth:`Genome.from_codes` — the trusted fast path the genetic operators
  use: a code vector produced by the codec (crossover recombines codes,
  mutation steps them) is in-domain by construction, so no re-validation
  happens. Never hand this untrusted indices; range-check them first
  (see :meth:`~repro.core.space.DesignSpace.genome_from_indices`).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, TYPE_CHECKING

from .errors import GenomeError  # noqa: F401  (re-exported for callers)

if TYPE_CHECKING:  # pragma: no cover
    from .space import DesignSpace

__all__ = ["Genome"]


class Genome(Mapping[str, Any]):
    """An immutable mapping of parameter name to value, bound to a space."""

    __slots__ = ("_space", "_codes", "_values", "_key")

    def __init__(self, space: "DesignSpace", values: Mapping[str, Any]):
        self._space = space
        self._codes = space.codec.encode_mapping(values)
        self._values = None
        self._key = None

    @classmethod
    def from_codes(cls, space: "DesignSpace", codes: tuple[int, ...]) -> "Genome":
        """Trusted fast path: wrap an already-valid code vector, unvalidated."""
        genome = object.__new__(cls)
        genome._space = space
        genome._codes = codes
        genome._values = None
        genome._key = None
        return genome

    # -- lazy decode ---------------------------------------------------------

    def _decoded(self) -> tuple:
        values = self._values
        if values is None:
            values = self._values = self._space.codec.decode(self._codes)
        return values

    def _values_key(self) -> tuple:
        # The codec's frozen tables yield exactly the canonical
        # repro.core.params.values_key of the decoded values.
        return self._space.codec.values_key(self._codes)

    # -- Mapping interface ---------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        codec = self._space.codec
        try:
            pos = codec.positions[name]
        except KeyError:
            raise KeyError(name) from None
        values = self._values
        if values is None:
            # One gene: a constraint predicate reads one or two values, so
            # decoding the whole vector would be wasted.
            return codec.domains[pos][self._codes[pos]]
        return values[pos]

    def __iter__(self) -> Iterator[str]:
        return iter(self._space.codec.names)

    def __len__(self) -> int:
        return len(self._codes)

    # -- identity ------------------------------------------------------------

    @property
    def space(self) -> "DesignSpace":
        """The design space this genome belongs to."""
        return self._space

    @property
    def codes(self) -> tuple[int, ...]:
        """The ordinal code vector (one domain index per parameter)."""
        return self._codes

    @property
    def key(self) -> tuple:
        """A hashable identity usable as a cache key across equal spaces."""
        key = self._key
        if key is None:
            key = self._key = (
                self._space.name,
                self._space.codec.values_key(self._codes),
            )
        return key

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Genome):
            return NotImplemented
        if self._space is other._space:
            return self._codes == other._codes
        return self.key == other.key

    # -- derivation ----------------------------------------------------------

    def replace(self, **changes: Any) -> "Genome":
        """Return a new genome with some parameter values changed.

        Only the changed parameters are validated/encoded; the untouched
        genes keep their codes without re-validation.
        """
        return Genome.from_codes(
            self._space, self._space.codec.recode(self._codes, changes)
        )

    def as_dict(self) -> dict[str, Any]:
        """Return the genome as a plain ``{name: value}`` dict."""
        return dict(zip(self._space.codec.names, self._decoded()))

    def index_vector(self) -> tuple[int, ...]:
        """Return the genome as ordinal indices into each parameter domain."""
        return self._codes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        assigns = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"Genome({assigns})"
