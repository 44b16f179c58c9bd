"""Ordinal codecs — the encoded representation behind every design point.

A :class:`SpaceCodec` is built once per :class:`~repro.core.space.DesignSpace`
and precomputes everything the hot search loops would otherwise re-derive
per gene per offspring: the ordinal domain tables (code → value), the frozen
value tables (code → hashable cache-key form), the name → position map, the
reverse index maps (frozen value → code), and per-parameter cardinalities.

With the codec in place a design point is a compact *code vector* — one
``tuple[int, ...]`` of domain indices in declaration order — and a
:class:`~repro.core.genome.Genome` is a lazily-decoded view over it. Two
construction paths exist:

* the **validating path** (:meth:`SpaceCodec.encode_mapping`), used whenever
  values cross a trust boundary (user configs, checkpoints, datasets, the
  HTTP service). It reproduces the exact historical ``GenomeError`` messages.
* the **trusted fast path** (:meth:`~repro.core.genome.Genome.from_codes`),
  used by the breeding operators: crossover and mutation can only produce
  codes that are already in-domain, so re-validation would be pure overhead.
  A code vector handed to the fast path must come from this codec (or be
  range-checked first, as :meth:`~repro.core.space.DesignSpace.genome_from_indices`
  does).

The codec's lifetime is its space's lifetime: parameters and constraints are
immutable after :class:`~repro.core.space.DesignSpace` construction, so the
tables never go stale. Codecs are *not* serialized — checkpoints store code
vectors plus the parameter-name order as a guard, and the loading space
rebuilds its own codec.
"""

from __future__ import annotations

import random
from operator import getitem
from typing import Any, Iterator, Mapping, Sequence, TYPE_CHECKING

from .errors import GenomeError
from .genome import Genome
from .params import freeze_value

if TYPE_CHECKING:  # pragma: no cover
    from .space import DesignSpace

__all__ = ["SpaceCodec"]


class SpaceCodec:
    """Precomputed ordinal encode/decode tables for one design space.

    Attributes:
        names: Parameter names in declaration order.
        positions: ``{name: position}`` — the name → gene-index map.
        domains: Per-position value tables; ``domains[pos][code]`` is the
            decoded value.
        frozen: Per-position frozen-value tables; ``frozen[pos][code]`` is
            the canonical hashable (cache-key) form of the value.
        cardinalities: Per-position domain sizes.
        index_maps: Per-position ``{frozen value: code}`` reverse maps.
        ordered: Per-position flags: whether the domain order is an ordinal
            axis guided mutation may step along.
    """

    __slots__ = (
        "space",
        "names",
        "positions",
        "domains",
        "frozen",
        "cardinalities",
        "index_maps",
        "ordered",
        "num_params",
        "_name_set",
    )

    def __init__(self, space: "DesignSpace"):
        params = space.params
        self.space = space
        self.names: tuple[str, ...] = tuple(p.name for p in params)
        self.positions: dict[str, int] = {
            name: pos for pos, name in enumerate(self.names)
        }
        self.domains: tuple[tuple, ...] = tuple(p.values for p in params)
        self.frozen: tuple[tuple, ...] = tuple(
            tuple(freeze_value(v) for v in p.values) for p in params
        )
        self.cardinalities: tuple[int, ...] = tuple(p.cardinality for p in params)
        self.index_maps: tuple[dict, ...] = tuple(p.index_map for p in params)
        self.ordered: tuple[bool, ...] = tuple(p.ordered for p in params)
        self.num_params = len(params)
        self._name_set = frozenset(self.names)

    # -- encoding (validating) --------------------------------------------------

    def encode_value(self, pos: int, value: Any) -> int:
        """Encode one value at a position; raises the historical message."""
        try:
            return self.index_maps[pos][freeze_value(value)]
        except (KeyError, TypeError):
            raise GenomeError(
                f"value {value!r} not in domain of parameter "
                f"{self.names[pos]!r}"
            ) from None

    def encode_mapping(self, values: Mapping[str, Any]) -> tuple[int, ...]:
        """Validate and encode a ``{name: value}`` mapping to a code vector.

        This is the trust boundary: unknown and missing parameters and
        out-of-domain values raise :class:`GenomeError` with exactly the
        messages the dict-based ``Genome`` constructor always raised.
        """
        if len(values) != self.num_params or not self._name_set.issuperset(values):
            extra = set(values) - self._name_set
            if extra:
                raise GenomeError(
                    f"unknown parameters in genome: {sorted(extra)}"
                )
            missing = self._name_set - set(values)
            if missing:
                raise GenomeError(f"genome missing parameters: {sorted(missing)}")
        codes = []
        index_maps = self.index_maps
        for pos, name in enumerate(self.names):
            value = values[name]
            try:
                codes.append(index_maps[pos][freeze_value(value)])
            except (KeyError, TypeError):
                raise GenomeError(
                    f"value {value!r} not in domain of parameter {name!r}"
                ) from None
        return tuple(codes)

    def recode(
        self, codes: Sequence[int], changes: Mapping[str, Any]
    ) -> tuple[int, ...]:
        """A code vector with some values changed; validates *only* those.

        The unchanged genes are already-encoded codes and need no
        re-validation — this is what makes ``Genome.replace`` O(changes)
        instead of O(params).
        """
        new_codes = list(codes)
        positions = self.positions
        for name, value in changes.items():
            try:
                pos = positions[name]
            except KeyError:
                raise GenomeError(
                    f"unknown parameters in genome: {sorted(set(changes) - self._name_set)}"
                ) from None
            new_codes[pos] = self.encode_value(pos, value)
        return tuple(new_codes)

    # -- decoding ----------------------------------------------------------------

    def decode(self, codes: Sequence[int]) -> tuple:
        """Decode a code vector to its value tuple (declaration order)."""
        return tuple(map(getitem, self.domains, codes))

    def values_key(self, codes: Sequence[int]) -> tuple:
        """The canonical frozen values key of a code vector.

        Identical to :func:`repro.core.params.values_key` over the decoded
        values, read from the precomputed frozen tables.
        """
        return tuple(map(getitem, self.frozen, codes))

    def genome(self, codes: Sequence[int]) -> Genome:
        """A genome view over a *trusted* code vector (no validation)."""
        return Genome.from_codes(self.space, codes)

    # -- feasibility --------------------------------------------------------------

    def is_feasible_codes(self, codes: Sequence[int]) -> bool:
        """Whether a trusted code vector satisfies the space's constraints.

        Constraints are predicates over a config *mapping*; they receive a
        lazily-decoded genome view, so no intermediate dict is built.
        """
        constraints = self.space.constraints
        if not constraints:
            return True
        view = Genome.from_codes(self.space, codes)
        return all(constraint(view) for constraint in constraints)

    # -- sampling / enumeration ---------------------------------------------------

    def random_codes(self, rng: random.Random) -> tuple[int, ...]:
        """Draw one uniform code per parameter, in declaration order.

        Draw-order parity: one ``rng.randrange(cardinality)`` per parameter
        — exactly the draws ``Param.random_value`` consumed historically.
        """
        return tuple(rng.randrange(card) for card in self.cardinalities)

    def iter_codes(self) -> Iterator[tuple[int, ...]]:
        """Every code vector of the product space, lexicographically."""
        import itertools

        return itertools.product(*(range(card) for card in self.cardinalities))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpaceCodec({self.space.name!r}, {self.num_params} params)"
