"""Design spaces — the cartesian product of an IP generator's parameters.

A :class:`DesignSpace` owns an ordered list of :class:`~repro.core.params.Param`
objects plus optional *structural constraints* (predicates over a config dict)
that carve infeasible combinations out of the product space. The paper's
Section 3 notes Nautilus must stay robust under "sparsely populated design
spaces that include infeasible points or regions"; constraints here model the
statically-known part of that sparsity, while evaluators may still raise
:class:`~repro.core.errors.InfeasibleDesignError` for points only discovered
to be unbuildable at generation time.
"""

from __future__ import annotations

import numbers
import random
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .codec import SpaceCodec
from .errors import ParameterError, SpaceError
from .genome import Genome
from .params import Param

__all__ = ["DesignSpace", "Constraint"]

#: A structural constraint: returns True when the configuration is feasible.
#: It must be a pure function of the config — the same verdict for the same
#: values, every time — because a space remembers each code vector's verdict
#: (see :meth:`DesignSpace.is_feasible`).
Constraint = Callable[[Mapping[str, Any]], bool]

_MAX_SAMPLING_ATTEMPTS = 10_000

#: Verdicts a space remembers before it forgets them all. Above the largest
#: bundled product space (the router's 30,240 points), so their memos fill
#: once and are never cleared.
_FEASIBILITY_MEMO_CAP = 1 << 16


class DesignSpace:
    """An ordered collection of parameters with optional constraints.

    Args:
        name: A short identifier used in genome cache keys and datasets.
        params: The parameters, in a stable order.
        constraints: Structural feasibility predicates. A genome is feasible
            only if *all* predicates return True on its config dict. Each
            must be a pure function of the config: the space memoizes the
            verdict per code vector, so a predicate is asked about a point
            at most once between memo resets.
    """

    def __init__(
        self,
        name: str,
        params: Sequence[Param],
        constraints: Iterable[Constraint] = (),
    ):
        if not params:
            raise SpaceError(f"design space {name!r} has no parameters")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpaceError(f"design space {name!r} has duplicate parameters: {dupes}")
        self.name = name
        self.params: tuple[Param, ...] = tuple(params)
        self.constraints: tuple[Constraint, ...] = tuple(constraints)
        self._name_to_pos = {p.name: i for i, p in enumerate(self.params)}
        #: Precomputed ordinal encode/decode tables (see repro.core.codec).
        #: Built eagerly — params and constraints are immutable after this
        #: point, so the codec shares the space's lifetime.
        self.codec = SpaceCodec(self)
        #: code vector -> feasibility verdict, for this space's own genomes.
        self._feasible: dict[tuple[int, ...], bool] = {}

    def __getstate__(self) -> dict[str, Any]:
        # A genome pickles its space; the memo would multiply that payload.
        state = self.__dict__.copy()
        del state["_feasible"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._feasible = {}

    # -- parameter lookup -----------------------------------------------------

    @property
    def param_names(self) -> tuple[str, ...]:
        """Parameter names in declaration order."""
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> Param:
        """Return the parameter named ``name``."""
        try:
            return self.params[self._name_to_pos[name]]
        except KeyError:
            raise SpaceError(f"no parameter {name!r} in design space {self.name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._name_to_pos

    # -- size -------------------------------------------------------------------

    def size(self) -> int:
        """Total number of points in the *unconstrained* product space."""
        total = 1
        for p in self.params:
            total *= p.cardinality
        return total

    # -- construction of genomes -------------------------------------------------

    def genome(self, values: Mapping[str, Any] | None = None, **kwargs: Any) -> Genome:
        """Build a genome from a mapping and/or keyword arguments."""
        merged: dict[str, Any] = dict(values or {})
        merged.update(kwargs)
        return Genome(self, merged)

    def genome_from_indices(self, indices: Sequence[int]) -> Genome:
        """Build a genome from ordinal indices into each parameter domain.

        Indices must be in-range integers (this is a trust boundary —
        checkpoints and external callers come through here); anything else
        raises :class:`ParameterError`. They are then wrapped via the
        codec's trusted fast path.
        """
        if len(indices) != len(self.params):
            raise SpaceError(
                f"expected {len(self.params)} indices, got {len(indices)}"
            )
        for p, i in zip(self.params, indices):
            if isinstance(i, bool) or not isinstance(i, numbers.Integral):
                raise ParameterError(
                    f"index {i!r} for parameter {p.name!r} is not an integer"
                )
            p.value_at(i)  # raises ParameterError on out-of-range indices
        return Genome.from_codes(self, tuple(int(i) for i in indices))

    def is_feasible(self, genome: Genome | Mapping[str, Any]) -> bool:
        """Whether a config satisfies all structural constraints.

        A genome of this space is asked of :meth:`feasible_codes`; a
        mapping, or a genome of another space, is checked directly.
        """
        if isinstance(genome, Genome) and genome.space is self:
            return self.feasible_codes(genome.codes)
        config = genome if isinstance(genome, Genome) else dict(genome)
        return all(constraint(config) for constraint in self.constraints)

    def feasible_codes(self, codes: tuple[int, ...]) -> bool:
        """Whether a trusted code vector of this space is feasible,
        memoized by the vector: breeding re-proposes the same points over
        and over, and constraints are pure. Threads may race to compute the
        same verdict; each stores the same answer."""
        constraints = self.constraints
        if not constraints:
            return True
        memo = self._feasible
        verdict = memo.get(codes)
        if verdict is None:
            verdict = self.codec.is_feasible_codes(codes)
            if len(memo) >= _FEASIBILITY_MEMO_CAP:
                memo.clear()
            memo[codes] = verdict
        return verdict

    def random_genome(self, rng: random.Random) -> Genome:
        """Draw a uniform random *feasible* genome by rejection sampling."""
        codec = self.codec
        for _ in range(_MAX_SAMPLING_ATTEMPTS):
            # One randrange per parameter — the same draws (count, order,
            # arguments) Param.random_value consumed historically.
            codes = codec.random_codes(rng)
            if codec.is_feasible_codes(codes):
                return Genome.from_codes(self, codes)
        raise SpaceError(
            f"could not sample a feasible point from {self.name!r} after "
            f"{_MAX_SAMPLING_ATTEMPTS} attempts; the space may be empty"
        )

    def random_population(self, count: int, rng: random.Random) -> list[Genome]:
        """Draw ``count`` feasible genomes, distinct when the space allows it."""
        population: list[Genome] = []
        seen: set[tuple] = set()
        attempts = 0
        while len(population) < count and attempts < _MAX_SAMPLING_ATTEMPTS:
            attempts += 1
            genome = self.random_genome(rng)
            if genome.codes in seen:
                continue
            seen.add(genome.codes)
            population.append(genome)
        while len(population) < count:
            # The space is smaller than the population; allow duplicates.
            population.append(self.random_genome(rng))
        return population

    # -- enumeration -------------------------------------------------------------

    def iter_genomes(self) -> Iterator[Genome]:
        """Yield every structurally feasible genome (in lexicographic order)."""
        codec = self.codec
        for codes in codec.iter_codes():
            if codec.is_feasible_codes(codes):
                yield Genome.from_codes(self, codes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DesignSpace({self.name!r}, {len(self.params)} params, "
            f"{self.size()} points)"
        )
