"""Genetic operators, baseline and hint-guided.

The paper splits the effect of hints over two decisions made during each
genetic operation (Section 3):

1. *Which genes mutate* — importance (decayed over generations) reweights the
   per-gene mutation probability while preserving the expected number of
   mutations per genome, so guided and baseline runs spend comparable
   mutation effort.
2. *Which values mutated genes receive* — bias tilts the direction of the
   step along the parameter's ordinal axis; target pulls samples toward a
   known-good value; both are blended with a uniform draw according to the
   global confidence, preserving the stochastic nature of the GA (footnote 1
   of the paper: hints "are incorporated in a probabilistic manner ... still
   free to explore the full design space").

Crossover is unguided (the paper's hints act on mutation) and single-point,
as in the PyEvolve GA the paper built on.

:class:`BreedingPipeline` keeps nothing from one generation to the next;
:class:`GeneticOperators` keeps only the per-gene guides of the hint set
in force.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, NamedTuple, Sequence

from .codec import SpaceCodec
from .genome import Genome
from .guidance import GuidanceState
from .hints import HintSet
from .params import Param, freeze_value
from .space import DesignSpace

__all__ = [
    "GeneticOperators",
    "BreedingPipeline",
    "single_point_crossover",
]

#: Probability bounds that keep every gene able to mutate (or stay put) no
#: matter how extreme the importance skew is.
_MIN_GENE_RATE = 0.002
_MAX_GENE_RATE = 0.95

#: Effective importance of parameters the guidance state does not mention —
#: both decayed and undecayed paths yield exactly this for unhinted params.
_NEUTRAL_IMPORTANCE = 50.0

#: Geometric tail used when sampling guided step magnitudes and when pulling
#: values toward a target. 0.5 halves the probability per extra index step.
_STEP_TAIL = 0.5


def _blended_gene_rates(
    names: Sequence[str], guidance: GuidanceState | None, mutation_rate: float
) -> list[float]:
    """Per-gene mutation probabilities, one float per declaration position.

    The single source of the rate arithmetic: both the public
    :meth:`GeneticOperators.gene_mutation_rates` dict view and the resolved
    per-generation tables read from here, so the floats are bit-identical
    no matter which path computes them.
    """
    hints = guidance.hints if guidance is not None else None
    if hints is None or not hints.params:
        return [mutation_rate] * len(names)
    importance = guidance.effective_importance
    weights = [
        max(importance.get(name, _NEUTRAL_IMPORTANCE), 1e-9) for name in names
    ]
    mean_weight = sum(weights) / len(weights)
    confidence = guidance.confidence
    rates = []
    for weight in weights:
        guided = mutation_rate * weight / mean_weight
        blended = (1.0 - confidence) * mutation_rate + confidence * guided
        rates.append(min(max(blended, _MIN_GENE_RATE), _MAX_GENE_RATE))
    return rates


class _GeneGuide:
    """Everything one gene's guided mutation needs, resolved to codes.

    Built once per (hint set, codec) by :func:`_gene_guides`; the hot loop
    then touches only plain attribute loads — no hint lookups, no axis dict
    builds per offspring. The per-generation part of a gene's guidance (its
    mutation rate, the confidence) lives in :class:`_ResolvedGuidance`.
    """

    __slots__ = (
        "name",
        "cardinality",
        "others",
        "bits",
        "directional",
        "has_axis",
        "identity_axis",
        "axis_size",
        "code_to_axis",
        "axis_to_code",
        "target_weights",
        "target_total",
        "p_up",
        "continue_prob",
    )


def _gene_guides(codec: SpaceCodec, hints: HintSet | None) -> tuple[_GeneGuide, ...]:
    """Every gene's axis maps, target weights and step tables under a hint set.

    These depend only on the hint set and the codec, never on the
    generation, so :class:`GeneticOperators` builds them once per hint-set
    object and reuses them for every generation that set is in force.
    """
    genes = []
    for pos, name in enumerate(codec.names):
        guide = _GeneGuide()
        guide.name = name
        card = codec.cardinalities[pos]
        guide.cardinality = card
        # randrange(card - 1) is getrandbits(bits) and its redraw loop.
        guide.others, guide.bits = card - 1, (card - 1).bit_length()
        hints_p = hints.for_param(name) if hints is not None else None
        directional = hints_p is not None and (
            hints_p.bias != 0.0 or hints_p.target is not None
        )
        guide.directional = directional
        guide.has_axis = False
        guide.identity_axis = False
        guide.axis_size = 0
        guide.code_to_axis = None
        guide.axis_to_code = None
        guide.target_weights = None
        guide.target_total = 0.0
        guide.p_up = 0.0
        guide.continue_prob = 0.0
        if directional and card > 1:
            ordering = hints_p.ordering
            if ordering is not None:
                index_map = codec.index_maps[pos]
                axis_codes = tuple(
                    index_map[freeze_value(v)] for v in ordering
                )
                guide.has_axis = True
                guide.axis_size = len(axis_codes)
                guide.axis_to_code = axis_codes
                guide.code_to_axis = {
                    code: i for i, code in enumerate(axis_codes)
                }
            elif codec.ordered[pos]:
                # The domain order is the axis: code == axis position.
                guide.has_axis = True
                guide.identity_axis = True
                guide.axis_size = card
            if guide.has_axis:
                if hints_p.target is not None:
                    target_code = codec.index_maps[pos][
                        freeze_value(hints_p.target)
                    ]
                    target_axis = (
                        target_code
                        if guide.identity_axis
                        else guide.code_to_axis[target_code]
                    )
                    # Same expressions, same summation order as the
                    # historical per-call computation — the floats (and
                    # therefore every seeded draw consuming them) are
                    # bit-identical.
                    weights = [
                        _STEP_TAIL ** abs(i - target_axis)
                        for i in range(guide.axis_size)
                    ]
                    guide.target_weights = weights
                    guide.target_total = sum(weights)
                else:
                    guide.p_up = (1.0 + hints_p.bias) / 2.0
                    step_hint = hints_p.step
                    if step_hint is None:
                        guide.continue_prob = _STEP_TAIL
                    else:
                        # Geometric with mean ``step_hint``: mean = 1 / (1 - q).
                        guide.continue_prob = max(
                            0.0, min(0.9, 1.0 - 1.0 / max(step_hint, 1))
                        )
        genes.append(guide)
    return tuple(genes)


class _ResolvedGuidance(NamedTuple):
    """One guidance state, resolved against a space codec.

    :meth:`BreedingPipeline.breed` resolves its generation's
    :class:`~repro.core.guidance.GuidanceState` once, and the whole
    generation's breeding reads that resolution. Only the confidence and
    the per-gene rates are computed per state; ``genes`` is the hint set's
    shared table.
    """

    confidence: float
    rates: list[float]
    genes: tuple[_GeneGuide, ...]


def _mutate_code(
    guide: _GeneGuide, cur: int, confidence: float, rng: random.Random
) -> tuple[int, str]:
    """New code for one fired gene plus its attribution channel.

    The draw sequence replicates the value-based ``_mutate_value`` exactly:
    a confidence-gate ``random()`` only when the gene is directional, then
    either the uniform different-code draw (``randrange(cardinality - 1)``'s
    draws, taken with ``getrandbits`` and its redraw loop), the target scan
    (one ``random()``), or the biased step (one direction ``random()`` plus
    the geometric continuation draws).
    """
    if guide.cardinality == 1:
        return cur, "noop"
    guided = guide.directional and rng.random() < confidence
    if not guided or not guide.has_axis:
        getrandbits, bits, others = rng.getrandbits, guide.bits, guide.others
        idx = getrandbits(bits)
        while idx >= others:
            idx = getrandbits(bits)
        # A lost gate, or a guided gene without an ordinal axis, falls back.
        channel = "fallback" if guide.directional else "uniform"
        return (idx + 1 if idx >= cur else idx), channel
    cur_axis = cur if guide.identity_axis else guide.code_to_axis[cur]
    if guide.target_weights is not None:
        pick = rng.random() * guide.target_total
        acc = 0.0
        new_axis = guide.axis_size - 1
        for i, w in enumerate(guide.target_weights):
            acc += w
            if pick <= acc:
                new_axis = i
                break
        channel = "target"
    else:
        direction = 1 if rng.random() < guide.p_up else -1
        magnitude = 1
        size = guide.axis_size
        while rng.random() < guide.continue_prob and magnitude < size:
            magnitude += 1
        new_axis = min(max(cur_axis + direction * magnitude, 0), size - 1)
        channel = "bias"
    if guide.identity_axis:
        return new_axis, channel
    return guide.axis_to_code[new_axis], channel


def _mutate_codes(codes: tuple, resolved: _ResolvedGuidance, rng, channels) -> tuple:
    """:meth:`GeneticOperators.mutate` on a code vector: ``codes`` itself
    when no gene fired, else a new vector."""
    new_codes: list[int] | None = None
    confidence = resolved.confidence
    genes = resolved.genes
    draw = rng.random
    for pos, rate in enumerate(resolved.rates):
        if draw() < rate:
            guide = genes[pos]
            # Fired genes read the *original* code, matching the
            # historical read from the input genome.
            code, channel = _mutate_code(guide, codes[pos], confidence, rng)
            if new_codes is None:
                new_codes = list(codes)
            new_codes[pos] = code
            if channels is not None:
                channels.append((guide.name, channel))
    return codes if new_codes is None else tuple(new_codes)


def _single_point(rng: random.Random, genes: int) -> Callable[[tuple, tuple], tuple]:
    """Bind single-point crossover of ``genes``-long code vectors: a prefix
    of one, the suffix of the other, cut at ``randrange(1, genes)`` drawn
    with ``getrandbits`` and its redraw loop."""
    if genes < 2:
        return lambda a, b: b
    getrandbits, span, bits = rng.getrandbits, genes - 1, (genes - 1).bit_length()

    def splice(a: tuple, b: tuple) -> tuple:
        r = getrandbits(bits)
        while r >= span:
            r = getrandbits(bits)
        return a[: r + 1] + b[r + 1 :]

    return splice


def single_point_crossover(a: Genome, b: Genome, rng: random.Random) -> Genome:
    """Take a prefix of genes from one parent and the suffix from the other."""
    return Genome.from_codes(a.space, _single_point(rng, len(a.codes))(a.codes, b.codes))


def _no_clock() -> float:
    """The time source of an untimed breeding call: reads nothing."""
    return 0.0


class BreedingPipeline:
    """A generation's offspring, each one select → crossover → mutate.

    This is the declarative operator pipeline every generational engine
    passes to the kernel: the engine chooses the parent-selection strategy
    (fitness-proportional for the single-objective GA, rank/crowding
    tournament for NSGA-II) and the pipeline runs the fixed breeding
    sequence once per child, drawing every choice from the search's one
    generator. A strategy is a binder, ``select(population, rng)``, that
    returns a function drawing one parent per call; :meth:`breed` binds it
    once per call, and binding draws nothing. :meth:`breed` produces a
    whole generation in one call: it times every operator per child and
    charges the sums into the caller's ``timings`` accumulator
    (``{operator: [calls, seconds]}``) once per call, so every run can
    report where breeding time went. Nothing is kept from one call to the
    next.

    The draw order is pinned — per child: parent selection, crossover-rate
    draw, mate selection, up to 8 feasible-crossover attempts, then
    mutation — because every draw comes from one generator, so it is the
    sequence the engine-parity baseline captures.
    """

    #: Attempts at producing a structurally feasible crossover before
    #: falling back to the (feasible) first parent.
    CROSSOVER_ATTEMPTS = 8

    def __init__(
        self,
        space: DesignSpace,
        operators: GeneticOperators,
        select: Callable,
        crossover_rate: float,
        clock: Callable[[], float] | None = None,
        score: Callable[[Any], float] | None = None,
    ):
        self.space = space
        self.operators = operators
        #: ``select(population, rng)`` binds parent selection: it returns a
        #: function drawing one parent per call, bound once per
        #: :meth:`breed` call.
        self.select = select
        self.crossover_rate = crossover_rate
        #: Injectable time source for the timed breeding path (engines
        #: pass the kernel's clock; tests pass a FakeClock).
        self.clock = clock if clock is not None else time.perf_counter
        #: An individual's one score (the engine's ``_scalar``), read only
        #: when :meth:`breed` records provenance.
        self.score = score

    @staticmethod
    def _charge(
        timings: dict[str, list[float]],
        operator: str,
        calls: int,
        seconds: float,
    ) -> None:
        entry = timings.setdefault(operator, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds

    def breed(
        self,
        population: Sequence,
        guidance: GuidanceState,
        rng: random.Random,
        count: int,
        timings: dict[str, list[float]] | None = None,
        bred: list[tuple] | None = None,
    ) -> list[Genome]:
        """Breed ``count`` offspring genomes under this generation's guidance.

        The generation works on code vectors, with parent draws, the
        crossover splice and guidance bound once per call; a child whose
        codes differ from its parent's gets one new :class:`Genome`.

        Without ``timings`` the clock is never read; with it, every
        operator is timed per child and the sums are charged once.

        With a ``bred`` list, each child appends its provenance
        ``(parent score, crossed, mutations, fallback)``: ``crossed`` is
        set when a feasible crossover was taken, ``mutations`` is the
        accepted attempt's ``(param, channel)`` list, and a fallback to
        the unmutated genome records ``()`` and ``True``. Recording draws
        nothing.
        """
        score = self.score
        record = bred is not None
        draw = self.select(population, rng)
        crossover_rate = self.crossover_rate
        attempts = range(self.CROSSOVER_ATTEMPTS)
        space = self.space
        splice = _single_point(rng, space.codec.num_params)
        feasible = space.feasible_codes
        resolved = self.operators._resolve(guidance)
        clock = self.clock if timings is not None else _no_clock
        crossover_draw = rng.random
        crossings = 0
        crossed_first = False
        select_s = crossover_s = mutation_s = 0.0
        children: list[Genome] = []
        for _ in range(count):
            t0 = clock()
            parent = draw()
            genome = parent.genome
            codes = start = genome.codes
            t1 = clock()
            select_s += t1 - t0
            crossed = False
            if crossover_draw() < crossover_rate:
                if not children:
                    crossed_first = True
                t1 = clock()
                mate = draw().genome.codes
                t2 = clock()
                select_s += t2 - t1
                for _ in attempts:
                    candidate = splice(start, mate)
                    if feasible(candidate):
                        codes = candidate
                        crossed = True
                        break
                crossover_s += clock() - t2
                crossings += 1
            t3 = clock()
            codes, mutations = _mutate_feasible(codes, resolved, rng, feasible, record)
            mutation_s += clock() - t3
            children.append(
                genome if codes is start else Genome.from_codes(space, codes)
            )
            if record:
                fallback = mutations is None
                bred.append(
                    (score(parent), crossed, () if fallback else mutations, fallback)
                )
        if timings is not None and count > 0:
            # Keys keep the order of each operator's first charge, as when
            # every child was charged on its own: crossover precedes
            # mutation only when the first child crossed.
            charge = self._charge
            charge(timings, "selection", count + crossings, select_s)
            if crossed_first:
                charge(timings, "crossover", crossings, crossover_s)
            charge(timings, "mutation", count, mutation_s)
            if crossings and not crossed_first:
                charge(timings, "crossover", crossings, crossover_s)
        return children


class GeneticOperators:
    """Mutation machinery for a design space, guided per-generation.

    Every guided decision reads a :class:`~repro.core.guidance.GuidanceState`
    — the per-generation snapshot a guidance provider produced. With a
    neutral state (no hints, zero confidence) this degenerates exactly to
    the baseline GA's operators: every gene mutates with probability
    ``mutation_rate`` and mutated genes receive a uniform random new value.

    Hint-vs-space validation happens when the guidance provider binds to
    the engine, not here — the operators trust the states they are handed.

    Args:
        space: The design space being searched.
        mutation_rate: Per-gene mutation probability (paper default 0.1).
    """

    def __init__(self, space: DesignSpace, mutation_rate: float = 0.1):
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
        self.space = space
        self.mutation_rate = mutation_rate
        # ``(hint set, gene tables)`` of the last hint set resolved. A
        # provider keeps one hint set for a whole search (an estimating
        # provider swaps it once), so the tables are built once per search.
        self._guides: tuple | None = None

    # -- gene selection ---------------------------------------------------------

    def gene_mutation_rates(self, guidance: GuidanceState | None) -> dict[str, float]:
        """Per-gene mutation probabilities under one generation's guidance.

        Importance weights are normalized so the *expected number of
        mutations per genome* equals ``mutation_rate * num_params`` exactly
        as in the baseline; only the distribution over genes changes. The
        guided distribution is then blended with the flat baseline one
        according to the state's confidence.
        """
        names = self.space.param_names
        return dict(zip(names, _blended_gene_rates(names, guidance, self.mutation_rate)))

    def _resolve(self, guidance: GuidanceState | None) -> _ResolvedGuidance:
        """The codec-resolved form of a guidance state (the gene tables
        come from the hint set's kept ones)."""
        hints = guidance.hints if guidance is not None else None
        guides = self._guides
        if guides is None or guides[0] is not hints:
            guides = self._guides = (hints, _gene_guides(self.space.codec, hints))
        return _ResolvedGuidance(
            guidance.confidence if guidance is not None else 0.0,
            _blended_gene_rates(self.space.codec.names, guidance, self.mutation_rate),
            guides[1],
        )

    # -- value assignment ---------------------------------------------------------

    def _axis(self, param: Param, guidance: GuidanceState | None) -> tuple | None:
        """Ordinal axis for guided assignment, or None when undefined."""
        if guidance is not None and guidance.hints is not None:
            ordering = guidance.hints.for_param(param.name).ordering
            if ordering is not None:
                return ordering
        if param.ordered:
            return param.values
        return None

    def mutate_value(
        self, param: Param, current, guidance: GuidanceState | None, rng: random.Random
    ):
        """Pick a new value for one gene.

        With probability ``confidence`` the guided sampler runs (bias-tilted
        step or target pull); otherwise — and always in the baseline — a
        uniform random different value is drawn.
        """
        return self._mutate_value(param, current, guidance, rng)[0]

    def _mutate_value(
        self, param: Param, current, guidance: GuidanceState | None, rng: random.Random
    ) -> tuple[Any, str]:
        """The value for one gene plus the attribution channel it came from.

        Channels: ``"bias"`` / ``"target"`` (confidence gate passed, guided
        sampler ran), ``"fallback"`` (the param carries directional hints
        but the gate lost — or no ordinal axis exists — so the baseline
        uniform draw ran), ``"uniform"`` (no directional hints for this
        param), ``"noop"`` (cardinality-1 param; nothing can change). The
        draw sequence is identical for every channel outcome.
        """
        if param.cardinality == 1:
            return current, "noop"
        hints = guidance.for_param(param.name) if guidance is not None else None
        confidence = guidance.confidence if guidance is not None else 0.0
        directional = hints is not None and (
            hints.bias != 0.0 or hints.target is not None
        )
        guided = directional and rng.random() < confidence
        if not guided:
            channel = "fallback" if directional else "uniform"
            return param.random_other_value(current, rng), channel
        axis = self._axis(param, guidance)
        if axis is None:
            return param.random_other_value(current, rng), "fallback"
        index = {self._freeze(v): i for i, v in enumerate(axis)}
        cur = index[self._freeze(current)]
        if hints.target is not None:
            new = self._sample_toward_target(cur, index[self._freeze(hints.target)], len(axis), rng)
            return axis[new], "target"
        new = self._sample_biased_step(cur, hints.bias, hints.step, len(axis), rng)
        return axis[new], "bias"

    @staticmethod
    def _freeze(value):
        return tuple(value) if isinstance(value, list) else value

    @staticmethod
    def _sample_toward_target(
        current: int, target: int, size: int, rng: random.Random
    ) -> int:
        """Sample an index with geometric weight decay away from the target.

        Every index keeps nonzero probability, so the search can still move
        away from a misleading target. The sample may land on the current
        index: a guided mutation that re-proposes the value it already holds
        is a *revisit*, which costs nothing under the evaluation cache —
        this is why the paper's Nautilus curves stop earlier on the
        "# designs evaluated" axis as the population converges.
        """
        weights = [_STEP_TAIL ** abs(i - target) for i in range(size)]
        total = sum(weights)
        pick = rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if pick <= acc:
                return i
        return size - 1

    @staticmethod
    def _sample_biased_step(
        current: int,
        bias: float,
        step_hint: int | None,
        size: int,
        rng: random.Random,
    ) -> int:
        """Take a geometric-magnitude step, direction tilted by the bias.

        ``bias = +1`` makes an upward step (toward higher metric values)
        certain; ``bias = 0`` is a fair coin; the magnitude follows a
        geometric distribution whose expected value tracks the step hint.
        Steps that would leave the axis are *clamped* to the boundary. A
        gene already sitting at the boundary its bias points to therefore
        keeps its value: the converged gene stops generating new design
        points, and the cached evaluator makes the re-proposal free — the
        mechanism behind the paper's observation that guided runs
        synthesize fewer designs for the same number of generations.
        """
        p_up = (1.0 + bias) / 2.0
        direction = 1 if rng.random() < p_up else -1
        if step_hint is None:
            continue_prob = _STEP_TAIL
        else:
            # Geometric with mean ``step_hint``: mean = 1 / (1 - q).
            continue_prob = max(0.0, min(0.9, 1.0 - 1.0 / max(step_hint, 1)))
        magnitude = 1
        while rng.random() < continue_prob and magnitude < size:
            magnitude += 1
        return min(max(current + direction * magnitude, 0), size - 1)

    # -- whole-genome mutation --------------------------------------------------

    def mutate(
        self,
        genome: Genome,
        guidance: GuidanceState | None,
        rng: random.Random,
        channels: list[tuple[str, str]] | None = None,
    ) -> Genome:
        """Mutate a genome: each gene flips per its (possibly guided) rate.

        Runs entirely on the genome's code vector against the resolved
        guidance tables. A fired gene always records a change (even when the
        sampled code equals the current one — the historical ``replace``
        semantics), so the result is a *new* genome whenever any gate fired;
        with no fired genes the input genome is returned unchanged. Given a
        ``channels`` list, each fired gene appends its ``(param, channel)``
        pair to it.
        """
        codes = genome.codes
        mutated = _mutate_codes(codes, self._resolve(guidance), rng, channels)
        return genome if mutated is codes else Genome.from_codes(genome.space, mutated)

    def mutate_feasible(
        self,
        genome: Genome,
        guidance: GuidanceState | None,
        rng: random.Random,
        max_attempts: int = 32,
        record: bool = False,
    ) -> tuple[Genome, Sequence[tuple[str, str]] | None]:
        """Mutate, retrying until the result satisfies structural constraints.

        Returns the accepted genome with its attempt's ``(param, channel)``
        pairs — a fresh list with ``record``, else ``()``. When every
        attempt lands in an infeasible hole it falls back to the (feasible)
        input genome and returns ``None`` for the pairs — the operator
        never manufactures an invalid design point.
        """
        codes, feasible = genome.codes, self.space.feasible_codes
        mutated, pairs = _mutate_feasible(
            codes, self._resolve(guidance), rng, feasible, record, max_attempts
        )
        if mutated is not codes:
            genome = Genome.from_codes(genome.space, mutated)
        return genome, pairs


def _mutate_feasible(codes: tuple, resolved, rng, feasible, record, max_attempts=32):
    """:meth:`GeneticOperators.mutate_feasible` on a code vector (``codes``
    itself and ``None`` after the last infeasible attempt)."""
    for _ in range(max_attempts):
        channels = [] if record else None
        mutated = _mutate_codes(codes, resolved, rng, channels)
        if feasible(mutated):
            return mutated, () if channels is None else channels
    return codes, None
