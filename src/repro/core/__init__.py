"""Nautilus core: guided genetic algorithm for IP design space search.

This subpackage is the paper's primary contribution — a generational GA
extended with IP-author hints (importance, importance decay, bias, target,
confidence, plus ordering/stepping auxiliaries) that steer the search toward
profitable regions of an IP generator's parameter space while staying
stochastic enough to recover from imperfect guidance.

Typical usage::

    from repro.core import (
        DesignSpace, PowOfTwoParam, ChoiceParam, GAConfig,
        GeneticSearch, HintSet, ParamHints, maximize,
    )

    space = DesignSpace("my_ip", [...])
    hints = HintSet({"buffer_depth": ParamHints(importance=90, bias=-0.8)},
                    confidence=0.7)
    search = GeneticSearch(space, my_evaluator, maximize("fmax_mhz"),
                           GAConfig(seed=1), hints=hints)
    result = search.run()
    print(result.best_raw, result.best_config)
"""

from .errors import (
    DatasetError,
    EvaluationError,
    GenomeError,
    HintError,
    InfeasibleDesignError,
    NautilusError,
    ParameterError,
    SpaceError,
    SynthesisError,
)
from .params import (
    BoolParam,
    ChoiceParam,
    IntParam,
    OrderedParam,
    Param,
    PowOfTwoParam,
    freeze_value,
    values_key,
)
from .genome import Genome
from .codec import SpaceCodec
from .population import Population
from .space import DesignSpace
from .hints import DEFAULT_IMPORTANCE, HintSet, ParamHints
from .guidance import (
    HINTS_SCHEMA_VERSION,
    AdaptiveConfidence,
    EstimatedHints,
    GuidanceProvider,
    GuidanceState,
    HintSpecError,
    StaticHints,
    hintset_from_json,
    hintset_to_json,
    provider_from_spec,
)
from .operators import (
    BreedingPipeline,
    GeneticOperators,
    scalar_score,
    single_point_crossover,
    two_point_crossover,
    uniform_crossover,
)
from .selection import (
    Individual,
    rank_selection,
    roulette_selection,
    tournament_selection,
)
from .fitness import Metrics, Objective, maximize, minimize
from .evalstack import (
    EvalStats,
    EvaluationStack,
    PersistentCache,
    evaluator_fingerprint,
)
from .evaluator import CallableEvaluator, DatasetEvaluator, Evaluator
from .engine import (
    GAConfig,
    GenerationRecord,
    GeneticSearch,
    RandomSearch,
    SearchResult,
    exhaustive_best,
)
from .kernel import (
    RUN_EVENT_KINDS,
    CappedJsonlTraceSink,
    GenerationalEngine,
    JsonlTraceSink,
    RecordingTraceSink,
    RngStreams,
    RunEvent,
    RunTrace,
    SearchKernel,
    TraceSink,
)
from .estimation import SweepObservation, estimate_hints
from .expressions import (
    ExpressionError,
    objective_from_expression,
    parse_expression,
)
from .checkpoint import SearchCheckpoint
from .pareto import (
    ParetoIndividual,
    ParetoResult,
    ParetoSearch,
    crowding_distances,
    dominates,
    hypervolume_2d,
    non_dominated_sort,
)

__all__ = [
    # errors
    "NautilusError",
    "ParameterError",
    "GenomeError",
    "HintError",
    "SpaceError",
    "InfeasibleDesignError",
    "EvaluationError",
    "DatasetError",
    "SynthesisError",
    # parameters / genomes / spaces
    "Param",
    "IntParam",
    "PowOfTwoParam",
    "OrderedParam",
    "ChoiceParam",
    "BoolParam",
    "freeze_value",
    "values_key",
    "Genome",
    "SpaceCodec",
    "Population",
    "DesignSpace",
    # hints
    "ParamHints",
    "HintSet",
    "DEFAULT_IMPORTANCE",
    # guidance stack
    "GuidanceState",
    "GuidanceProvider",
    "StaticHints",
    "AdaptiveConfidence",
    "EstimatedHints",
    "HintSpecError",
    "HINTS_SCHEMA_VERSION",
    "hintset_to_json",
    "hintset_from_json",
    "provider_from_spec",
    # operators / selection
    "GeneticOperators",
    "BreedingPipeline",
    "scalar_score",
    "uniform_crossover",
    "single_point_crossover",
    "two_point_crossover",
    "Individual",
    "rank_selection",
    "tournament_selection",
    "roulette_selection",
    # fitness / evaluation
    "Objective",
    "Metrics",
    "maximize",
    "minimize",
    "Evaluator",
    "CallableEvaluator",
    "DatasetEvaluator",
    # evaluation stack
    "EvalStats",
    "EvaluationStack",
    "PersistentCache",
    "evaluator_fingerprint",
    # engines
    "GAConfig",
    "GenerationRecord",
    "SearchResult",
    "GeneticSearch",
    "RandomSearch",
    "exhaustive_best",
    # search kernel / tracing
    "SearchKernel",
    "GenerationalEngine",
    "RngStreams",
    "RunEvent",
    "RunTrace",
    "RUN_EVENT_KINDS",
    "CappedJsonlTraceSink",
    "TraceSink",
    "RecordingTraceSink",
    "JsonlTraceSink",
    # estimation
    "estimate_hints",
    "SweepObservation",
    # composite-metric expressions
    "parse_expression",
    "objective_from_expression",
    "ExpressionError",
    # checkpoint format
    "SearchCheckpoint",
    # multi-objective extension
    "ParetoIndividual",
    "ParetoResult",
    "ParetoSearch",
    "dominates",
    "non_dominated_sort",
    "crowding_distances",
    "hypervolume_2d",
]
