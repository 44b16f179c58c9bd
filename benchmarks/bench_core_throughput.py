"""Core-throughput benchmark: encoded-genome hot path vs the dict-based core.

Measures the breeding hot path three ways and writes
``results/BENCH_core.json`` (``results/BENCH_core.quick.json`` with
``--quick``, so a smoke run leaves the committed capture alone):

* **current** — the encoded core as shipped: code-vector crossover/mutation,
  resolved per-generation guidance, a roulette wheel bound once per
  generation, O(changes) ``replace``.
* **reference** — the pre-refactor *algorithms* re-implemented in this file
  on today's API (dict-decode per crossover, per-call rate dicts and axis
  builds, full re-validating genome rebuild per mutation). Running both in
  the same process on the same machine gives a machine-independent speedup
  ratio that CI can assert.
* **pre-refactor capture** — ``benchmarks/baselines/core_throughput_pre.json``,
  absolute numbers captured on the seed tree before the refactor (only
  comparable on the capture machine).

The reference pipeline is also a *parity witness*: it consumes RNG draws in
the exact historical order, so a seeded end-to-end run through it must
produce bit-identical results to the encoded pipeline — asserted on every
invocation before any timing is trusted.

Usage::

    python benchmarks/bench_core_throughput.py           # full run
    python benchmarks/bench_core_throughput.py --quick   # CI perf smoke:
        # smaller workload, asserts the speedup floors vs the in-run
        # reference (>=3x operator microbench, >=1.5x end-to-end).
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import maximize  # noqa: E402
from repro.core.engine import GAConfig, GeneticSearch  # noqa: E402
from repro.core.evalstack import EvaluationStack  # noqa: E402
from repro.core.evaluator import DatasetEvaluator  # noqa: E402
from repro.core.genome import Genome  # noqa: E402
from repro.core.guidance import StaticHints  # noqa: E402
from repro.core.operators import BreedingPipeline, GeneticOperators  # noqa: E402
from repro.core.selection import Individual, roulette_wheel  # noqa: E402
from repro.queries import QUERIES, build_hints, load_dataset  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "baselines" / "core_throughput_pre.json"
RESULTS = Path(__file__).resolve().parents[1] / "results" / "BENCH_core.json"
QUICK_RESULTS = RESULTS.with_name("BENCH_core.quick.json")

#: Floors the quick (CI) mode asserts against the in-run reference.
MICRO_FLOOR = 3.0
E2E_FLOOR = 1.5


# -- the pre-refactor algorithms, verbatim shapes on today's API --------------
#
# These are *not* dead code kept around: they are the measurement reference
# and the draw-order witness. Do not "optimize" them — their cost profile
# (dict decode per crossover, per-call rate dict + axis index builds, full
# re-validating rebuild per mutation) is the thing being measured against.


def legacy_roulette_selection(population, rng):
    # Pre-refactor roulette: walk every row's .score attribute and rebuild
    # the weight table on each parent draw.
    finite = [ind.score for ind in population if ind.score != float("-inf")]
    if not finite:
        return population[rng.randrange(len(population))]
    floor = min(finite)
    weights = [
        (ind.score - floor) if ind.score != float("-inf") else 0.0
        for ind in population
    ]
    total = sum(weights)
    if total <= 0.0:
        return population[rng.randrange(len(population))]
    pick = rng.random() * total
    acc = 0.0
    for individual, weight in zip(population, weights):
        acc += weight
        if pick <= acc:
            return individual
    return population[-1]


def legacy_single_point_crossover(a: Genome, b: Genome, rng) -> Genome:
    names = a.space.param_names
    point = rng.randrange(1, len(names)) if len(names) > 1 else 0
    values = {}
    for i, name in enumerate(names):
        values[name] = a[name] if i < point else b[name]
    return Genome(a.space, values)


class LegacyOperators(GeneticOperators):
    """Historical whole-genome mutation: per-call rates, dict rebuild."""

    def mutate(self, genome, guidance, rng, channels=None):
        rates = self.gene_mutation_rates(guidance)
        changes = {}
        for param in self.space.params:
            if rng.random() < rates[param.name]:
                value, channel = self._mutate_value(
                    param, genome[param.name], guidance, rng
                )
                changes[param.name] = value
                if channels is not None:
                    channels.append((param.name, channel))
        if not changes:
            return genome
        # Full re-validating rebuild — the pre-refactor replace cost.
        merged = dict(genome)
        merged.update(changes)
        return Genome(genome.space, merged)

    def mutate_feasible(self, genome, guidance, rng, max_attempts=32, record=False):
        # The historical attempt loop over this class's mutate.
        for _ in range(max_attempts):
            channels = [] if record else None
            mutated = self.mutate(genome, guidance, rng, channels)
            if self.space.is_feasible(mutated):
                return mutated, () if channels is None else channels
        return genome, None


def legacy_is_feasible(space, genome) -> bool:
    # Pre-refactor feasibility: materialize a config dict per check.
    if not space.constraints:
        return True
    config = dict(genome)
    return all(constraint(config) for constraint in space.constraints)


def _charge(timings, operator, seconds):
    entry = timings.setdefault(operator, [0, 0.0])
    entry[0] += 1
    entry[1] += seconds


class LegacyBreedingPipeline(BreedingPipeline):
    """The historical per-child breed sequence with dict-based feasibility
    checks. Like the shipped pipeline it times each operator when given
    ``timings`` (charged as soon as it ran) and records each child's
    ``(parent score, crossed, mutations, fallback)`` when given ``bred``,
    so an end-to-end run through it pays for the same telemetry."""

    def breed(self, population, guidance, rng, count, timings=None, bred=None):
        clock = self.clock
        children = []
        for _ in range(count):
            if timings is not None:
                t0 = clock()
            parent = self.select(population, rng)
            genome = parent.genome
            if timings is not None:
                _charge(timings, "selection", clock() - t0)
            crossed = False
            if rng.random() < self.crossover_rate:
                if timings is not None:
                    t1 = clock()
                other = self.select(population, rng)
                if timings is not None:
                    t2 = clock()
                    _charge(timings, "selection", t2 - t1)
                for _ in range(self.CROSSOVER_ATTEMPTS):
                    candidate = legacy_single_point_crossover(
                        parent.genome, other.genome, rng
                    )
                    if legacy_is_feasible(self.space, candidate):
                        genome = candidate
                        crossed = True
                        break
                if timings is not None:
                    _charge(timings, "crossover", clock() - t2)
            if timings is not None:
                t3 = clock()
            child, mutations = self.operators.mutate_feasible(
                genome, guidance, rng, record=bred is not None
            )
            children.append(child)
            if timings is not None:
                _charge(timings, "mutation", clock() - t3)
            if bred is not None:
                fallback = mutations is None
                bred.append(
                    (self.score(parent), crossed, () if fallback else mutations, fallback)
                )
        return children


# -- measurement ---------------------------------------------------------------


def best_rate(fn, units: int, repeats: int) -> float:
    """Best-of-N units/sec (min-time is the standard low-noise estimator)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return units / min(times)


def build_breeding(
    space, objective, hints, dataset, pipeline_cls, operators_cls, select
):
    stack = EvaluationStack.wrap(DatasetEvaluator(dataset))
    provider = StaticHints(hints)
    provider.bind(space, objective, stack)
    state = provider.start()
    operators = operators_cls(space, 0.1)
    pipeline = pipeline_cls(space, operators, select, 0.9)
    return pipeline, state


def micro_bench(space, objective, hints, dataset, breeds, repeats):
    """Breed throughput for the encoded pipeline and the legacy reference."""
    rates = {}
    for label, pipeline_cls, operators_cls, select in (
        ("current", BreedingPipeline, GeneticOperators, roulette_wheel),
        (
            "reference",
            LegacyBreedingPipeline,
            LegacyOperators,
            legacy_roulette_selection,
        ),
    ):
        pipeline, state = build_breeding(
            space, objective, hints, dataset, pipeline_cls, operators_cls,
            select,
        )
        rng = random.Random(1234)
        pop_genomes = space.random_population(24, rng)
        # The engine hands pipelines a list of individuals — benchmark the
        # same shape. The legacy reference walks it as rows, exactly as the
        # pre-refactor strategies walked their list.
        population = [
            Individual(g, float(i % 7) + 1.0, float(i))
            for i, g in enumerate(pop_genomes)
        ]

        def run(pipeline=pipeline, state=state, rng=rng, population=population):
            pipeline.breed(population, state, rng, breeds, None)

        rates[label] = best_rate(run, breeds, repeats)
    return rates


def replace_bench(space, breeds, repeats):
    rng0 = random.Random(77)
    base = space.random_genome(rng0)
    name = space.param_names[0]
    param = space.params[0]

    def current():
        rng = random.Random(99)
        for _ in range(breeds):
            base.replace(**{name: param.random_value(rng)})

    def reference():
        rng = random.Random(99)
        for _ in range(breeds):
            merged = dict(base)
            merged[name] = param.random_value(rng)
            Genome(space, merged)

    return {
        "current": best_rate(current, breeds, repeats),
        "reference": best_rate(reference, breeds, repeats),
    }


def construct_bench(space, breeds, repeats):
    rng0 = random.Random(77)
    values = space.random_genome(rng0).as_dict()

    def run():
        for _ in range(breeds):
            Genome(space, values)

    return {"current": best_rate(run, breeds, repeats)}


def e2e_run(space, dataset, objective, hints, generations, legacy: bool):
    search = GeneticSearch(
        space,
        DatasetEvaluator(dataset),
        objective,
        GAConfig(population_size=24, generations=generations, seed=7),
        hints=hints,
    )
    if legacy:
        # Swap in the reference pipeline; the kernel only sees .breed().
        search.operators = LegacyOperators(space, search.config.mutation_rate)
        search.pipeline = LegacyBreedingPipeline(
            space,
            search.operators,
            legacy_roulette_selection,
            search.config.crossover_rate,
            clock=search.pipeline.clock,
            score=search.pipeline.score,
        )
    return search.run()


def e2e_bench(space, dataset, objective, hints, generations, repeats):
    rates = {}
    for label, legacy in (("current", False), ("reference", True)):
        def run(legacy=legacy):
            e2e_run(space, dataset, objective, hints, generations, legacy)

        rates[label] = best_rate(run, generations, repeats)
    return rates


def parity_witness(space, dataset, objective, hints, generations):
    """Seeded encoded and legacy runs must be bit-identical."""
    current = e2e_run(space, dataset, objective, hints, generations, legacy=False)
    legacy = e2e_run(space, dataset, objective, hints, generations, legacy=True)
    mismatches = []
    if current.best_raw != legacy.best_raw:
        mismatches.append(f"best_raw {current.best_raw} != {legacy.best_raw}")
    if current.best_config != legacy.best_config:
        mismatches.append("best_config differs")
    if current.distinct_evaluations != legacy.distinct_evaluations:
        mismatches.append(
            f"distinct_evaluations {current.distinct_evaluations} != "
            f"{legacy.distinct_evaluations}"
        )
    cur_curve = [r.best_score for r in current.records]
    leg_curve = [r.best_score for r in legacy.records]
    if cur_curve != leg_curve:
        mismatches.append("best_score curves differ")
    if mismatches:
        raise SystemExit(
            "encoded/legacy parity broken: " + "; ".join(mismatches)
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI perf smoke: small workload, assert speedup floors vs the "
        "in-run reference",
    )
    args = parser.parse_args()

    breeds = 600 if args.quick else 2000
    # Quick e2e runs long enough that per-run setup does not dilute the
    # generations/sec ratio below its steady-state value.
    generations = 25 if args.quick else 40
    repeats = 3 if args.quick else 5
    e2e_repeats = 2 if args.quick else 3

    query = QUERIES["noc-frequency"]
    dataset = load_dataset(query.space)
    space = dataset.space
    objective = maximize(query.metric)
    hints = build_hints(query.hint_kind)

    print("parity witness: seeded encoded vs legacy run ...", flush=True)
    parity_witness(space, dataset, objective, hints, generations)
    print("  ok: bit-identical", flush=True)

    micro = micro_bench(space, objective, hints, dataset, breeds, repeats)
    replace = replace_bench(space, breeds, repeats)
    construct = construct_bench(space, breeds, repeats)
    e2e = e2e_bench(space, dataset, objective, hints, generations, e2e_repeats)

    pre = json.loads(BASELINE.read_text()) if BASELINE.exists() else None
    vs_reference = {
        "breed": micro["current"] / micro["reference"],
        "replace": replace["current"] / replace["reference"],
        "e2e": e2e["current"] / e2e["reference"],
    }
    vs_capture = None
    if pre is not None:
        vs_capture = {
            "breed": micro["current"] / pre["micro"]["breed_per_sec"],
            "replace": replace["current"] / pre["micro"]["replace_per_sec"],
            "construct": construct["current"] / pre["micro"]["construct_per_sec"],
            "e2e": e2e["current"] / pre["e2e"]["generations_per_sec"],
        }

    out = {
        "workload": {
            "query": "noc-frequency",
            "population": 24,
            "micro_breeds": breeds,
            "e2e_generations": generations,
            "seed": 7,
            "quick": args.quick,
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
        "current": {
            "breed_per_sec": micro["current"],
            "replace_per_sec": replace["current"],
            "construct_per_sec": construct["current"],
            "e2e_generations_per_sec": e2e["current"],
        },
        "reference": {
            "breed_per_sec": micro["reference"],
            "replace_per_sec": replace["reference"],
            "e2e_generations_per_sec": e2e["reference"],
        },
        "pre_capture": pre,
        "speedup": {"vs_reference": vs_reference, "vs_capture": vs_capture},
        "floors": {"micro": MICRO_FLOOR, "e2e": E2E_FLOOR},
    }

    path = QUICK_RESULTS if args.quick else RESULTS
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out["speedup"], indent=2))
    print(f"wrote {path}")

    if args.quick:
        failures = []
        if vs_reference["breed"] < MICRO_FLOOR:
            failures.append(
                f"breed microbench {vs_reference['breed']:.2f}x < {MICRO_FLOOR}x"
            )
        if vs_reference["e2e"] < E2E_FLOOR:
            failures.append(
                f"e2e {vs_reference['e2e']:.2f}x < {E2E_FLOOR}x"
            )
        if failures:
            raise SystemExit("speedup floors not met: " + "; ".join(failures))
        print(
            f"floors met: breed {vs_reference['breed']:.2f}x >= {MICRO_FLOOR}x, "
            f"e2e {vs_reference['e2e']:.2f}x >= {E2E_FLOOR}x"
        )


if __name__ == "__main__":
    main()
