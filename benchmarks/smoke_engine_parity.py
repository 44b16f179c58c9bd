"""CI smoke check: seeded engine curves must be bit-stable across refactors.

Runs fig4/fig6-style workloads (noc-frequency and fft-luts) through every
single-objective engine — the baseline GA, the guided (nautilus) GA, the
GA guided by ``AdaptiveConfidence``, and the random-sampling baseline —
plus both multi-objective queries through the NSGA-II ``ParetoSearch``
(population 24, 80 generations, as the service runs them), and compares
the *full* per-generation convergence curve of each of the 20 seeded runs
against the checked-in baseline in
``benchmarks/baselines/engine_parity.json``. Pareto runs also pin their
final non-dominated front: sorted raw metric tuples and sorted parameter
assignments.

Every run a ``CampaignSpec`` can name (baseline, nautilus, random and
Pareto) is built by ``repro.service.campaign.build_search``, the one
builder that the daemon, perfbench, ``nautilus optimize`` and the figure
builders use, so the pins cover the path that ships. The adaptive runs,
the observability-off pass and the explicit-``StaticHints`` pass build
their engines directly, because no spec can express them.

Where ``smoke_eval_counts.py`` pins only the end-of-run distinct-evaluation
count, this check pins every point of every curve: generation index,
distinct evaluations, best raw metric and best internal score. Any engine
or kernel refactor must leave all of them bit-identical for a fixed seed;
a drift here means seeded searches no longer reproduce prior revisions.

The matrix runs with observability (hint attribution + health telemetry)
at its default, *enabled* — so the pinned baseline also proves telemetry
never perturbs the search. A second in-process pass re-runs seeded
GA/adaptive/Pareto searches with ``GAConfig(observability=False)`` and
demands bit-identical curves: instrumentation must consume zero RNG.
A third pass re-runs the full matrix with ``GAConfig(tracing=True)``
against the same baseline — span tracing is held to the same zero-RNG
bar — and checks one traced run's span tree closes its accounting.

The observability-payload pass pins the telemetry itself. For each of
the 16 matrix runs that emit it (the GA and Pareto runs; random sampling
emits none) it records the run's event count, the count of each
telemetry kind, and one sha256 over the ``json.dumps`` lines of its
``hint-attribution`` and ``health`` events, and compares them with
``benchmarks/baselines/obs_payloads.json``. Those two kinds are what the
``nautilus hints`` report and the health views fold, so the pass also
proves both reports unchanged. A faster telemetry path must keep every
byte.

Usage::

    PYTHONPATH=src python benchmarks/smoke_engine_parity.py             # check
    PYTHONPATH=src python benchmarks/smoke_engine_parity.py --update    # rebaseline
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.core import (
    AdaptiveConfidence,
    DatasetEvaluator,
    GAConfig,
    GeneticSearch,
    ParetoSearch,
)
from repro.queries import (
    MULTI_QUERIES,
    QUERIES,
    build_hints,
    load_dataset,
    resolve_multi_objectives,
    resolve_objective,
)
from repro.service.campaign import CampaignSpec, build_search

BASELINE_PATH = Path(__file__).parent / "baselines" / "engine_parity.json"
PAYLOADS_PATH = Path(__file__).parent / "baselines" / "obs_payloads.json"
TELEMETRY_KINDS = ("hint-attribution", "health")
WORKLOADS = ("noc-frequency", "fft-luts")
ENGINES = ("baseline", "nautilus", "adaptive", "random")
SEEDS = (0, 1)
GENERATIONS = 15
RANDOM_BUDGET = 120
PARETO_POPULATION = 24
PARETO_GENERATIONS = 80


def _build(query_name: str, engine: str, dataset, seed: int, tracing: bool = False):
    """One matrix run. Every engine a spec can name is built by
    ``build_search``, the builder the daemon, perfbench, ``nautilus
    optimize`` and the figures use; the adaptive run has no spec."""
    if engine != "adaptive":
        spec = CampaignSpec(
            query_name,
            engine=engine,
            generations=PARETO_GENERATIONS if engine == "pareto" else GENERATIONS,
            seed=seed,
            budget=RANDOM_BUDGET,
            tracing=tracing,
        )
        return build_search(spec, dataset)
    objective, hint_kind = resolve_objective(QUERIES[query_name])
    return GeneticSearch(
        dataset.space,
        DatasetEvaluator(dataset),
        objective,
        GAConfig(generations=GENERATIONS, seed=seed, tracing=tracing),
        guidance=AdaptiveConfidence(build_hints(hint_kind)),
    )


def _curve(result) -> list[list]:
    return [
        [r.generation, r.distinct_evaluations, r.best_raw, r.best_score]
        for r in result.records
    ]


def _telemetry(result) -> dict | None:
    """Event count, telemetry counts and one digest of a run's telemetry
    lines; None when the run emits no telemetry."""
    lines = [
        json.dumps(event.as_dict())
        for event in result.events
        if event.kind in TELEMETRY_KINDS
    ]
    if not lines:
        return None
    counts = {
        kind: sum(event.kind == kind for event in result.events)
        for kind in TELEMETRY_KINDS
    }
    digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode())
    return {"events": len(result.events), **counts, "sha256": digest.hexdigest()}


def run_workload(
    tracing: bool = False, payloads: dict[str, dict] | None = None
) -> dict[str, dict]:
    """Run the matrix; fills ``payloads`` (when given) with the telemetry
    pin of every run that emits telemetry."""
    results = {}
    for query_name in WORKLOADS:
        dataset = load_dataset(QUERIES[query_name].space)
        for engine in ENGINES:
            for seed in SEEDS:
                result = _build(
                    query_name, engine, dataset, seed, tracing=tracing
                ).run()
                key = f"{query_name}/{engine}/{seed}"
                results[key] = {
                    "stop_reason": result.stop_reason,
                    "distinct_evaluations": result.distinct_evaluations,
                    "curve": _curve(result),
                }
                _pin_telemetry(payloads, key, result)
    for multi_name, multi in MULTI_QUERIES.items():
        dataset = load_dataset(multi.space)
        for seed in SEEDS:
            result = _build(
                multi_name, "pareto", dataset, seed, tracing=tracing
            ).run()
            key = f"{multi_name}/pareto/{seed}"
            _pin_telemetry(payloads, key, result)
            results[key] = {
                "stop_reason": result.stop_reason,
                "distinct_evaluations": result.distinct_evaluations,
                "curve": _curve(result),
                "front_raws": [list(raws) for raws in result.front_raws()],
                "front_configs": sorted(
                    result.front_configs(),
                    key=lambda config: json.dumps(config, sort_keys=True),
                ),
            }
    return results


def _pin_telemetry(payloads: dict | None, key: str, result) -> None:
    if payloads is not None:
        pin = _telemetry(result)
        if pin is not None:
            payloads[key] = pin


def check_payloads(payloads: dict[str, dict]) -> list[str]:
    """The matrix's telemetry against the pinned counts and digests."""
    failures = []
    expected = json.loads(PAYLOADS_PATH.read_text())
    for key in sorted(expected):
        if payloads.get(key) != expected[key]:
            failures.append(f"  {key}: telemetry payloads drifted")
    extra = sorted(set(payloads) - set(expected))
    if extra:
        failures.append(f"  unexpected telemetry runs not pinned: {extra}")
    if not failures:
        print(
            f"  ok payloads: {len(expected)} runs' hint-attribution and "
            "health events match"
        )
    return failures


def check_observability_identity() -> list[str]:
    """Same seed, observability on vs. off -> bit-identical curves."""
    failures = []
    query = QUERIES["noc-frequency"]
    dataset = load_dataset(query.space)
    objective, hint_kind = resolve_objective(query)
    hints = build_hints(hint_kind)
    for engine in ("baseline", "nautilus", "adaptive"):
        curves = {}
        for enabled in (True, False):
            config = GAConfig(
                generations=GENERATIONS, seed=0, observability=enabled
            )
            evaluator = DatasetEvaluator(dataset)
            if engine == "baseline":
                search = GeneticSearch(
                    dataset.space, evaluator, objective, config
                )
            elif engine == "nautilus":
                search = GeneticSearch(
                    dataset.space, evaluator, objective, config, hints=hints
                )
            else:
                search = GeneticSearch(
                    dataset.space, evaluator, objective, config,
                    guidance=AdaptiveConfidence(hints),
                )
            curves[enabled] = _curve(search.run())
        if curves[True] != curves[False]:
            failures.append(f"  noc-frequency/{engine}: observability drift")
        else:
            print(f"  ok noc-frequency/{engine}: observability on == off")
    multi = MULTI_QUERIES["noc-frequency-vs-area-delay"]
    objectives, __ = resolve_multi_objectives(multi)
    fronts = {}
    for enabled in (True, False):
        search = ParetoSearch(
            dataset.space,
            DatasetEvaluator(dataset),
            objectives,
            GAConfig(
                population_size=PARETO_POPULATION,
                generations=GENERATIONS,
                seed=0,
                observability=enabled,
            ),
        )
        result = search.run()
        fronts[enabled] = (_curve(result), sorted(map(tuple, result.front_raws())))
    if fronts[True] != fronts[False]:
        failures.append("  noc pareto: observability drift")
    else:
        print("  ok noc pareto: observability on == off")
    return failures


def check_tracing_identity() -> list[str]:
    """Span tracing on -> the whole 20-run matrix stays bit-identical.

    Re-runs every workload/engine/seed cell with ``GAConfig(tracing=True)``
    (and ``RandomSearch(tracing=True)``) and compares each curve against
    the same checked-in baseline the untraced matrix is pinned to: the
    span layer must consume zero RNG draws. One traced run's tree is then
    checked structurally — all spans closed, accounting invariants hold.
    """
    from repro.obs import validate_accounting

    failures = []
    expected = json.loads(BASELINE_PATH.read_text())
    traced = run_workload(tracing=True)
    drifted = sorted(key for key in expected if traced.get(key) != expected[key])
    if drifted:
        failures.extend(f"  {key}: tracing perturbed the curve" for key in drifted)
    else:
        print(f"  ok tracing: all {len(expected)} traced runs match baseline")
    dataset = load_dataset(QUERIES["noc-frequency"].space)
    search = _build("noc-frequency", "nautilus", dataset, seed=0, tracing=True)
    search.run()
    report = validate_accounting(search.spans())
    if not report["ok"] or report["open_spans"]:
        failures.append(
            "  noc-frequency/nautilus: span accounting broken: "
            + "; ".join(report["errors"])
            + f" ({report['open_spans']} open)"
        )
    else:
        print(
            f"  ok tracing: {report['spans']} spans, accounting closed "
            f"({report['task_spans']} task spans)"
        )
    return failures


def check_guidance_identity() -> list[str]:
    """An explicit provider must match the hints= shorthand bit-for-bit.

    ``GeneticSearch(hints=h)`` and ``GeneticSearch(guidance=StaticHints(h))``
    are two spellings of the same search. Any drift means the guidance
    refactor changed engine behavior.
    """
    from repro.core import StaticHints

    failures = []
    query = QUERIES["noc-frequency"]
    dataset = load_dataset(query.space)
    objective, hint_kind = resolve_objective(query)
    hints = build_hints(hint_kind)
    config = GAConfig(generations=GENERATIONS, seed=0)
    pairs = {
        "static": (
            GeneticSearch(
                dataset.space, DatasetEvaluator(dataset), objective, config,
                hints=hints,
            ),
            GeneticSearch(
                dataset.space, DatasetEvaluator(dataset), objective, config,
                guidance=StaticHints(hints),
            ),
        ),
    }
    for kind, (shorthand, explicit) in pairs.items():
        if _curve(shorthand.run()) != _curve(explicit.run()):
            failures.append(f"  noc-frequency/{kind}: provider drift")
        else:
            print(f"  ok noc-frequency/{kind}: provider == shorthand")
    return failures


def check_encoded_identity() -> list[str]:
    """Trusted code vectors must agree with the validating decode path.

    Every genome a seeded search produces travels the trusted fast path
    (codes recombined/stepped without re-validation). Round-tripping each
    one through the validating boundary — decode to a config dict, re-encode
    via ``space.genome`` — must land on identical codes, keys and equality;
    any divergence means the fast path can manufacture a design the
    validating path would reject or key differently.
    """
    import random as _random

    from repro.core import Genome
    from repro.core.params import values_key

    failures = []
    dataset = load_dataset(QUERIES["noc-frequency"].space)
    space = dataset.space
    search = _build("noc-frequency", "nautilus", dataset, seed=0)
    result = search.run()
    genomes = [ind.genome for ind in search._population]
    genomes.append(space.genome(result.best_config))
    rng = _random.Random(2024)
    genomes.extend(space.random_genome(rng) for _ in range(64))
    bad = 0
    for genome in genomes:
        revalidated = space.genome(genome.as_dict())
        ok = (
            revalidated.codes == genome.codes
            and revalidated == genome
            and revalidated.key == genome.key
            and hash(revalidated) == hash(genome)
            and space.codec.values_key(genome.codes)
            == values_key(genome.as_dict().values())
            and Genome.from_codes(space, genome.codes).as_dict()
            == genome.as_dict()
        )
        bad += not ok
    if bad:
        failures.append(
            f"  noc-frequency/encoded: {bad}/{len(genomes)} genomes diverge "
            "between trusted codes and the validating path"
        )
    else:
        print(
            f"  ok noc-frequency/encoded: {len(genomes)} genomes identical "
            "via codes and validating re-encode"
        )
    return failures


def main(argv: list[str]) -> int:
    payloads: dict[str, dict] = {}
    results = run_workload(payloads=payloads)
    if "--update" in argv:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(results, indent=1) + "\n")
        PAYLOADS_PATH.write_text(json.dumps(payloads, indent=1) + "\n")
        print(f"baselines written to {BASELINE_PATH} and {PAYLOADS_PATH}")
        return 0
    expected = json.loads(BASELINE_PATH.read_text())
    failures = []
    for key in sorted(expected):
        want, got = expected[key], results.get(key)
        if got != want:
            failures.append(f"  {key}: curves drifted")
        else:
            print(
                f"  ok {key}: {len(want['curve'])} curve points, "
                f"{want['distinct_evaluations']} distinct evals"
            )
    extra = sorted(set(results) - set(expected))
    if extra:
        failures.append(f"  unexpected runs not in baseline: {extra}")
    failures.extend(check_payloads(payloads))
    failures.extend(check_observability_identity())
    failures.extend(check_tracing_identity())
    failures.extend(check_guidance_identity())
    failures.extend(check_encoded_identity())
    if failures:
        print("seeded engine curves drifted from the baseline:")
        print("\n".join(failures))
        print("(if the change is intentional, rerun with --update)")
        return 1
    print(f"all {len(expected)} runs match {BASELINE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
