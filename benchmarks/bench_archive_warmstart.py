"""Benchmark: warm-started campaigns reach cold-start quality cheaper.

The archive's economic claim is cross-campaign: a search seeded with the
best designs previous campaigns already paid for should need substantially
fewer *distinct evaluations* (synthesis jobs — the paper's cost unit) to
reach the quality a cold-start search ends at.

For each (cold_seed, warm_seed) pair: run a cold GA on ``noc-frequency``
whose evaluation stack records into a fresh archive (exactly the daemon's
store-layer wiring), note its final best; then run a *differently seeded*
GA whose initial population is warm-started with the archive's top
designs, and count the distinct evaluations it needs before its
best-so-far matches the cold run's final best. Pass: >= 25% aggregate
reduction.

Writes ``results/BENCH_archive.json``; exits 1 when the floor is missed.

Usage::

    PYTHONPATH=src python benchmarks/bench_archive_warmstart.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.archive import DesignArchive
from repro.core import DatasetEvaluator, GAConfig, GeneticSearch
from repro.core.evalstack import EvaluationStack
from repro.queries import QUERIES, load_dataset, resolve_objective

RESULTS_PATH = Path(__file__).parent.parent / "results" / "BENCH_archive.json"
QUERY = "noc-frequency"
GENERATIONS = 30
WARM_SEEDS = 5
SEED_PAIRS = ((0, 1), (1, 2), (2, 3))
REDUCTION_FLOOR = 0.25


def run_pair(dataset, objective, cold_seed: int, warm_seed: int, root: Path):
    evaluator = DatasetEvaluator(dataset)
    archive = DesignArchive(root / f"pair-{cold_seed}-{warm_seed}")

    cold_stack = EvaluationStack(
        evaluator, archive=archive, campaign=f"cold-{cold_seed}"
    )
    cold = GeneticSearch(
        dataset.space,
        cold_stack,
        objective,
        GAConfig(generations=GENERATIONS, seed=cold_seed),
    ).run()

    seeds = archive.warm_start_configs(
        dataset.space, cold_stack.fingerprint, objective, WARM_SEEDS
    )
    warm = GeneticSearch(
        dataset.space,
        EvaluationStack(evaluator),
        objective,
        GAConfig(
            generations=GENERATIONS, seed=warm_seed, warm_start=tuple(seeds)
        ),
    ).run()

    target = cold.best.score
    evals_to_reach = None
    for record in warm.records:
        if record.best_score >= target:
            evals_to_reach = record.distinct_evaluations
            break
    return {
        "cold_seed": cold_seed,
        "warm_seed": warm_seed,
        "cold_best": cold.best_raw,
        "cold_evals": cold.distinct_evaluations,
        "warm_best": warm.best_raw,
        "warm_evals_to_reach_cold_best": evals_to_reach,
        "archived_rows": archive.stats()["rows"],
        "reached": evals_to_reach is not None,
    }


def main() -> int:
    query = QUERIES[QUERY]
    dataset = load_dataset(query.space)
    objective, __ = resolve_objective(query)

    pairs = []
    with tempfile.TemporaryDirectory(prefix="nautilus-bench-archive-") as tmp:
        for cold_seed, warm_seed in SEED_PAIRS:
            pair = run_pair(dataset, objective, cold_seed, warm_seed, Path(tmp))
            pairs.append(pair)
            print(
                f"cold seed {cold_seed}: best {pair['cold_best']:.4g} in "
                f"{pair['cold_evals']} evals | warm seed {warm_seed}: "
                f"reached it in {pair['warm_evals_to_reach_cold_best']} evals"
                if pair["reached"]
                else f"cold seed {cold_seed}: warm run NEVER reached "
                f"{pair['cold_best']:.4g}"
            )

    reached = all(pair["reached"] for pair in pairs)
    cold_total = sum(pair["cold_evals"] for pair in pairs)
    warm_total = sum(
        pair["warm_evals_to_reach_cold_best"] or pair["cold_evals"]
        for pair in pairs
    )
    reduction = 1.0 - warm_total / cold_total if cold_total else 0.0
    passed = reached and reduction >= REDUCTION_FLOOR

    payload = {
        "query": QUERY,
        "generations": GENERATIONS,
        "warm_seeds": WARM_SEEDS,
        "pairs": pairs,
        "cold_evals_total": cold_total,
        "warm_evals_total": warm_total,
        "reduction": reduction,
        "floor": REDUCTION_FLOOR,
        "pass": passed,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"distinct evaluations to cold-start quality: {warm_total} vs "
        f"{cold_total} cold ({reduction:.0%} reduction, floor "
        f"{REDUCTION_FLOOR:.0%}) -> {'PASS' if passed else 'FAIL'}"
    )
    print(f"results written to {RESULTS_PATH}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
