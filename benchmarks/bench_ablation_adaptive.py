"""Ablation: adaptive confidence (extension beyond the paper).

Section 3 flags balancing guidance strength against GA stochasticity as "a
particularly important issue" but leaves confidence fixed. The adaptive
extension (the ``AdaptiveConfidence`` guidance provider) backs confidence
off when the search stalls and restores it while progress continues.

Checks on the Figure 4 query:
* with *correct* hints, adaptive ~= fixed strong confidence (no tax);
* with *adversarially wrong* hints, adaptive recovers faster than fixed
  confidence (it abandons the bad guidance), approaching baseline cost.
"""

from repro.core import (
    AdaptiveConfidence,
    DatasetEvaluator,
    GAConfig,
    GeneticSearch,
    maximize,
)
from repro.experiments import run_many
from repro.noc import frequency_hints

RUNS = 24
GENERATIONS = 80


def _sweep(dataset):
    objective = maximize("fmax_mhz")
    right = frequency_hints(0.8)
    wrong = right.for_minimization()  # sign-flipped saboteur

    def factory(hints, adaptive=False):
        def build(seed):
            return GeneticSearch(
                dataset.space,
                DatasetEvaluator(dataset),
                objective,
                GAConfig(generations=GENERATIONS, seed=seed),
                hints=None if adaptive else hints,
                guidance=AdaptiveConfidence(hints) if adaptive else None,
            )

        return build

    return {
        "baseline (no hints)": run_many(factory(None), RUNS),
        "fixed conf, right hints": run_many(factory(right), RUNS),
        "adaptive, right hints": run_many(factory(right, adaptive=True), RUNS),
        "fixed conf, wrong hints": run_many(factory(wrong), RUNS),
        "adaptive, wrong hints": run_many(factory(wrong, adaptive=True), RUNS),
    }


def test_ablation_adaptive_confidence(benchmark, noc_dataset):
    results = benchmark.pedantic(lambda: _sweep(noc_dataset), rounds=1, iterations=1)
    best = noc_dataset.best_value(maximize("fmax_mhz"))
    threshold = 0.99 * best
    crossings = {}
    print()
    for label, result in results.items():
        crossings[label] = result.curve_cross(threshold)
        print(
            f"  {label:26s} cross-1%={crossings[label]} "
            f"final={result.mean_best():7.2f}"
        )

    # No tax with good hints: adaptive within 1.6x of fixed strong.
    assert crossings["adaptive, right hints"] is not None
    assert (
        crossings["adaptive, right hints"]
        <= 1.6 * crossings["fixed conf, right hints"]
    )
    # Recovery with bad hints: adaptive beats fixed-wrong.
    fixed_wrong = crossings["fixed conf, wrong hints"]
    adaptive_wrong = crossings["adaptive, wrong hints"]
    assert adaptive_wrong is not None
    if fixed_wrong is not None:
        assert adaptive_wrong < fixed_wrong
