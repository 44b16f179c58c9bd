"""CI smoke check: live synthesis must reproduce the committed datasets.

Runs every design point of the three characterized spaces (router, FFT,
FIR) through its live evaluator -- IP generator plus synthesis flow -- and
compares each outcome with its row in ``data/*_v1.json.gz``: a feasible row
must come back as an equal metrics dict, an infeasible row as an
:class:`~repro.core.errors.InfeasibleDesignError`.

Every replayed search trusts those files to be what the flow would report,
so any change to the generators or the flow that moves a single metric
shows up here (and would need a ``DATASET_VERSION`` bump). The tier-1 suite
checks a seeded sample of each space (``tests/dataset/test_synth_parity.py``);
this script checks all 43,848 rows.

Usage::

    PYTHONPATH=src python benchmarks/smoke_synth_parity.py            # all spaces
    PYTHONPATH=src python benchmarks/smoke_synth_parity.py noc fir    # a subset
"""

from __future__ import annotations

import sys
import time

from repro.core.errors import InfeasibleDesignError
from repro.dsp.space import FirEvaluator
from repro.fft.space import FftEvaluator
from repro.noc.space import RouterEvaluator
from repro.queries import load_dataset

EVALUATORS = {"noc": RouterEvaluator, "fft": FftEvaluator, "fir": FirEvaluator}
#: Mismatches printed per space before the rest are only counted.
SHOWN = 5


def check_space(space: str) -> list[str]:
    """Synthesize every point of one space; return its mismatch messages."""
    dataset = load_dataset(space)
    evaluator = EVALUATORS[space]()
    mismatches: list[str] = []
    checked = matched = feasible = 0
    start = time.perf_counter()
    for genome in dataset.space.iter_genomes():
        try:
            row = dataset.lookup(genome)
        except InfeasibleDesignError:
            row = None
        try:
            outcome = evaluator.evaluate(genome)
        except InfeasibleDesignError as exc:
            outcome = exc
        if row is None:
            ok = isinstance(outcome, InfeasibleDesignError)
        else:
            ok = outcome == row
            feasible += 1
        checked += 1
        if ok:
            matched += 1
        else:
            mismatches.append(f"  {space} {genome.as_dict()}: {outcome!r} != {row!r}")
    if checked != len(dataset):
        mismatches.append(
            f"  {space}: visited {checked} designs, dataset has {len(dataset)} rows"
        )
    print(
        f"  {space}: {matched}/{len(dataset)} rows match "
        f"({feasible} feasible) in {time.perf_counter() - start:.1f} s"
    )
    return mismatches


def main(argv: list[str]) -> int:
    spaces = argv or list(EVALUATORS)
    unknown = sorted(set(spaces) - set(EVALUATORS))
    if unknown:
        print(f"unknown space(s) {unknown}; choose from {sorted(EVALUATORS)}")
        return 2
    failures = {space: check_space(space) for space in spaces}
    bad = {space: lines for space, lines in failures.items() if lines}
    if bad:
        print("live synthesis drifted from the committed datasets:")
        for space, lines in bad.items():
            print("\n".join(lines[:SHOWN]))
            if len(lines) > SHOWN:
                print(f"  ... and {len(lines) - SHOWN} more in {space}")
        return 1
    print(f"all designs of {', '.join(spaces)} match their dataset rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
