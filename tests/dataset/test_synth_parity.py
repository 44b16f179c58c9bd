"""Live synthesis reproduces the committed datasets on a seeded sample.

Every replayed search trusts ``data/*_v1.json.gz`` to hold what the
generators and the synthesis flow report. This test re-synthesizes a fixed
sample of each space and compares it with the committed rows;
``benchmarks/smoke_synth_parity.py`` does the same over every row.
"""

import random

import pytest

from repro.core.errors import InfeasibleDesignError
from repro.dsp.space import FirEvaluator
from repro.fft.space import FftEvaluator
from repro.noc.space import RouterEvaluator
from repro.queries import load_dataset

EVALUATORS = {"noc": RouterEvaluator, "fft": FftEvaluator, "fir": FirEvaluator}
SAMPLE = 48


@pytest.mark.parametrize("space", sorted(EVALUATORS))
def test_sample_matches_dataset(space):
    dataset = load_dataset(space)
    evaluator = EVALUATORS[space]()
    genomes = list(dataset.space.iter_genomes())
    sample = random.Random(f"synth-parity:{space}").sample(genomes, SAMPLE)
    for genome in sample:
        try:
            row = dataset.lookup(genome)
        except InfeasibleDesignError:
            with pytest.raises(InfeasibleDesignError):
                evaluator.evaluate(genome)
            continue
        assert evaluator.evaluate(genome) == row, genome.as_dict()
