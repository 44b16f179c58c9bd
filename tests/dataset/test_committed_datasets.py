"""The committed datasets load onto the same rows, fingerprints and store
file names as before the column-pass loader.

Each file is opened with :meth:`Dataset.load` itself, not through
``load_or_characterize``, which would re-characterize (and rewrite
``data/``) on a loader error instead of failing. The pins were read from
the per-row loader; store file names, fleet task ids and every existing
eval cache and archive depend on them. ROADMAP item 1's v2 regeneration
(``DATASET_VERSION = "v2"``) re-pins them.
"""

from __future__ import annotations

import pytest

from repro.core.evalstack import PersistentCache
from repro.core.evaluator import DatasetEvaluator
from repro.dataset import Dataset
from repro.dataset.cache import DATASET_VERSION, data_dir
from repro.dsp.space import fir_space
from repro.fft.space import fft_space
from repro.noc.space import router_space

from .test_load_equivalence import assert_same_rows, reference_rows

PINS = {
    "noc_router": (router_space, 30240, "466e01c6ad06d64d",
                   "noc_router-7a4fe355acf2.jsonl"),
    "spiral_fft": (fft_space, 10800, "2e461bcfb2f78ff2",
                   "spiral_fft1024-6cb36c6fc5f2.jsonl"),
    "fir_lowpass": (fir_space, 2808, "75846422e3bb0138",
                    "fir63_lowpass-11c1fe5f2ba7.jsonl"),
}


@pytest.mark.parametrize("tag", sorted(PINS))
def test_committed_dataset_pins(tag, tmp_path):
    make_space, rows, fingerprint, store_file = PINS[tag]
    space = make_space()
    path = data_dir() / f"{tag}_{DATASET_VERSION}.json.gz"
    dataset = Dataset.load(path, space)
    assert len(dataset) == rows
    assert dataset.content_fingerprint() == fingerprint
    store = PersistentCache(tmp_path)
    name = store._path(space.name, DatasetEvaluator(dataset).fingerprint).name
    assert name == store_file
    # Every key (value types included), in file order, and every metrics
    # dict equal the per-row loader's.
    assert_same_rows(dataset._rows, reference_rows(path, space))
