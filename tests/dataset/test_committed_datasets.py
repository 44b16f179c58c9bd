"""The committed datasets load onto the same rows, fingerprints and store
file names as the per-row loader did, save back to their own bytes, and
load within a memory bound.

Each file is opened with :meth:`Dataset.load` itself, not through
``load_or_characterize``. The pins were read from the per-row loader;
store file names, fleet task ids and every existing eval cache and
archive depend on them. ROADMAP item 1's v2 regeneration
(``DATASET_VERSION = "v2"``) re-pins them.
"""

from __future__ import annotations

import gc
import gzip
import tracemalloc

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

#: Decompressed bytes of each committed file.
PAYLOAD_BYTES = {
    "noc_router": 12_236_361,
    "spiral_fft": 4_815_551,
    "fir_lowpass": 1_131_742,
}

MIB = 1 << 20


def committed(tag):
    return data_dir() / f"{tag}_{DATASET_VERSION}.json.gz"


@pytest.mark.parametrize("tag", sorted(PINS))
def test_committed_dataset_pins(tag, tmp_path):
    make_space, rows, fingerprint, store_file = PINS[tag]
    space = make_space()
    path = committed(tag)
    dataset = Dataset.load(path, space)
    assert len(dataset) == rows
    assert dataset.content_fingerprint() == fingerprint
    store = PersistentCache(tmp_path)
    name = store._path(space.name, DatasetEvaluator(dataset).fingerprint).name
    assert name == store_file
    # Every key (value types included), in file order, and every metrics
    # dict equal the per-row loader's.
    assert_same_rows(dict(dataset.iter_rows()), reference_rows(path, space))


@pytest.mark.parametrize("tag", sorted(PINS))
def test_save_writes_the_committed_payload(tag, tmp_path):
    make_space = PINS[tag][0]
    dataset = Dataset.load(committed(tag), make_space())
    saved = tmp_path / "saved.json.gz"
    dataset.save(saved)
    with gzip.open(committed(tag), "rb") as fh:
        expected = fh.read()
    with gzip.open(saved, "rb") as fh:
        payload = fh.read()
    assert len(payload) == PAYLOAD_BYTES[tag]
    assert payload == expected


def test_loading_the_router_dataset_holds_its_columns_not_its_rows():
    """Python memory traced over one load of the committed router file.

    Held after ``gc.collect()`` (the loaded dataset alive): 4.7 MiB
    measured, the columns and the position index; the per-row dicts held
    18.8 MiB. Peak during the load: 23.4 MiB measured, mostly the
    decompressed text (12.2 MB) the parser reads; holding every parsed row
    peaked at 44.6 MiB. Each bound is about 1.5 times the measured value.
    """
    space = router_space()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dataset = Dataset.load(committed("noc_router"), space)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == PINS["noc_router"][1]
    assert held - before < 7 * MIB
    assert peak - before < 35 * MIB
