"""The committed datasets load onto the same rows, in the same order, with
the same fingerprints and store file names as the row files they were
converted from, save back to their own payload, and load within a memory
bound.

Each file is opened with :meth:`Dataset.load` itself, not through
``load_or_characterize``. The pins were read from the row-format files
before they were re-saved as column files; store file names, fleet task
ids and every existing eval cache and archive depend on them. ROADMAP
item 1's v2 regeneration (``DATASET_VERSION = "v2"``) re-pins them.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import json
import tracemalloc

import pytest

from repro.core.evalstack import PersistentCache
from repro.core.evaluator import DatasetEvaluator
from repro.dataset import Dataset
from repro.dataset.cache import DATASET_VERSION, data_dir
from repro.dsp.space import fir_space
from repro.fft.space import fft_space
from repro.noc.space import router_space

PINS = {
    "noc_router": (router_space, 30240, "466e01c6ad06d64d",
                   "noc_router-7a4fe355acf2.jsonl"),
    "spiral_fft": (fft_space, 10800, "2e461bcfb2f78ff2",
                   "spiral_fft1024-6cb36c6fc5f2.jsonl"),
    "fir_lowpass": (fir_space, 2808, "75846422e3bb0138",
                    "fir63_lowpass-11c1fe5f2ba7.jsonl"),
}

#: sha1 over every row in ``iter_rows()`` order: ``repr(key)`` then
#: ``json.dumps(metrics)`` (metric keys in row order). The fingerprint
#: ignores row order and metric key order; this covers both.
ROW_ORDER = {
    "noc_router": "432bfc593fe40e62f660f4bf002c2f5827d887db",
    "spiral_fft": "acc70f1a957686ca9865fda2eeed3bc542877cc3",
    "fir_lowpass": "5aaa27fcd1bec28d04bf3c9a18c50dc949eedd0f",
}

#: Decompressed bytes of each committed column file.
PAYLOAD_BYTES = {
    "noc_router": 3_457_355,
    "spiral_fft": 1_858_048,
    "fir_lowpass": 453_825,
}

MIB = 1 << 20


def committed(tag):
    return data_dir() / f"{tag}_{DATASET_VERSION}.json.gz"


def row_order_digest(dataset: Dataset) -> str:
    digest = hashlib.sha1()
    for key, metrics in dataset.iter_rows():
        digest.update((repr(key) + json.dumps(metrics)).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("tag", sorted(PINS))
def test_committed_dataset_pins(tag, tmp_path):
    make_space, rows, fingerprint, store_file = PINS[tag]
    space = make_space()
    dataset = Dataset.load(committed(tag), space)
    assert dataset.name == tag
    assert len(dataset) == rows
    assert dataset.content_fingerprint() == fingerprint
    assert row_order_digest(dataset) == ROW_ORDER[tag]
    store = PersistentCache(tmp_path)
    name = store._path(space.name, DatasetEvaluator(dataset).fingerprint).name
    assert name == store_file


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

    Held after ``gc.collect()`` (the loaded dataset alive): 4.8 MiB
    measured, the columns and the position index; the per-row dicts held
    18.8 MiB. Peak during the load: 12.5 MiB measured, mostly the 3.5 MB
    decompressed text and the parsed arrays before they become columns;
    the row file peaked at 23.4 MiB, and holding every parsed row at 44.6
    MiB. Each bound is about 1.5 times the measured value.
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
    assert peak - before < 19 * MIB
