"""Dataset load benchmark: what opening each committed dataset costs.

Writes ``results/BENCH_dataset_load.json``. For each committed file
(``data/<tag>_v1.json.gz``) it records:

* ``compressed_bytes`` and ``decompressed_bytes``;
* ``first_load_s``: one :meth:`Dataset.load` in a fresh interpreter that
  has imported the package and built the space but loaded nothing yet,
  the median over ``FRESH_PROCESSES`` processes (``first_load_runs_s``
  lists them);
* ``warm_load_s``: the median of ``WARM_LOADS`` loads in this process
  after one untimed load;
* ``held_mib`` and ``peak_mib``: Python memory traced (``tracemalloc``)
  over one load: held after ``gc.collect()`` with the dataset alive, and
  the peak during the load.

It also records the Python version, ``os.cpu_count()`` and both counts.
Before it times a file it loads it and checks its pins from
``tests/dataset/test_committed_datasets.py`` (row count, content
fingerprint and row-order digest), and exits if one moved. It checks no
time. Timings move from machine to machine and run to run, so the record
is not byte-stable and the ``figures`` job does not run this script.

Usage::

    PYTHONPATH=src python benchmarks/bench_dataset_load.py
"""

from __future__ import annotations

import gc
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.dataset import Dataset  # noqa: E402
from tests.dataset.test_committed_datasets import (  # noqa: E402
    PINS,
    ROW_ORDER,
    committed,
    row_order_digest,
)

RESULTS = ROOT / "results" / "BENCH_dataset_load.json"
MIB = 1 << 20

#: Timed loads per file in this process (median reported).
WARM_LOADS = 9
#: Fresh interpreters per file, one timed first load each (median reported).
FRESH_PROCESSES = 5

#: One timed load in a fresh interpreter; prints the seconds it took.
FIRST_LOAD = """
import sys, time
from repro.dataset import Dataset
from tests.dataset.test_committed_datasets import PINS, committed
space = PINS[sys.argv[1]][0]()
start = time.perf_counter()
Dataset.load(committed(sys.argv[1]), space)
print(time.perf_counter() - start)
"""


def check_pins(tag: str) -> None:
    make_space, rows, fingerprint, __ = PINS[tag]
    dataset = Dataset.load(committed(tag), make_space())
    found = (len(dataset), dataset.content_fingerprint(), row_order_digest(dataset))
    if found != (rows, fingerprint, ROW_ORDER[tag]):
        raise SystemExit(f"{tag}: rows, fingerprint, row order {found} do not match the pins")


def first_load_runs(tag: str) -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return [
        float(subprocess.run(
            [sys.executable, "-c", FIRST_LOAD, tag],
            check=True, capture_output=True, text=True, env=env, cwd=ROOT,
        ).stdout)
        for __ in range(FRESH_PROCESSES)
    ]


def warm_load_s(tag: str) -> float:
    space = PINS[tag][0]()
    Dataset.load(committed(tag), space)
    times = []
    for __ in range(WARM_LOADS):
        start = time.perf_counter()
        Dataset.load(committed(tag), space)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_mib(tag: str) -> tuple[float, float]:
    space = PINS[tag][0]()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dataset = Dataset.load(committed(tag), space)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del dataset
    return (held - before) / MIB, (peak - before) / MIB


def main() -> None:
    files = {}
    for tag in sorted(PINS):
        check_pins(tag)
        path = committed(tag)
        with gzip.open(path, "rb") as fh:
            decompressed = len(fh.read())
        runs = first_load_runs(tag)
        held, peak = traced_mib(tag)
        files[tag] = {
            "compressed_bytes": path.stat().st_size,
            "decompressed_bytes": decompressed,
            "first_load_s": statistics.median(runs),
            "first_load_runs_s": runs,
            "warm_load_s": warm_load_s(tag),
            "held_mib": held,
            "peak_mib": peak,
        }
        print(f"{tag}: " + ", ".join(
            f"{key} {round(value, 4)}" for key, value in files[tag].items()
            if key != "first_load_runs_s"
        ), flush=True)
    out = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "warm_loads": WARM_LOADS,
        "fresh_processes": FRESH_PROCESSES,
        "files": files,
        "total": {
            key: sum(entry[key] for entry in files.values())
            for key in ("compressed_bytes", "decompressed_bytes",
                        "first_load_s", "warm_load_s")
        },
    }
    RESULTS.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {RESULTS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
