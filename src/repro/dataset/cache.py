"""Build-or-load caching for the two evaluation datasets.

Characterizing the full router (30,240 designs) and FFT (10,800) spaces
takes about 10 s and 8 s with the miniature flow (one core of an Intel
Xeon); benchmarks and examples share the results through a small on-disk
cache: one gzipped JSON column file per space (see :meth:`Dataset.save`)
under ``data/`` by default, overridable via ``NAUTILUS_DATA_DIR``. A file
:meth:`Dataset.load` rejects is characterized again and overwritten; so
a file in the row format the column file replaced, left under
``NAUTILUS_DATA_DIR`` by an older checkout, is re-characterized once.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

from ..core.errors import DatasetError
from ..core.space import DesignSpace
from ..dsp.space import FirEvaluator, fir_space
from ..fft.space import FftEvaluator, fft_space
from ..noc.space import RouterEvaluator, router_space
from .dataset import Dataset

__all__ = [
    "data_dir",
    "load_or_characterize",
    "router_dataset",
    "fft_dataset",
    "fir_dataset",
]

#: Bump when a generator/flow change invalidates old characterizations.
DATASET_VERSION = "v1"

#: What ``Dataset.load`` raises for a stale, foreign or corrupt file: a
#: file that fails one of its checks (``DatasetError``), bad JSON
#: (``ValueError``) and a truncated or damaged gzip stream. Anything else
#: is a fault in the loader and propagates.
_STALE = (DatasetError, ValueError, EOFError, OSError, zlib.error)


def data_dir() -> Path:
    """Directory for cached datasets (created on demand)."""
    root = os.environ.get("NAUTILUS_DATA_DIR")
    if root:
        return Path(root)
    return Path(__file__).resolve().parents[3] / "data"


def load_or_characterize(
    space: DesignSpace, evaluator, tag: str, refresh: bool = False
) -> Dataset:
    """Load a cached dataset, or characterize the space and cache it when
    there is no file or the file is stale, foreign or corrupt."""
    path = data_dir() / f"{tag}_{DATASET_VERSION}.json.gz"
    if path.exists() and not refresh:
        try:
            return Dataset.load(path, space)
        except _STALE:
            pass  # recharacterize below
    dataset = Dataset.characterize(space, evaluator, name=tag)
    dataset.save(path)
    return dataset


def router_dataset(refresh: bool = False) -> Dataset:
    """The ~30k-point NoC router dataset (Figures 1, 4, 5)."""
    return load_or_characterize(
        router_space(), RouterEvaluator(), "noc_router", refresh
    )


def fft_dataset(refresh: bool = False) -> Dataset:
    """The ~12k-point FFT dataset (Figures 3, 6, 7)."""
    return load_or_characterize(fft_space(), FftEvaluator(), "spiral_fft", refresh)


def fir_dataset(refresh: bool = False) -> Dataset:
    """The ~2.8k-point FIR dataset (extension: third IP domain)."""
    return load_or_characterize(fir_space(), FirEvaluator(), "fir_lowpass", refresh)
