"""The named optimization queries shared by the CLI and the search service.

A *query* bundles everything needed to run one of the paper's searches
against a bundled dataset: which IP space, which metric and direction, and
which IP-author hint set guides the Nautilus engine. Every search is built
from a query by one function,
:func:`repro.service.campaign.build_search`: the daemon, ``nautilus
optimize``, the paper's figure builders and the engine-parity smoke all
call it, so a campaign submitted over HTTP runs exactly the search the CLI
would. The CLI's ``estimate`` and ``archive`` commands read a query's
objective through :func:`resolve_objective` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import NautilusError, Objective, maximize, minimize
from .core.hints import HintSet

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import Dataset

__all__ = [
    "Query",
    "QUERIES",
    "MultiQuery",
    "MULTI_QUERIES",
    "load_dataset",
    "build_hints",
    "resolve_objective",
    "resolve_multi_objectives",
]


@dataclass(frozen=True)
class Query:
    """One named search problem on a bundled dataset."""

    space: str  # dataset key: "noc", "fft" or "fir"
    metric: str
    direction: str  # "max" | "min"
    hint_kind: str  # key into the hint factories


QUERIES: dict[str, Query] = {
    "noc-frequency": Query("noc", "fmax_mhz", "max", "frequency"),
    "noc-area-delay": Query("noc", "area_delay", "min", "area_delay"),
    "fft-luts": Query("fft", "luts", "min", "lut"),
    "fft-throughput-per-lut": Query("fft", "msps_per_lut", "max", "tput"),
    "fir-area": Query("fir", "luts", "min", "fir_area"),
}


@dataclass(frozen=True)
class MultiQuery:
    """One named multi-objective (Pareto) trade-off on a bundled dataset.

    The hint kind guides mutation toward the region of interest (hints are
    authored per metric; the first objective's hints are used, matching the
    record/curve projection of :class:`~repro.core.pareto.ParetoSearch`).
    """

    space: str
    metrics: tuple[str, ...]
    directions: tuple[str, ...]  # "max" | "min", per metric
    hint_kind: str | None


MULTI_QUERIES: dict[str, MultiQuery] = {
    "noc-frequency-vs-area-delay": MultiQuery(
        "noc", ("fmax_mhz", "area_delay"), ("max", "min"), "frequency"
    ),
    "fft-luts-vs-throughput": MultiQuery(
        "fft", ("luts", "msps_per_lut"), ("min", "max"), "lut"
    ),
}


def load_dataset(space_name: str) -> "Dataset":
    """Load (or characterize) the dataset backing a query space."""
    from .dataset import fft_dataset, fir_dataset, router_dataset

    loaders = {"noc": router_dataset, "fir": fir_dataset, "fft": fft_dataset}
    try:
        return loaders[space_name]()
    except KeyError:
        raise NautilusError(f"unknown dataset space {space_name!r}") from None


def build_hints(kind: str, confidence: float | None = None) -> HintSet:
    """Instantiate a query's IP-author hint set, optionally re-weighted.

    Every bundled hint set resolves through the JSON wire format (a
    serialize/deserialize round trip), so a named ``hint_kind`` and an
    inline ``hints`` payload travel the exact same code path — the factories
    cannot produce anything the schema cannot express.
    """
    from .core import hintset_from_json, hintset_to_json
    from .dsp import fir_area_hints
    from .fft import lut_hints, throughput_per_lut_hints
    from .noc import area_delay_hints, frequency_hints

    factories = {
        "frequency": frequency_hints,
        "area_delay": area_delay_hints,
        "lut": lut_hints,
        "tput": throughput_per_lut_hints,
        "fir_area": fir_area_hints,
    }
    try:
        factory = factories[kind]
    except KeyError:
        raise NautilusError(f"unknown hint kind {kind!r}") from None
    authored = factory(confidence) if confidence is not None else factory()
    return hintset_from_json(hintset_to_json(authored))


def resolve_objective(query: Query) -> tuple[Objective, str]:
    """The objective for a query and its bundled hint kind: ``(objective, hint_kind)``."""
    return _objective(query.metric, query.direction), query.hint_kind


def resolve_multi_objectives(
    query: MultiQuery,
) -> tuple[list[Objective], str | None]:
    """The objective list for a multi-objective query: ``(objectives, hint_kind)``."""
    objectives = [
        _objective(metric, direction)
        for metric, direction in zip(query.metrics, query.directions)
    ]
    return objectives, query.hint_kind


def _objective(metric: str, direction: str) -> Objective:
    return maximize(metric) if direction == "max" else minimize(metric)
