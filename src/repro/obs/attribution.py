"""Hint-attribution telemetry: which hints are earning their keep?

The paper's contribution is the hint taxonomy (importance, decay, bias,
target, confidence), but a run's curves only show the *combined* effect.
This module attributes fitness movement to individual hints: every child
bred by the :class:`~repro.core.operators.BreedingPipeline` carries
provenance — which params mutated and through which *channel*:

``"bias"``
    The confidence gate passed and the new value came from a bias-tilted
    directional step along the param's ordinal axis.
``"target"``
    The gate passed and the value was pulled toward the authored target.
``"fallback"``
    The param has directional hints but the confidence gate *lost* (or
    no ordinal axis was available), so a uniform different value was
    drawn — the baseline GA's move, made on a hinted param.
``"uniform"``
    The param has no directional hints; plain baseline mutation.
``"noop"``
    A cardinality-1 param was selected for mutation; nothing can change.

The importance channel (which genes mutate) is visible through the
per-param proposal counts and the ``effective_importance`` series; the
value channels above cover the second decision (which values genes get).

Collection is split in two so it stays **read-only with respect to the
search's generator** (the engine-parity CI job pins seeded curves with
observability on): :meth:`~repro.core.operators.BreedingPipeline.breed`
records one ``(parent_score, crossover, mutations, fallback)`` tuple per
child without drawing randomness, and the engine joins those tuples with
offspring scores *after* the evaluation batch, emitting one
``hint-attribution`` trace event per generation. Deltas are measured as
``child_score - parent_score`` (internal, higher-is-better score scale),
so "did this channel's proposals improve on their parents, and by how
much" reads directly off the report — a wrong-hints run shows a negative
or neutral mean delta on the poisoned channel.
"""

from __future__ import annotations

from math import isfinite
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "CHANNELS",
    "summarize_generation",
    "HintEffectReport",
    "hint_effect_report",
]

#: Value-assignment channels a mutated gene can go through.
CHANNELS = ("bias", "target", "fallback", "uniform", "noop")


def _cell() -> dict[str, float]:
    return {"proposals": 0, "feasible": 0, "improved": 0, "delta_sum": 0.0}


def summarize_generation(
    children: Sequence[tuple],
    scores: Sequence[tuple[float, bool]],
    confidence: float = 0.0,
    hinted: bool = False,
    effective_importance: Mapping[str, float] | None = None,
) -> dict[str, Any] | None:
    """Join breeding provenance with offspring scores into one payload.

    ``children`` holds the ``(parent_score, crossover, mutations,
    fallback)`` tuples :meth:`~repro.core.operators.BreedingPipeline.breed`
    recorded; ``scores`` is the aligned ``(score, feasible)`` list for the
    same bred offspring.
    Returns the JSON payload of one ``hint-attribution`` trace event, or
    ``None`` when nothing was bred this generation.

    A child's delta (``score - parent_score``) counts when the child is
    feasible and both scores are finite. Every mutation charges three
    cells — its param, its (param, channel) pair and its channel — kept
    as flat tallies indexed by cell; the nested payload is built once at
    the end, with keys in first-seen order. Deltas are added child by
    child, mutation by mutation, so each ``delta_sum`` is the same float
    a cell-by-cell fold gives.
    """
    if not children:
        return None
    improved = crossover = fallbacks = 0
    # Cell index per param, per (param, channel) pair and per channel.
    param_at: dict[str, int] = {}
    pair_at: dict[tuple[str, str], int] = {}
    channel_at: dict[str, int] = {}
    proposals: list[int] = []
    feasible_n: list[int] = []
    improved_n: list[int] = []
    delta_sum: list[float] = []

    def new_cell(index: dict, key: Any) -> int:
        cell = index[key] = len(proposals)
        proposals.append(0)
        feasible_n.append(0)
        improved_n.append(0)
        delta_sum.append(0.0)
        return cell

    for (parent_score, crossed, mutations, fallback), (score, feasible) in zip(
        children, scores
    ):
        if crossed:
            crossover += 1
        if fallback:
            fallbacks += 1
        delta = None
        if feasible and isfinite(score) and isfinite(parent_score):
            delta = score - parent_score
            if delta > 0:
                improved += 1
        for mutation in mutations:
            name, channel = mutation
            p = param_at.get(name)
            if p is None:
                p = new_cell(param_at, name)
            q = pair_at.get(mutation)
            if q is None:
                q = new_cell(pair_at, mutation)
            c = channel_at.get(channel)
            if c is None:
                c = new_cell(channel_at, channel)
            proposals[p] += 1
            proposals[q] += 1
            proposals[c] += 1
            if delta is None:
                continue
            feasible_n[p] += 1
            feasible_n[q] += 1
            feasible_n[c] += 1
            delta_sum[p] += delta
            delta_sum[q] += delta
            delta_sum[c] += delta
            if delta > 0:
                improved_n[p] += 1
                improved_n[q] += 1
                improved_n[c] += 1

    def cell(i: int) -> dict[str, float]:
        return {
            "proposals": proposals[i],
            "feasible": feasible_n[i],
            "improved": improved_n[i],
            "delta_sum": delta_sum[i],
        }

    params = {name: {**cell(i), "channels": {}} for name, i in param_at.items()}
    for (name, channel), i in pair_at.items():
        params[name]["channels"][channel] = cell(i)
    payload: dict[str, Any] = {
        "children": len(children),
        "improved": improved,
        "crossover": crossover,
        "mutation_fallbacks": fallbacks,
        "confidence": confidence,
        "hinted": hinted,
        "params": params,
        "channels": {channel: cell(i) for channel, i in channel_at.items()},
    }
    if effective_importance:
        payload["effective_importance"] = {
            name: round(float(value), 6)
            for name, value in effective_importance.items()
        }
    return payload


def _merge_cell(into: dict[str, float], cell: Mapping[str, float]) -> None:
    into["proposals"] += int(cell.get("proposals", 0))
    into["feasible"] += int(cell.get("feasible", 0))
    into["improved"] += int(cell.get("improved", 0))
    into["delta_sum"] += float(cell.get("delta_sum", 0.0))


def _rates(cell: Mapping[str, float]) -> dict[str, float]:
    feasible = int(cell.get("feasible", 0))
    out = {
        "proposals": int(cell.get("proposals", 0)),
        "feasible": feasible,
        "improved": int(cell.get("improved", 0)),
        "delta_sum": float(cell.get("delta_sum", 0.0)),
        "improvement_rate": 0.0,
        "mean_delta": 0.0,
    }
    if feasible:
        out["improvement_rate"] = out["improved"] / feasible
        out["mean_delta"] = out["delta_sum"] / feasible
    return out


class HintEffectReport:
    """Per-param / per-channel hint effectiveness over a run's trace.

    Aggregates ``hint-attribution`` trace events. For every param and
    every value channel it reports how many mutation proposals went
    through, what fraction of the resulting children improved on their
    parent (``improvement_rate``), and the mean parent→child score delta
    (``mean_delta``, internal score scale). Negative or ~zero mean deltas
    on the ``bias``/``target`` channels are the signature of wrong hints.
    """

    def __init__(self):
        self.generations = 0
        self.children = 0
        self.improved = 0
        self.crossover = 0
        self.mutation_fallbacks = 0
        self.hinted = False
        self.last_confidence: float | None = None
        self.params: dict[str, dict[str, Any]] = {}
        self.channels: dict[str, dict[str, float]] = {}
        self.last_effective_importance: dict[str, float] = {}

    # -- construction -----------------------------------------------------------

    def add_event(self, payload: Mapping[str, Any]) -> None:
        """Fold one ``hint-attribution`` event payload into the report."""
        self.generations += 1
        self.children += int(payload.get("children", 0))
        self.improved += int(payload.get("improved", 0))
        self.crossover += int(payload.get("crossover", 0))
        self.mutation_fallbacks += int(payload.get("mutation_fallbacks", 0))
        self.hinted = self.hinted or bool(payload.get("hinted", False))
        if "confidence" in payload:
            self.last_confidence = float(payload["confidence"])
        for name, param in payload.get("params", {}).items():
            into = self.params.setdefault(name, {**_cell(), "channels": {}})
            _merge_cell(into, param)
            for channel, cell in param.get("channels", {}).items():
                _merge_cell(into["channels"].setdefault(channel, _cell()), cell)
        for channel, cell in payload.get("channels", {}).items():
            _merge_cell(self.channels.setdefault(channel, _cell()), cell)
        importance = payload.get("effective_importance")
        if importance:
            self.last_effective_importance = dict(importance)

    @classmethod
    def from_events(cls, events: Iterable[Any]) -> "HintEffectReport":
        """Build a report from a trace — RunEvent objects or plain dicts."""
        report = cls()
        for event in events:
            kind = getattr(event, "kind", None)
            if kind is None and isinstance(event, Mapping):
                kind = event.get("kind")
            if kind != "hint-attribution":
                continue
            payload = getattr(event, "payload", None)
            if payload is None:
                payload = event
            report.add_event(payload)
        return report

    # -- reading ----------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON body of ``GET /campaigns/<id>/hints`` (rates included)."""
        return {
            "generations": self.generations,
            "children": self.children,
            "improved": self.improved,
            "crossover": self.crossover,
            "mutation_fallbacks": self.mutation_fallbacks,
            "hinted": self.hinted,
            "confidence": self.last_confidence,
            "channels": {
                channel: _rates(cell)
                for channel, cell in sorted(self.channels.items())
            },
            "params": {
                name: {
                    **_rates(param),
                    "channels": {
                        channel: _rates(cell)
                        for channel, cell in sorted(param["channels"].items())
                    },
                }
                for name, param in sorted(self.params.items())
            },
            "effective_importance": dict(self.last_effective_importance),
        }


def hint_effect_report(events: Iterable[Any]) -> dict[str, Any]:
    """Aggregate a run trace's hint-attribution events into one report dict.

    Accepts :class:`~repro.core.kernel.RunEvent` objects or the plain
    dicts the service trace endpoint serves.
    """
    return HintEffectReport.from_events(events).as_dict()
