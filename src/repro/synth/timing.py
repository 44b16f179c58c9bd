"""Static timing analysis over a module's instance graph.

Classic longest-path STA on a DAG:

* Sequential instances *launch* paths at their clock-to-out delay and
  *capture* paths at their inputs (plus setup).
* Combinational instances add their mapped delay; every traversed edge adds
  one average routing hop with a fanout penalty (high-fanout nets route
  worse — the usual reason big crossbars miss timing).
* Combinational loops are a synthesis error, as in any real flow.

The resulting worst register-to-register path, floored by the clock
distribution limit, gives the achievable period and hence Fmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import SynthesisError
from .library import TechLibrary
from .netlist import Module

__all__ = ["TimingReport", "analyze_timing"]

#: Routing delay grows logarithmically with fanout beyond this knee.
_FANOUT_KNEE = 4


@dataclass(frozen=True)
class TimingReport:
    """Outcome of the STA pass."""

    critical_path_ns: float
    #: Instance names along the critical path, launch to capture.
    critical_path: tuple[str, ...]
    #: Number of combinational levels on the critical path.
    levels: int

    def fmax_mhz(self) -> float:
        """Maximum clock frequency implied by the critical path."""
        return 1000.0 / self.critical_path_ns


def _routing_ns(lib: TechLibrary, fanout: int) -> float:
    """Per-edge routing delay with a logarithmic fanout penalty."""
    penalty = 1.0
    if fanout > _FANOUT_KNEE:
        penalty += 0.25 * math.log2(fanout / _FANOUT_KNEE)
    return lib.routing_delay_ns * penalty


def analyze_timing(module: Module, lib: TechLibrary) -> TimingReport:
    """Compute the worst register-to-register path of a module.

    One pass over the edges builds the fanout counts, the combinational
    adjacency lists and the capture edges; Kahn's algorithm then visits each
    instance once, computing its arrival time from predecessors that are
    already final. On an exact tie the edge connected first wins, so a
    design reports the same critical path in every process.

    A module with no sequential element and no combinational logic (or no
    instances at all) reports the clock floor. Each instance's launch or
    combinational delay comes from :meth:`Module.mapped`.
    """
    nodes = module.mapped(lib)
    if not nodes:
        return TimingReport(lib.clock_floor_ns, (), 0)

    fanout = dict.fromkeys(nodes, 0)
    indegree = dict.fromkeys(nodes, 0)
    predecessors: dict[str, list[str]] = {name: [] for name in nodes}
    successors: dict[str, list[str]] = {name: [] for name in nodes}
    captures: list[tuple[str, str]] = []
    for a, b in module.iter_edges():
        fanout[a] += 1
        # Edges out of sequential instances still propagate arrival times
        # (clock-to-out); only edges *into* sequential instances terminate.
        if nodes[b].sequential:
            captures.append((a, b))
        else:
            indegree[b] += 1
            predecessors[b].append(a)
            successors[a].append(b)
    routing = {name: _routing_ns(lib, n) for name, n in fanout.items() if n}

    arrival: dict[str, float] = {}
    # The predecessor each arrival time came through (None at a path start).
    via: dict[str, str | None] = {}
    ready = [name for name, deg in indegree.items() if deg == 0]
    while ready:
        name = ready.pop()
        mapped = nodes[name]
        if mapped.sequential:
            arrival[name] = mapped.delay_ns
            via[name] = None
        else:
            best = 0.0
            best_pred = None
            for pred in predecessors[name]:
                candidate = arrival[pred] + routing[pred]
                if candidate > best:
                    best = candidate
                    best_pred = pred
            arrival[name] = best + mapped.delay_ns
            via[name] = best_pred
        for succ in successors[name]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(arrival) != len(nodes):
        stuck = sorted(name for name, deg in indegree.items() if deg > 0)
        raise SynthesisError(
            f"combinational loop in module {module.name!r} involving {stuck[:5]}"
        )

    worst = lib.clock_floor_ns
    end: str | None = None
    capture: tuple[str, ...] = ()
    for a, b in captures:
        delay = arrival[a] + routing[a] + lib.ff_setup_ns
        if delay > worst:
            worst, end, capture = delay, a, (b,)
    # Purely combinational modules (no capture register): worst arrival.
    if end is None:
        peak = max(arrival, key=arrival.__getitem__)
        candidate = arrival[peak] + lib.ff_setup_ns
        if candidate > worst:
            worst, end = candidate, peak
    if end is None:
        return TimingReport(worst, (), 0)
    hops = []
    node = end
    while node is not None:
        hops.append(node)
        node = via[node]
    path = tuple(reversed(hops)) + capture
    levels = sum(not nodes[name].sequential for name in path)
    return TimingReport(worst, path, levels)
