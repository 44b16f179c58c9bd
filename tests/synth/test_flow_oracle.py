"""The one-pass synthesis flow against straightforward reference versions.

The references below are the flow's original formulations: an STA that
scans every edge for each node's predecessors, a resource sum built one
``Resources`` addition at a time, and a signature fed to ``sha256`` one field
at a time. The flow's versions must agree with them exactly on every metric.
Only which path is reported on an exact tie may differ, so the reported path
is checked structurally instead: it must be a chain of real edges whose
delay is the reported critical path.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import SynthesisError
from repro.synth import (
    Adder,
    BlockRam,
    ComplexMultiplier,
    LogicCloud,
    Module,
    Mux,
    Register,
    Resources,
    VIRTEX6,
    analyze_timing,
)
from repro.synth.timing import TimingReport, _routing_ns

LIB = VIRTEX6


# -- references ------------------------------------------------------------------


def reference_resources(module: Module, lib) -> Resources:
    acc = Resources()
    for inst in module.instances:
        acc = acc + inst.primitive.resources(lib)
    return acc


def reference_signature(module: Module) -> str:
    digest = hashlib.sha256()
    digest.update(module.name.encode())
    for inst in sorted(module.instances, key=lambda i: i.name):
        digest.update(inst.name.encode())
        digest.update(inst.primitive.kind().encode())
        digest.update(repr(sorted(inst.primitive.describe().items())).encode())
    for edge in sorted(module.edges):
        digest.update(repr(edge).encode())
    return digest.hexdigest()


def _reference_order(module: Module) -> list[str]:
    indegree = {inst.name: 0 for inst in module.instances}
    successors: dict[str, list[str]] = {inst.name: [] for inst in module.instances}
    for a, b in module.edges:
        if module.instance(b).sequential:
            continue
        indegree[b] += 1
        successors[a].append(b)
    ready = [name for name, deg in indegree.items() if deg == 0]
    order: list[str] = []
    while ready:
        name = ready.pop()
        order.append(name)
        for succ in successors[name]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(indegree):
        stuck = sorted(name for name, deg in indegree.items() if deg > 0)
        raise SynthesisError(
            f"combinational loop in module {module.name!r} involving {stuck[:5]}"
        )
    return order


def reference_timing(module: Module, lib) -> TimingReport:
    if len(module) == 0:
        return TimingReport(lib.clock_floor_ns, (), 0)
    fanout = {inst.name: 0 for inst in module.instances}
    for a, _ in module.edges:
        fanout[a] += 1
    arrival: dict[str, float] = {}
    trace: dict[str, tuple[str, ...]] = {}
    levels: dict[str, int] = {}
    for name in _reference_order(module):
        inst = module.instance(name)
        if inst.sequential:
            clk_to_out = getattr(inst.primitive, "clk_to_out_ns", None)
            arrival[name] = clk_to_out(lib) if clk_to_out else lib.ff_clk_to_q_ns
            trace[name] = (name,)
            levels[name] = 0
            continue
        best = 0.0
        best_trace: tuple[str, ...] = ()
        best_levels = 0
        for pred in module.predecessors(name):
            candidate = arrival[pred] + _routing_ns(lib, fanout[pred])
            if candidate > best:
                best = candidate
                best_trace = trace[pred]
                best_levels = levels[pred]
        arrival[name] = best + inst.primitive.comb_delay_ns(lib)
        trace[name] = best_trace + (name,)
        levels[name] = best_levels + 1
    worst = lib.clock_floor_ns
    worst_trace: tuple[str, ...] = ()
    worst_levels = 0
    for a, b in module.edges:
        if not module.instance(b).sequential:
            continue
        path = arrival[a] + _routing_ns(lib, fanout[a]) + lib.ff_setup_ns
        if path > worst:
            worst = path
            worst_trace = trace[a] + (b,)
            worst_levels = levels[a]
    if not worst_trace and arrival:
        peak = max(arrival, key=lambda n: arrival[n])
        candidate = arrival[peak] + lib.ff_setup_ns
        if candidate > worst:
            worst = candidate
            worst_trace = trace[peak]
            worst_levels = levels[peak]
    return TimingReport(worst, worst_trace, worst_levels)


def path_delay(module: Module, path: tuple[str, ...], lib) -> float:
    """Delay along a reported path, accumulated as the STA accumulates it."""
    fanout = {inst.name: 0 for inst in module.instances}
    for a, _ in module.edges:
        fanout[a] += 1
    *body, last = path
    captured = len(path) >= 2 and module.instance(last).sequential
    if not captured:
        body = list(path)
    delay = None
    for name in body:
        primitive = module.instance(name).primitive
        if delay is None:
            if primitive.sequential:
                clk_to_out = getattr(primitive, "clk_to_out_ns", None)
                delay = clk_to_out(lib) if clk_to_out else lib.ff_clk_to_q_ns
            else:
                delay = 0.0 + primitive.comb_delay_ns(lib)
            previous = name
            continue
        delay = delay + _routing_ns(lib, fanout[previous])
        delay = delay + primitive.comb_delay_ns(lib)
        previous = name
    if captured:
        delay = delay + _routing_ns(lib, fanout[previous])
    return delay + lib.ff_setup_ns


# -- random modules ---------------------------------------------------------------


def _amount(high: float):
    """An int or a float: ``60`` and ``60.0`` are different primitives to the
    signature, so the memo must keep them apart."""
    return st.integers(0, int(high)) | st.floats(0.0, high, allow_nan=False)


_PRIMITIVES = st.one_of(
    st.builds(Register, st.integers(1, 64)),
    st.builds(Adder, st.integers(1, 64)),
    st.builds(Mux, st.integers(1, 64), st.integers(2, 16)),
    st.builds(LogicCloud, _amount(500.0), st.integers(1, 6), _amount(50.0)),
    st.builds(BlockRam, st.sampled_from([512, 1024, 4096]), st.integers(1, 36)),
    st.builds(ComplexMultiplier, st.integers(4, 24), st.booleans(), st.booleans()),
)


@st.composite
def modules(draw, max_instances: int = 40) -> Module:
    module = Module(draw(st.sampled_from(["top", "core", "x"])))
    count = draw(st.integers(0, max_instances))
    for i in range(count):
        module.add(f"i{i}", draw(_PRIMITIVES), replicate=draw(st.integers(1, 4)))
    if count >= 2:
        index = st.integers(0, count - 1)
        edges = draw(st.lists(st.tuples(index, index), max_size=2 * count))
        # A few high-fanout nets, where routing pays the log-fanout penalty.
        for driver, sinks in draw(
            st.lists(st.tuples(index, st.lists(index, max_size=12)), max_size=2)
        ):
            edges += [(driver, sink) for sink in sinks]
        for a, b in edges:
            if a != b:  # duplicates allowed; connect collapses them
                module.connect(f"i{a}", f"i{b}")
    return module


def assert_matches_reference(module: Module, lib=LIB) -> None:
    assert module.resources(lib) == reference_resources(module, lib)
    assert module.signature() == reference_signature(module)
    try:
        want = reference_timing(module, lib)
    except SynthesisError as exc:
        with pytest.raises(SynthesisError) as raised:
            analyze_timing(module, lib)
        assert str(raised.value) == str(exc)
        return
    report = analyze_timing(module, lib)
    assert report.critical_path_ns == want.critical_path_ns
    path = report.critical_path
    assert all(edge in module.edges for edge in zip(path, path[1:]))
    assert report.levels == sum(
        not module.instance(name).sequential for name in path
    )
    if path:
        assert path_delay(module, path, lib) == report.critical_path_ns
    else:
        assert report.critical_path_ns == lib.clock_floor_ns


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(modules())
def test_random_modules_match_reference(module):
    assert_matches_reference(module)


def test_empty_module():
    module = Module("empty")
    assert_matches_reference(module)
    assert module.resources(LIB) == Resources()
    assert analyze_timing(module, LIB).critical_path == ()


def test_purely_combinational_module():
    module = Module("comb")
    module.add("a", Adder(16))
    module.add("b", LogicCloud(luts=40, levels=4))
    module.add("c", Mux(16, 8), replicate=3)
    module.add("d", Adder(8))
    module.chain("a", "b", "c")
    module.connect("d", "c")
    assert_matches_reference(module)
    report = analyze_timing(module, LIB)
    assert report.critical_path == ("a", "b", "c")
    assert report.levels == 3


def test_combinational_loop_message_unchanged():
    module = Module("loop")
    for name in "abcdefg":
        module.add(name, Adder(8))
    module.chain(*"abcdefg")
    module.connect("g", "a")
    assert_matches_reference(module)
    with pytest.raises(
        SynthesisError, match=r"involving \['a', 'b', 'c', 'd', 'e'\]$"
    ):
        analyze_timing(module, LIB)
