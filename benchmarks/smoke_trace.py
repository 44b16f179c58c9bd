"""CI smoke check: span tracing over a lossy fleet must cost nothing.

Runs the same seeded guided-GA campaign (noc-frequency) twice:

1. inline, single process, tracing **off** — the reference run;
2. through a live :class:`~repro.distributed.FleetCoordinator` with two
   real ``nautilus worker`` subprocesses and tracing **on**, one worker
   SIGKILLed the moment it is holding dispatched tasks.

The traced fleet run must produce a convergence curve bit-identical to
the untraced inline run — the span layer consumes zero RNG draws and
fault-tolerant re-dispatch never changes what the search sees. On top of
that the span tree itself is checked: accounting closes (every span
inside its parent's window, every dispatched task owned by exactly one
task span even across SIGKILL retries and duplicate results), the phase
partition covers >=95% of each generation's wall clock with the measured
phases (``init``, ``evaluate``, ``observe`` for generation 0; ``breed``,
``evaluate``, ``observe``, ``checkpoint`` after it), the run emits no
``phase-budget`` event, and the Perfetto export is valid trace-event
JSON with one complete event per span.

Usage::

    PYTHONPATH=src python benchmarks/smoke_trace.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core import (
    DatasetEvaluator,
    GAConfig,
    GeneticSearch,
    RecordingTraceSink,
)
from repro.core.evalstack import EvaluationStack
from repro.distributed import FleetCoordinator, RetryPolicy
from repro.obs import (
    perfetto_export,
    phase_budget,
    validate_accounting,
)
from repro.queries import QUERIES, build_hints, load_dataset, resolve_objective

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
QUERY = "noc-frequency"
SEED = 3
GENERATIONS = 10


def _build_search(dataset, evaluator, tracing: bool):
    query = QUERIES[QUERY]
    objective, hint_kind = resolve_objective(query)
    return GeneticSearch(
        dataset.space,
        evaluator,
        objective,
        GAConfig(generations=GENERATIONS, seed=SEED, tracing=tracing),
        hints=build_hints(hint_kind),
    )


def _curve(result):
    return [
        (r.generation, r.distinct_evaluations, r.best_raw, r.best_score)
        for r in result.records
    ]


def _spawn_worker(coordinator, name: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--connect", coordinator.address,
            "--spaces", "noc", "--name", name,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30.0
    while name not in coordinator.workers:
        if time.monotonic() > deadline:
            process.kill()
            raise AssertionError(f"worker {name} never registered")
        time.sleep(0.01)
    return process


def _kill_mid_run(coordinator, victim: subprocess.Popen, done: threading.Event):
    """SIGKILL the victim once it is actually holding dispatched tasks."""
    while not done.is_set():
        info = coordinator.workers.get("victim")
        if info is not None and info.in_flight > 0:
            break
        time.sleep(0.001)
    os.kill(victim.pid, signal.SIGKILL)


def _check_tree(spans, distinct_evaluations: int) -> None:
    closed = [s for s in spans if s["end_s"] is not None]
    assert closed, "traced run recorded no spans"

    report = validate_accounting(spans)
    assert report["ok"], "span accounting broken:\n" + "\n".join(
        report["errors"]
    )
    assert report["open_spans"] == 0, (
        f"{report['open_spans']} spans never closed"
    )

    # One owning task span per dispatched task, even through the SIGKILL:
    # double ownership is flagged by validate_accounting above, and every
    # distinct evaluation the fleet served must be owned by some task span.
    task_spans = [s for s in spans if s["name"] == "task"]
    owned = {s["attrs"].get("task") for s in task_spans}
    assert len(owned) == len(task_spans), "a task is owned by two spans"
    assert len(task_spans) >= distinct_evaluations, (
        f"only {len(task_spans)} task spans for "
        f"{distinct_evaluations} distinct evaluations"
    )
    workers = {s["attrs"].get("worker") for s in task_spans}
    assert workers - {None, ""}, "task spans carry no worker attribution"

    budget = phase_budget(spans)
    assert budget["coverage"] >= 0.95, (
        f"phase partition covers only {budget['coverage']:.1%} "
        "of the generation wall clock"
    )
    # Every phase is measured: generation 0 initializes, later ones breed.
    for row in budget["generations"]:
        expected = (
            {"init", "evaluate", "observe"}
            if row["generation"] == 0
            else {"breed", "evaluate", "observe", "checkpoint"}
        )
        assert set(row["phases"]) == expected, (
            f"generation {row['generation']} has phases "
            f"{sorted(row['phases'])}, not {sorted(expected)}"
        )

    doc = perfetto_export(spans)
    encoded = json.dumps(doc)  # must be valid trace-event JSON
    events = [e for e in json.loads(encoded)["traceEvents"] if e["ph"] == "X"]
    assert len(events) == len(closed), (
        f"{len(events)} complete events for {len(closed)} closed spans"
    )
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in events)

    retries = sum(1 for s in spans if s["name"] == "retry")
    print(
        f"  spans:   {len(closed)} closed, {len(task_spans)} tasks on "
        f"{sorted(w for w in workers if w)}, {retries} retries, "
        f"coverage={budget['coverage']:.1%}"
    )


def main() -> int:
    dataset = load_dataset(QUERY.split("-")[0])

    inline_stack = EvaluationStack(DatasetEvaluator(dataset))
    inline = _build_search(dataset, inline_stack, tracing=False).run()
    print(
        f"  inline:  best={inline.best.score:.6g} "
        f"distinct={inline.distinct_evaluations} (tracing off)"
    )

    coordinator = FleetCoordinator(
        policy=RetryPolicy(
            task_timeout_s=30.0,
            heartbeat_interval_s=0.1,
            heartbeat_timeout_s=2.0,
        )
    ).start()
    victim = survivor = None
    try:
        victim = _spawn_worker(coordinator, "victim")
        survivor = _spawn_worker(coordinator, "survivor")
        fleet_stack = EvaluationStack(
            DatasetEvaluator(dataset), backend="fleet", fleet=coordinator
        )
        done = threading.Event()
        killer = threading.Thread(
            target=_kill_mid_run, args=(coordinator, victim, done), daemon=True
        )
        killer.start()
        search = _build_search(dataset, fleet_stack, tracing=True)
        sink = RecordingTraceSink(limit=None)
        search.attach_sink(sink)
        fleet = search.run()
        done.set()
        killer.join(10.0)
        victim.wait(10.0)

        assert fleet.best.score == inline.best.score, (
            f"best score drifted under tracing: fleet={fleet.best.score!r} "
            f"inline={inline.best.score!r}"
        )
        assert fleet.best_raw == inline.best_raw
        assert fleet.distinct_evaluations == inline.distinct_evaluations
        assert _curve(fleet) == _curve(inline), (
            "tracing or the fleet perturbed the seeded curve"
        )
        print(
            f"  fleet:   best={fleet.best.score:.6g} "
            f"distinct={fleet.distinct_evaluations} (tracing on)"
        )

        _check_tree(search.spans(), fleet.distinct_evaluations)
        kinds = {event.kind for event in sink.events()}
        assert "phase-budget" not in kinds, (
            "the span tree is the one record of phase time; the traced run "
            "emitted phase-budget events"
        )
        print(
            "  ok: SIGKILLed worker mid-run under tracing; curve "
            "bit-identical, span accounting closed, Perfetto export valid"
        )
    finally:
        for process in (victim, survivor):
            if process is not None and process.poll() is None:
                process.kill()
                process.wait(10.0)
        coordinator.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
