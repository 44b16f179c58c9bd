"""CI smoke check: the traced perfbench ledger sees every layer of a
workload.

Runs ``perfbench/run.py --workload <workload> --trace 1`` and fails unless

* the run exits 0 (which also means traced and untraced items agree),
* every wrapped target was found (``targets not found: none``), and
* each layer the workload goes through reports a nonzero call count in
  the final JSON line.

A wrapper left on a method the program no longer calls reads zero calls
and is otherwise silent; this check turns that into a failure.

The ``health`` and ``hint-attribution`` payloads are built the first time
something reads their events, so a check that counts builds is a check
that every payload is built when read, once:

* ``daemon``: the JSONL sink reads every event as it writes it, so the
  traced run must build one health payload per evaluation batch
  (``obs.health`` calls equal ``core.evalstack.evaluate_many`` calls,
  generation 0 included) and one attribution payload per bred generation
  (``obs.attribution`` calls equal ``core.operators.breed`` calls).
* ``replay``: nothing reads the events, so the traced run reports 0 calls
  for both. An in-process pass then runs the 12 battery campaigns of
  ``perfbench/config.json`` once, with fixed seeds, through
  ``build_search(...).run()`` with a ``RecordingTraceSink`` attached
  (it keeps the events and reads no payload), counting calls through
  wrappers on ``repro.core.kernel.population_health`` and
  ``summarize_generation`` (the names the kernel's builders look up). It requires no build after
  the runs; then every event's payload is read twice, and the first read
  must build one health payload per ``eval-batch`` event and one
  attribution payload per bred generation (``BreedingPipeline.breed``
  call), the second none.

Either way a change that skips or samples health or attribution payloads,
which would measure a different program, fails here.

Usage::

    python3 benchmarks/smoke_trace_ledger.py [replay|daemon]   # default replay

Run it from the root of a checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Layers every campaign of a workload passes through.
LAYERS = {
    "replay": (
        "core.operators.breed",
        "core.kernel.step",
        "core.kernel.trace_emit",
        "core.guidance.advance",
        "core.evalstack.evaluate_many",
        "core.evaluator.dataset_lookup",
    ),
    "daemon": (
        "core.operators.breed",
        "core.kernel.step",
        "core.kernel.jsonl_emit",
        "core.evalstack.evaluate_many",
        "core.evalstack.persistent_put",
        "archive.record_many",
        "core.evaluator.dataset_lookup",
        "core.checkpoint.save",
        "service.store.save_status",
        "service.store.save_result",
        "service.metrics.record",
        "service.scheduler.tick",
        "service.http.request",
    ),
}


#: (telemetry layer, the layer it must match call for call) on the
#: daemon, whose JSONL sink reads every payload.
PER_GENERATION = (
    ("obs.health", "core.evalstack.evaluate_many"),
    ("obs.attribution", "core.operators.breed"),
)


def forced_builds() -> list[str]:
    """The replay battery in process: no payload built by the runs, each
    built once when read (see the module docstring). Returns failures."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.core.kernel as kernel
    from repro.core.operators import BreedingPipeline
    from repro.queries import load_dataset
    from repro.service.campaign import CampaignSpec, build_search, query_space

    config = json.loads((ROOT / "perfbench" / "config.json").read_text())
    replay = config["workloads"]["replay"]
    calls = {"health": 0, "attribution": 0, "breed": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    kernel.population_health = counted("health", kernel.population_health)
    kernel.summarize_generation = counted(
        "attribution", kernel.summarize_generation
    )
    BreedingPipeline.breed = counted("breed", BreedingPipeline.breed)
    datasets = {space: load_dataset(space) for space in replay["spaces"]}
    sink = kernel.RecordingTraceSink(limit=None)
    for seed, (query, engine) in enumerate(replay["battery"], start=1):
        spec = CampaignSpec(query=query, engine=engine, seed=seed,
                            generations=replay["generations"])
        search = build_search(spec, datasets[query_space(spec)])
        search.attach_sink(sink)
        search.run()
    events = sink.events()
    failures = []
    built = (calls["health"], calls["attribution"])
    if built != (0, 0):
        failures.append(f"the runs built {built} (health, attribution) payloads")
    else:
        print(f"ok {len(replay['battery'])} campaigns built no payload")
    wanted = (sum(e.kind == "eval-batch" for e in events), calls["breed"])
    for read in ("first", "second"):
        before = (calls["health"], calls["attribution"])
        for event in events:
            event.payload  # the first read builds it
        made = (calls["health"] - before[0], calls["attribution"] - before[1])
        expected = wanted if read == "first" else (0, 0)
        if made != expected:
            failures.append(
                f"the {read} read built {made} (health, attribution) "
                f"payloads, not {expected}"
            )
        else:
            print(f"ok the {read} read built {made} (health, attribution) "
                  "payloads")
    return failures


def main(argv: list[str]) -> int:
    workload = argv[0] if argv else "replay"
    if len(argv) > 1 or workload not in LAYERS:
        print(f"usage: smoke_trace_ledger.py [{'|'.join(LAYERS)}]")
        return 2
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "5", "--trace", "1",
    ]
    run = subprocess.run(command, capture_output=True, text=True)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    failures = []
    if run.returncode != 0:
        failures.append(f"perfbench exited {run.returncode}")
    if "targets not found: none" not in run.stdout:
        failures.append("a traced target was not found")
    lines = run.stdout.strip().splitlines()
    try:
        metrics = json.loads(lines[-1])["metrics"] if lines else {}
    except (json.JSONDecodeError, KeyError):
        metrics = {}
        failures.append("the last line is not perfbench's result JSON")

    def calls(layer: str) -> int:
        return metrics.get(f"{layer}.calls", {}).get("value", 0)

    for layer in LAYERS[workload]:
        if not calls(layer):
            failures.append(f"{layer}.calls is {calls(layer)}")
        else:
            print(f"ok {layer}.calls = {calls(layer)}")
    if workload == "daemon":
        for telemetry, layer in PER_GENERATION:
            if calls(telemetry) != calls(layer):
                failures.append(
                    f"{telemetry}.calls is {calls(telemetry)}, "
                    f"not {layer}.calls = {calls(layer)}"
                )
            else:
                print(f"ok {telemetry}.calls = {layer}.calls = {calls(layer)}")
    else:
        failures += forced_builds()
    if failures:
        print("trace ledger check failed: " + "; ".join(failures))
        return 1
    print(f"trace ledger sees every {workload} layer")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
