"""CI smoke check: the traced perfbench ledger sees every layer of a
workload.

Runs ``perfbench/run.py --workload <workload> --trace 1`` and fails unless

* the run exits 0 (which also means traced and untraced items agree),
* every wrapped target was found (``targets not found: none``), and
* each layer the workload goes through reports a nonzero call count in
  the final JSON line, and
* the telemetry runs once per generation: ``obs.health`` as often as
  ``core.evalstack.evaluate_many`` (one batch per generation, generation
  0 included) and ``obs.attribution`` as often as
  ``core.operators.breed`` (one call per bred generation).

A wrapper left on a method the program no longer calls reads zero calls
and is otherwise silent; this check turns that into a failure. The
equalities catch a change that skips or samples health or attribution
payloads, which would measure a different program.

Usage::

    python3 benchmarks/smoke_trace_ledger.py [replay|daemon]   # default replay

Run it from the root of a checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys

#: Layers every campaign of a workload passes through.
LAYERS = {
    "replay": (
        "core.operators.breed",
        "core.kernel.step",
        "core.kernel.trace_emit",
        "core.guidance.advance",
        "obs.attribution",
        "obs.health",
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


#: (telemetry layer, the layer it must match call for call).
PER_GENERATION = (
    ("obs.health", "core.evalstack.evaluate_many"),
    ("obs.attribution", "core.operators.breed"),
)


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
    for telemetry, layer in PER_GENERATION:
        if calls(telemetry) != calls(layer):
            failures.append(
                f"{telemetry}.calls is {calls(telemetry)}, "
                f"not {layer}.calls = {calls(layer)}"
            )
        else:
            print(f"ok {telemetry}.calls = {layer}.calls = {calls(layer)}")
    if failures:
        print("trace ledger check failed: " + "; ".join(failures))
        return 1
    print(f"trace ledger sees every {workload} layer")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
