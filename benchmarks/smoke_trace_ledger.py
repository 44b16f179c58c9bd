"""CI smoke check: the traced perfbench ledger sees every ``replay`` layer.

Runs ``perfbench/run.py --workload replay --trace 1`` and fails unless

* the run exits 0 (which also means traced and untraced items agree),
* every wrapped target was found (``targets not found: none``), and
* each layer the ``replay`` workload goes through reports a nonzero call
  count in the final JSON line.

A wrapper left on a method the program no longer calls reads zero calls
and is otherwise silent; this check turns that into a failure.

Usage::

    python3 benchmarks/smoke_trace_ledger.py   # from the root of a checkout
"""

from __future__ import annotations

import json
import subprocess
import sys

COMMAND = [
    sys.executable, "perfbench/run.py",
    "--workload", "replay", "--seed", "1", "--seconds", "5", "--trace", "1",
]

#: Layers every replay campaign passes through.
REPLAY_LAYERS = (
    "core.operators.breed",
    "core.kernel.step",
    "core.kernel.trace_emit",
    "core.guidance.advance",
    "obs.attribution",
    "obs.health",
    "core.evalstack.evaluate_many",
    "core.evaluator.dataset_lookup",
)


def main() -> int:
    run = subprocess.run(COMMAND, capture_output=True, text=True)
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
    for layer in REPLAY_LAYERS:
        calls = metrics.get(f"{layer}.calls", {}).get("value", 0)
        if not calls:
            failures.append(f"{layer}.calls is {calls}")
        else:
            print(f"ok {layer}.calls = {calls}")
    if failures:
        print("trace ledger check failed: " + "; ".join(failures))
        return 1
    print("trace ledger sees every replay layer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
