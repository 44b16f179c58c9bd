#!/usr/bin/env python3
"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/config.json`` for their item lists):

* ``replay`` — complete GA campaigns over the committed datasets;
* ``characterize`` — characterization campaigns: sampled design points
  synthesized live;
* ``daemon`` — batteries of guided campaigns submitted over loopback HTTP
  to one daemon built as ``nautilus serve --eval-cache --archive`` builds
  it, its scheduler stepped in-process (see ``launcher.py``).

Each run does a fixed list of items derived from ``--seed`` and
``--seconds`` after an untimed warm-up item, checks every output, and
prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics (from a separate traced process) with ``--trace 1``.
The lines before it give the raw wall-clock figures and the reference
kernel's median. The exit code is 0 only when every check passed.

This process never imports ``repro``; the measured work runs in child
processes (``worker.py``, ``launcher.py``) with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402  (stdlib only; never imports repro)
from refkernel import corrected  # noqa: E402

with open(os.path.join(HERE, "config.json"), encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)
NOMINAL = CONFIG["nominal_kernel_s"]
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not run (not a failed correctness check)."""


def info(message: str) -> None:
    print(message, flush=True)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Child:
    """A measured child process speaking JSON lines on stdout."""

    def __init__(self, run: "Run", script: str, args: list[str]):
        self.name = f"{script} {' '.join(args)}"
        self.stderr_path = os.path.join(run.work, f"stderr-{len(run.children)}.txt")
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            cwd=run.root,
            env=run.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        run.children.append(self)
        self.events: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            start = line.find('{"event"')
            if start >= 0:
                self.events.put(json.loads(line[start:]))
        self.events.put(None)

    def expect(self, event: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                payload = self.events.get(timeout=max(deadline - time.monotonic(), 0.001))
            except queue.Empty:
                raise BenchError(f"{self.name}: no {event!r} within {timeout:.0f}s") from None
            if payload is None:
                self.proc.wait(10)
                with open(self.stderr_path, encoding="utf-8") as fh:
                    tail = fh.read()[-3000:]
                raise BenchError(
                    f"{self.name} exited ({self.proc.returncode}) before "
                    f"{event!r}:\n{tail}"
                )
            if payload.get("event") == event:
                return payload

    def finish(self, timeout: float = 30.0) -> None:
        """Wait for a normal exit; kill the child if it does not come."""
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError(f"{self.name}: did not exit") from None
        self._reader.join(10)
        self._stderr.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(10)
        self._reader.join(10)
        self._stderr.close()


class Run:
    """One benchmark invocation: its checkout, work directory and children."""

    def __init__(self, root: str):
        self.root = root
        base = os.path.join(root, ".perfbench")
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=base)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.children: list[Child] = []

    def close(self) -> None:
        for child in self.children:
            if child.proc.poll() is None:
                child.stop()
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# replay and characterize: worker.py children
# ---------------------------------------------------------------------------


def worker_setups(run: Run, workload: str, count: int) -> list[dict]:
    """Set up ``count`` fresh worker processes one after another."""
    readies = []
    for _ in range(count):
        child = Child(run, "worker.py", ["--workload", workload, "--role", "setup"])
        readies.append(child.expect("ready"))
        child.finish()
    return readies


def worker_run(run: Run, workload: str, seed: int, seconds: float,
               dump: str = "") -> tuple[dict, dict]:
    role = ["--role", "trace", "--dump", dump] if dump else ["--role", "run"]
    child = Child(run, "worker.py", ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), *role])
    ready = child.expect("ready")
    result = child.expect("result")
    child.finish()
    return ready, result


def setup_value(ready: dict, correct: bool) -> float:
    raw = ready["setup_s"]
    if not correct:
        return raw
    return corrected(raw, ready["kernel_pre"], ready["kernel_post"], NOMINAL)


def item_summary(item: dict) -> list:
    """What must agree between a traced and an untraced run of an item."""
    return [item.get(k) for k in ("generations", "distinct", "best", "config",
                                  "designs", "errors")]


def campaign_metrics(workload: str, campaigns: list[dict], totals: dict) -> dict:
    """The campaign metrics every workload reports.

    ``campaigns`` hold each campaign's ``raw_s`` and ``corrected_s``
    latency, its ``generations`` (evaluation rounds) and ``distinct`` (paid)
    evaluations; ``totals`` the run's timed work, raw and corrected.
    """
    fix = CONFIG["workloads"][workload]["corrected"]
    gens = sum(c["generations"] for c in campaigns)
    distinct = sum(c["distinct"] for c in campaigns)
    rates = {}
    for kind in ("raw_s", "corrected_s"):
        times = [c[kind] for c in campaigns]
        rates[kind] = {
            "gens_per_s": gens / totals[kind],
            "designs_per_s": distinct / totals[kind],
            "campaigns_per_s": len(campaigns) / totals[kind],
            "campaign_ms_p50": 1000 * percentile(times, 50),
            "campaign_ms_p90": 1000 * percentile(times, 90),
        }
    metrics = {"evals_per_campaign": distinct / len(campaigns)}
    info(f"campaigns {len(campaigns)}, generations {gens}, distinct evaluations "
         f"{distinct}")
    for name, raw in rates["raw_s"].items():
        metrics[name] = rates["corrected_s" if fix[name] else "raw_s"][name]
        info(f"{name} raw {raw:.4f} corrected {rates['corrected_s'][name]:.4f}")
    return metrics


def end_to_end_worker(run: Run, workload: str, seed: int, seconds: float):
    fix = CONFIG["workloads"][workload]["corrected"]
    readies = worker_setups(run, workload, CONFIG["setup_repeats"] - 1)
    ready, result = worker_run(run, workload, seed, seconds)
    readies.append(ready)
    items = result["items"]
    setups = [setup_value(r, fix["setup_s"]) for r in readies]
    totals = {k: sum(i[k] for i in items) for k in ("raw_s", "corrected_s")}
    info(f"setup_s raw {[round(r['setup_s'], 4) for r in readies]} "
         f"corrected {[round(s, 4) for s in setups]}")
    info(f"items {len(items)}: raw {totals['raw_s']:.4f}s corrected "
         f"{totals['corrected_s']:.4f}s; kernel median "
         f"{result['kernel_median'] * 1e3:.4f} ms over "
         f"{result['kernel_readings']} readings, "
         f"{result['invalid_windows']} invalid windows")
    campaigns: dict[int, dict] = {}
    for item in items:
        c = campaigns.setdefault(item["campaign"], dict.fromkeys(
            ("raw_s", "corrected_s", "generations", "distinct"), 0))
        for key in c:
            c[key] += item[key]
    metrics = campaign_metrics(workload, list(campaigns.values()), totals)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    errors = [e for item in items for e in item["errors"]]
    if workload == "replay":
        attempted = len(items)
        failed = sum(1 for i in items if i["errors"])
    else:
        attempted = sum(i["designs"] for i in items)
        failed = len(errors)
    for message in [e for e in errors if e][:5]:
        info(f"check failed: {message}")
    return attempted, failed, metrics


def per_layer_worker(run: Run, workload: str, seed: int, seconds: float):
    dump = os.path.join(run.work, "spans.jsonl")
    _, plain = worker_run(run, workload, seed, seconds)
    ready, traced = worker_run(run, workload, seed, seconds, dump=dump)
    items, traced_items = plain["items"], traced["items"]
    differ = sum(1 for a, b in zip(items, traced_items)
                 if item_summary(a) != item_summary(b))
    if workload == "replay":
        attempted = len(items)
        failed = differ + sum(1 for i in items + traced_items if i["errors"])
    else:
        attempted = sum(i["designs"] for i in items)
        failed = differ + sum(len(i["errors"]) for i in items + traced_items)
    if differ:
        info(f"check failed: {differ} traced items differ from untraced ones")
    overhead = (sum(i["corrected_s"] for i in traced_items)
                / sum(i["corrected_s"] for i in items))
    head, spans = layers.read_dump(dump)
    header = head["header"]
    metrics = layer_metrics(
        head, spans,
        timed_wall=header["timed_wall_s"],
        setup_s=header["setup_s"],
        work_thread=header["work_thread"],
        snr_cache=traced.get("snr_cache"),
    )
    metrics["tracing_overhead"] = overhead
    info(f"traced items: raw {header['timed_wall_s']:.4f}s, kernel median "
         f"{header['kernel_median'] * 1e3:.4f} ms, "
         f"{len(spans)} spans, tracing overhead {overhead:.4f}; "
         f"targets not found: {traced['unwrapped'] or 'none'}")
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# per-layer metrics from a span dump
# ---------------------------------------------------------------------------


def layer_metrics(head: dict, spans: list[tuple], timed_wall: float,
                  setup_s: float, work_thread: int, snr_cache: dict | None) -> dict:
    """Every per-layer metric from a traced process's span dump; a layer
    the workload never calls reports zero calls and a zero share.

    Shares are of ``timed_wall``, the raw wall time of the traced items, so
    host drift cancels. ``snr_cache`` is the FFT SNR cache's hits and
    misses over the timed items, None where the process never read it.
    """
    timed = [s for s in spans if s[5] >= 0]
    agg = layers.aggregate(timed)
    everything = layers.aggregate(spans)
    counts = head["counts"]
    stats = [s for s in head["stack_stats"] if s["item"] >= 0]
    requests = sum(s["requests"] for s in stats)

    def entry(name: str) -> dict:
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    values = {
        "core.evalstack.memo_hit_ratio":
            sum(s["memo_hits"] for s in stats) / requests if requests else 0.0,
        "core.evalstack.persistent_hit_ratio":
            sum(s["persistent_hits"] for s in stats) / requests if requests else 0.0,
        "dataset.load.calls": everything.get("dataset.load", {}).get("calls", 0),
        "dataset.load.setup_share":
            everything.get("dataset.load", {}).get("total_s", 0.0) / setup_s,
        "unattributed_share": 1.0 - layers.root_time(timed, work_thread) / timed_wall,
        "service.http.errors": counts.get("http_errors", 0),
    }
    saves = entry("core.checkpoint.save")["calls"]
    values["core.checkpoint.save.bytes_per_call"] = (
        counts.get("checkpoint_bytes", 0) / saves if saves else 0.0
    )
    tick = entry("service.scheduler.tick")
    values["service.scheduler.tick.calls"] = tick["calls"]
    values["service.scheduler.tick.busy_share"] = tick["total_s"] / timed_wall
    cache = snr_cache or {"hits": 0, "misses": 0}
    lookups = cache["hits"] + cache["misses"]
    values["fft.snr_db.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    metrics = {}
    for name in (m["name"] for m in declared("per_layer")):
        if name in values:
            metrics[name] = values[name]
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = entry(layer)["calls"]
        elif kind == "self_share":
            metrics[name] = entry(layer)["self_s"] / timed_wall
    return metrics


# ---------------------------------------------------------------------------
# daemon: launcher.py children
# ---------------------------------------------------------------------------


def daemon_plan(run: Run, seed: int, seconds: float) -> str:
    """Write the warm-up and the timed batteries; returns the file path."""
    cfg = CONFIG["workloads"]["daemon"]
    rounds = max(1, round(seconds / cfg["nominal_battery_s"]))
    rng = random.Random(f"daemon:{seed}")
    plan = {
        "warmup": [
            {"query": q, "engine": "nautilus", "seed": 1000 + i,
             "generations": cfg["warmup_generations"]}
            for i, q in enumerate(cfg["warmup"])
        ],
        "batteries": [
            [{"query": q, "engine": "nautilus", "seed": rng.randrange(2**31),
              "generations": cfg["generations"]} for q in cfg["battery"]]
            for _ in range(rounds)
        ],
    }
    path = os.path.join(run.work, "plan.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    return path


def launch(run: Run, plan: str, tag: str, setup_only: bool = False,
           dump: str = "") -> tuple[dict, dict | None]:
    """One daemon on a fresh store: its ``ready`` and ``result`` events."""
    args = ["--dir", os.path.join(run.work, f"store-{tag}"), "--specs", plan]
    if setup_only:
        args.append("--setup-only")
    if dump:
        args += ["--dump", dump]
    child = Child(run, "launcher.py", args)
    ready = child.expect("ready")
    result = None if setup_only else child.expect("result")
    child.finish()
    return ready, result


def work_time(segments: list, until: float, correct: bool) -> float:
    """Timed work of a battery up to ``until``, kernel readings excluded."""
    total = 0.0
    for start, end, before, after in segments:
        if until <= start:
            break
        span = min(until, end) - start
        total += corrected(span, before, after, NOMINAL) if correct else span
    return total


def check_daemon(run: Run, plan: str, result: dict) -> tuple[int, int, list[str]]:
    """Every request 2xx, every campaign done and equal to an in-process
    ``GeneticSearch`` of the same spec."""
    with open(plan, encoding="utf-8") as fh:
        specs = [s for battery in json.load(fh)["batteries"] for s in battery]
    finals = [f for b in result["batteries"] for f in b["final"]]
    path = os.path.join(run.work, "specs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(specs, fh)
    child = Child(run, "worker.py", ["--workload", "daemon", "--role", "verify",
                                     "--specs", path])
    reference = child.expect("verified")["results"]
    child.finish()
    problems = list(result["http_errors"])
    for spec, final, ref in zip(specs, finals, reference):
        final = final or {}
        if final.get("state") != "done":
            problems.append(f"{spec['query']} seed {spec['seed']}: {final.get('state')}")
        elif (final.get("best_raw") != ref["best_raw"]
              or final.get("best_config") != ref["best_config"]):
            problems.append(f"{spec['query']} seed {spec['seed']}: daemon "
                            f"{final.get('best_raw')} != in-process {ref['best_raw']}")
    return len(specs) + result["requests"], len(problems), problems


def battery_times(batteries: list[dict], correct: bool) -> tuple[float, list[float]]:
    """Total timed work and per-campaign submit-to-done latencies."""
    total, latencies = 0.0, []
    for b in batteries:
        segments = b["segments"]
        total += work_time(segments, segments[-1][1], correct)
        latencies += [work_time(segments, d, correct) - work_time(segments, s, correct)
                      for s, d in zip(b["submitted"], b["done"])]
    return total, latencies


def end_to_end_daemon(run: Run, seed: int, seconds: float):
    fix = CONFIG["workloads"]["daemon"]["corrected"]
    plan = daemon_plan(run, seed, seconds)
    readies = [launch(run, plan, f"setup{i}", setup_only=True)[0]
               for i in range(CONFIG["setup_repeats"] - 1)]
    ready, result = launch(run, plan, "timed")
    readies.append(ready)
    attempted, failed, problems = check_daemon(run, plan, result)

    batteries = result["batteries"]
    raw_total, raw_lat = battery_times(batteries, False)
    cor_total, cor_lat = battery_times(batteries, True)
    setups = [setup_value(r, fix["setup_s"]) for r in readies]
    info(f"setup_s raw {[round(r['setup_s'], 4) for r in readies]} "
         f"corrected {[round(s, 4) for s in setups]}")
    info(f"batteries {len(batteries)}, campaigns {len(raw_lat)}: raw {raw_total:.4f}s "
         f"corrected {cor_total:.4f}s; kernel median "
         f"{result['kernel_median'] * 1e3:.4f} ms over {result['kernel_readings']} "
         f"readings, {result['invalid_windows']} invalid windows")
    for message in problems[:5]:
        info(f"check failed: {message}")
    finals = [f or {} for b in batteries for f in b["final"]]
    campaigns = [
        {"raw_s": raw, "corrected_s": cor,
         "generations": final.get("generations_done", 0),
         "distinct": final.get("distinct_evaluations", 0)}
        for raw, cor, final in zip(raw_lat, cor_lat, finals)
    ]
    metrics = campaign_metrics(
        "daemon", campaigns, {"raw_s": raw_total, "corrected_s": cor_total})
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    return attempted, failed, metrics


def per_layer_daemon(run: Run, seed: int, seconds: float):
    plan = daemon_plan(run, seed, seconds)
    dump = os.path.join(run.work, "spans.jsonl")
    _, plain = launch(run, plan, "plain")
    ready, traced = launch(run, plan, "traced", dump=dump)
    attempted, failed, problems = check_daemon(run, plan, traced)
    keys = ("best_raw", "best_config", "distinct_evaluations", "state")
    for a, b in zip(plain["batteries"], traced["batteries"]):
        for fa, fb in zip(a["final"], b["final"]):
            if [(fa or {}).get(k) for k in keys] != [(fb or {}).get(k) for k in keys]:
                failed += 1
                problems.append(f"traced {(fb or {}).get('id')} differs from untraced")
    for message in problems[:5]:
        info(f"check failed: {message}")
    head, spans = layers.read_dump(dump)
    timed_wall, _ = battery_times(traced["batteries"], False)
    header = head["header"]
    metrics = layer_metrics(
        head, spans, timed_wall=timed_wall, setup_s=header["setup_s"],
        work_thread=header["work_thread"], snr_cache=None,
    )
    metrics["tracing_overhead"] = (battery_times(traced["batteries"], True)[0]
                                   / battery_times(plain["batteries"], True)[0])
    info(f"traced batteries: raw {timed_wall:.4f}s, kernel median "
         f"{header['kernel_median'] * 1e3:.4f} ms, {len(spans)} spans, "
         f"tracing overhead {metrics['tracing_overhead']:.4f}; "
         f"targets not found: {traced['unwrapped'] or 'none'}")
    return attempted, failed, metrics


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in (os.path.join("src", "repro", "__init__.py"), "data"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found under {root}; run from the "
                  "root of a checkout", file=sys.stderr)
            return 2
    run = Run(root)
    try:
        if args.workload == "daemon":
            job = per_layer_daemon if args.trace else end_to_end_daemon
            attempted, failed, metrics = job(run, args.seed, args.seconds)
        else:
            job = per_layer_worker if args.trace else end_to_end_worker
            attempted, failed, metrics = job(run, args.workload, args.seed,
                                             args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        run.close()
    declared_metrics = declared("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def declared(key: str) -> list[dict]:
    """The metrics ``BENCHMARK.json`` declares under ``key``."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[key]


if __name__ == "__main__":
    sys.exit(main())
