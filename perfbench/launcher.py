"""Daemon process for the ``daemon`` workload.

Builds the search daemon with the arguments ``nautilus serve --eval-cache
--archive`` gives it (defaults parsed by the program's own CLI parser, so
``--workers 4`` and the rest follow the command), starts it in its
documented deterministic mode (``SearchService.start(run_scheduler=False)``)
and steps its scheduler with ``Scheduler.tick()`` from this process's main
thread. Campaigns are submitted and their results read over the daemon's
own loopback HTTP API.

A battery of campaigns is submitted together and ticked until every one is
done. Every ``READ_EVERY_S`` of work the ticking pauses for a
reference-kernel reading, taken while the daemon is idle, so host drift is
corrected segment by segment; the readings are not part of the timed work.

Stepping the scheduler here rather than in its own thread is what makes the
workload steady: with the threaded scheduler and clients polling status
over HTTP, the daemon's timings moved by 10-20% between identical runs on a
2-vCPU host, and kernel readings could only be taken between batteries.

Reports JSON lines on stdout: ``ready`` after set-up (process start to the
untimed warm-up battery done), then ``result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
import urllib.error
import urllib.request

from refkernel import DriftClock

#: Work between two kernel readings during a battery, seconds.
READ_EVERY_S = 0.15


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class Http:
    """One request at a time on a new connection, as ``ServiceClient`` does."""

    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"
        self.requests = 0
        self.errors: list[str] = []

    def call(self, method: str, path: str, body: dict | None = None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        self.requests += 1
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return json.loads(response.read() or b"null")
        except urllib.error.HTTPError as exc:
            self.errors.append(f"{method} {path} -> HTTP {exc.code}")
        except (urllib.error.URLError, OSError) as exc:
            self.errors.append(f"{method} {path} -> {exc}")
        return None


def build_service(store: str):
    """The daemon ``nautilus serve --eval-cache --archive`` would build."""
    from repro.cli import build_parser
    from repro.service import SearchService

    args = build_parser().parse_args(
        ["serve", "--dir", store, "--port", "0", "--eval-cache", "--archive"]
    )
    # The keyword arguments repro.cli's serve command passes.
    return SearchService(
        args.dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quiet=not args.verbose,
        eval_cache=args.eval_cache,
        trace_max_events=args.trace_max_events,
        log_json=args.log_json,
        fleet=args.fleet,
        fleet_host=args.host,
        fleet_port=args.fleet_port,
        archive=args.archive,
    )


class Battery:
    """Submit specs over HTTP, tick until all are done, time it in segments."""

    def __init__(self, service, http: Http, clock: DriftClock):
        self.service = service
        self.http = http
        self.clock = clock

    def run(self, specs: list[dict], kernel_before: float | None) -> dict:
        scheduler = self.service.scheduler
        clock = self.clock
        segments: list[list] = []  # [start, end, kernel_before, kernel_after]
        start = time.perf_counter()
        submitted: dict[str, float] = {}
        ids = []
        for spec in specs:
            t = time.perf_counter()
            body = self.http.call("POST", "/campaigns", spec)
            if not body or "id" not in body:
                raise RuntimeError(f"submit failed: {self.http.errors[-1:]}")
            ids.append(body["id"])
            submitted[body["id"]] = t
        pending = list(ids)
        done: dict[str, float] = {}
        deadline = time.monotonic() + 90.0
        while pending:
            if not scheduler.tick():
                raise RuntimeError(f"scheduler idle with {pending} pending")
            now = time.perf_counter()
            for cid in list(pending):
                if scheduler.get(cid).terminal:
                    done[cid] = now
                    pending.remove(cid)
            if pending and now - start >= READ_EVERY_S:
                after = clock.read()
                segments.append([start, now, kernel_before, after])
                kernel_before = after
                start = time.perf_counter()
            if time.monotonic() > deadline:
                raise RuntimeError(f"campaigns {pending} never finished")
        end = time.perf_counter()
        after = clock.read()
        segments.append([start, end, kernel_before, after])
        return {
            "ids": ids,
            "segments": segments,
            "submitted": [submitted[c] for c in ids],
            "done": [done[c] for c in ids],
            "kernel_after": after,
        }

    def statuses(self, ids: list[str]) -> list[dict | None]:
        return [self.http.call("GET", f"/campaigns/{cid}") for cid in ids]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True, help="fresh campaign store")
    parser.add_argument("--specs", required=True,
                        help="JSON: {warmup: [spec], batteries: [[spec]]}")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--dump", default="", help="trace: span dump path")
    args = parser.parse_args()
    with open(args.specs, encoding="utf-8") as fh:
        plan = json.load(fh)

    clock = DriftClock()
    kernel_pre = clock.read()
    t0 = time.perf_counter()
    log = None
    missing: list[str] = []
    if args.dump:
        import layers

        log = layers.SpanLog()
        missing = layers.install(log)
    service = build_service(args.dir)
    service.start(run_scheduler=False)
    http = Http(service.port)
    try:
        if (http.call("GET", "/healthz") or {}).get("status") != "ok":
            raise RuntimeError("daemon did not answer /healthz")
        battery = Battery(service, http, clock)
        warm = battery.run(plan["warmup"], kernel_pre)
        # Up to the end of the warm-up's last tick, without the readings.
        segments = warm["segments"]
        setup_s = segments[0][0] - t0 + sum(end - start for start, end, *_ in segments)
        emit({"event": "ready", "setup_s": setup_s, "kernel_pre": kernel_pre,
              "kernel_post": warm["kernel_after"]})
        if args.setup_only:
            return 0
        results = []
        before = warm["kernel_after"]
        for index, specs in enumerate(plan["batteries"]):
            if log is not None:
                log.item = index
            result = battery.run(specs, before)
            if log is not None:
                log.item = -1
            result["final"] = battery.statuses(result["ids"])
            before = result["kernel_after"]
            results.append(result)
    finally:
        service.stop()
    if log is not None:
        log.dump(args.dump, setup_s=setup_s, kernel_median=clock.median(),
                 work_thread=threading.get_ident())
    emit({
        "event": "result",
        "batteries": results,
        "requests": http.requests,
        "http_errors": http.errors,
        "kernel_median": clock.median(),
        "kernel_readings": len(clock.readings),
        "invalid_windows": clock.invalid_windows,
        "unwrapped": missing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
