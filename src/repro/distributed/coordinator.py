"""The fleet coordinator: registry + dispatch + fault recovery.

One :class:`FleetCoordinator` owns a TCP listener that worker daemons
(``nautilus worker --connect host:port``) dial into, and exposes exactly
one blocking primitive to the evaluation side: :meth:`submit_batch`, which
the :class:`~repro.distributed.fleetbackend.FleetBackend` calls beneath a
campaign's :class:`~repro.core.EvaluationStack`.

Guarantees (the reason this module exists):

* **No evaluation is lost.** Every submitted task terminates: served by a
  worker, requeued around worker deaths and timeouts up to the retry
  budget, surfaced as a structured error on exhaustion, or handed back as
  *fleet-unavailable* for the caller's local fallback when no live worker
  can serve its space.
* **No evaluation is double-paid.** Tasks are content-addressed
  (:func:`~repro.distributed.protocol.task_id`); concurrent requests for
  the same design coalesce onto one in-flight task, and a late result from
  a worker that was presumed dead completes the task instead of being
  re-paid (the duplicate from the re-dispatch is then dropped and
  counted, never delivered twice).
* **Scheduling consumes zero RNG draws.** Backoff jitter is hash-derived
  (:class:`~repro.distributed.retry.RetryPolicy`), so a seeded campaign's
  results are bit-identical whether its evaluations ran inline, on one
  worker, or were retried across a dying fleet.

Threads: one acceptor, one reader per worker connection, one dispatcher.
All shared state is guarded by a single condition variable; socket sends
happen outside it so a slow worker never stalls bookkeeping.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import Any, Sequence

from ..obs.clock import DEFAULT_CLOCK
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    read_message,
    send_message,
)
from .registry import WorkerRegistry
from .retry import RetryPolicy

__all__ = ["FleetCoordinator"]

_LOG = logging.getLogger("nautilus.fleet")

#: Dispatcher sweep cadence, seconds (also bounds timeout detection lag).
_POLL_S = 0.02


class _Task:
    """One content-addressed evaluation task inside the coordinator."""

    __slots__ = (
        "id", "space", "fingerprint", "values", "refs", "attempts",
        "state", "worker", "eligible_at", "deadline", "outcome",
        "events", "trace_ctx",
    )

    PENDING = "pending"
    INFLIGHT = "inflight"
    DONE = "done"

    def __init__(self, payload: dict[str, Any]):
        self.id: str = payload["id"]
        self.space: str = payload["space"]
        self.fingerprint: str = payload["fingerprint"]
        self.values = payload["values"]
        self.refs = 0
        self.attempts = 0
        self.state = self.PENDING
        self.worker: str | None = None
        self.eligible_at = 0.0
        self.deadline = 0.0
        self.outcome: dict[str, Any] | None = None
        #: Span-tracing event log (dispatch / retry / done / duplicate),
        #: with absolute coordinator-clock stamps; ``None`` unless a
        #: tracing submitter asked for it (zero overhead otherwise).
        self.events: list[dict[str, Any]] | None = None
        #: Span context of the tracing submitter, forwarded in the batch
        #: frame so the worker can echo it back.
        self.trace_ctx: dict[str, Any] | None = None

    def note(self, event: str, worker: str | None, at: float, **extra) -> None:
        if self.events is not None:
            self.events.append(
                {"event": event, "worker": worker or "", "at": at, **extra}
            )

    def wire_payload(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "space": self.space,
            "fingerprint": self.fingerprint,
            "values": self.values,
        }


class _Connection:
    """One worker's socket plus its send serialization lock."""

    def __init__(self, name: str, sock: socket.socket):
        self.name = name
        self.sock = sock
        self.send_lock = threading.Lock()

    def send(self, payload: dict[str, Any]) -> None:
        with self.send_lock:
            send_message(self.sock, payload)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _Batch:
    """Bookkeeping for one dispatched batch (throughput attribution)."""

    __slots__ = ("worker", "task_ids", "sent_at")

    def __init__(self, worker: str, task_ids: set[str], sent_at: float):
        self.worker = worker
        self.task_ids = task_ids
        self.sent_at = sent_at


class _FleetMetrics:
    """Optional per-worker families in a shared MetricsRegistry."""

    def __init__(self, registry):
        self.dispatched = registry.counter(
            "nautilus_fleet_dispatched_total",
            "Tasks dispatched to each worker (re-dispatches included).",
            labelnames=("worker",),
        )
        self.completed = registry.counter(
            "nautilus_fleet_completed_total",
            "Task results delivered by each worker.",
            labelnames=("worker",),
        )
        self.failed = registry.counter(
            "nautilus_fleet_failed_total",
            "Structured evaluation errors reported by each worker.",
            labelnames=("worker",),
        )
        self.retried = registry.counter(
            "nautilus_fleet_retried_total",
            "Tasks requeued after timing out on a live worker.",
            labelnames=("worker",),
        )
        self.requeued = registry.counter(
            "nautilus_fleet_requeued_total",
            "In-flight tasks requeued because their worker died.",
            labelnames=("worker",),
        )
        self.task_seconds = registry.histogram(
            "nautilus_fleet_batch_seconds",
            "Round-trip time of one dispatched batch per worker.",
            labelnames=("worker",),
        )
        self.heartbeat_age = registry.gauge(
            "nautilus_fleet_heartbeat_age_seconds",
            "Seconds since each live worker's last heartbeat.",
            labelnames=("worker",),
        )
        self.workers = registry.gauge(
            "nautilus_fleet_workers", "Live workers in the fleet registry."
        )
        self.queue_depth = registry.gauge(
            "nautilus_fleet_queue_depth",
            "Tasks waiting for dispatch (pending, incl. backoff delays).",
        )
        self.exhausted = registry.counter(
            "nautilus_fleet_retry_exhausted_total",
            "Tasks that failed every attempt of the retry budget.",
        )
        self.duplicates = registry.counter(
            "nautilus_fleet_duplicate_results_total",
            "Late results dropped because the task was already served.",
        )
        self.fallback = registry.counter(
            "nautilus_fleet_local_fallback_total",
            "Evaluations served by the local backend (fleet unavailable).",
        )

    def remove_worker(self, name: str) -> None:
        """Drop every per-worker label set when a worker leaves the fleet.

        Without this, a long-lived daemon's ``/metrics`` page accretes one
        series per worker that ever registered — the heartbeat-age gauge
        most visibly, since it is only ever *set* for live workers.
        """
        for family in (
            self.dispatched, self.completed, self.failed, self.retried,
            self.requeued, self.task_seconds, self.heartbeat_age,
        ):
            family.remove(worker=name)


class FleetCoordinator:
    """TCP coordinator for a fleet of ``nautilus worker`` daemons.

    Args:
        host/port: Listener address; ``port=0`` binds ephemeral
            (``coordinator.port`` reports the real one).
        policy: Timeout/retry/backoff knobs (:class:`RetryPolicy`).
        registry: Optional :class:`repro.obs.MetricsRegistry`; per-worker
            fleet families (``nautilus_fleet_*``) are published there and
            served by the daemon's ``/metrics`` endpoint.
        clock: Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: RetryPolicy | None = None,
        registry=None,
        clock=None,
    ):
        self.policy = policy or RetryPolicy()
        clock = clock if clock is not None else DEFAULT_CLOCK
        self.workers = WorkerRegistry(clock=clock)
        self._clock = clock
        self._metrics = _FleetMetrics(registry) if registry is not None else None
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._tasks: dict[str, _Task] = {}
        self._conns: dict[str, _Connection] = {}
        self._batches: dict[int, _Batch] = {}
        self._next_batch = 0
        self._name_seq = 0
        self._stopped = False
        #: Aggregate counters surfaced by :meth:`status`.
        self._totals = {
            "dispatched": 0, "completed": 0, "failed": 0, "requeued": 0,
            "retried": 0, "exhausted": 0, "duplicate_results": 0,
            "unavailable": 0, "local_fallback": 0,
        }
        self._server = socket.create_server((host, port), reuse_port=False)
        self._server.settimeout(0.2)
        self._threads: list[threading.Thread] = []
        self._reader_threads: dict[str, threading.Thread] = {}

    # -- lifecycle --------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.getsockname()[0]

    @property
    def port(self) -> int:
        return self._server.getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "FleetCoordinator":
        acceptor = threading.Thread(
            target=self._accept_loop, name="nautilus-fleet-accept", daemon=True
        )
        dispatcher = threading.Thread(
            target=self._dispatch_loop, name="nautilus-fleet-dispatch", daemon=True
        )
        self._threads = [acceptor, dispatcher]
        acceptor.start()
        dispatcher.start()
        return self

    def stop(self) -> None:
        """Stop serving: fail live tasks, close every socket, join threads."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            for task in self._tasks.values():
                if task.state != _Task.DONE:
                    task.state = _Task.DONE
                    task.outcome = {
                        "error": "fleet coordinator stopped",
                        "error_type": "CoordinatorStopped",
                    }
            conns = list(self._conns.values())
            self._conns.clear()
            self._batches.clear()
            self._cond.notify_all()
        for conn in conns:
            try:
                conn.send({"type": "shutdown"})
            except OSError:
                pass
            conn.close()
        self._server.close()
        for thread in self._threads:
            thread.join(5.0)
        for thread in list(self._reader_threads.values()):
            thread.join(5.0)
        self._threads = []
        self._reader_threads = {}

    # -- the evaluation-side primitive -------------------------------------------

    def has_worker_for(self, space: str) -> bool:
        """Whether any live worker can serve a space (fast, lock-light)."""
        return self.workers.has_worker_for(space)

    def submit_batch(
        self,
        tasks: Sequence[dict[str, Any]],
        trace: dict[str, Any] | None = None,
    ) -> dict[str, dict[str, Any]]:
        """Dispatch tasks to the fleet; block until each has an outcome.

        ``tasks`` are :func:`~repro.distributed.protocol.task_payload`
        dicts. Returns ``{task_id: outcome-payload}`` where each payload is
        an :func:`~repro.distributed.protocol.encode_outcome` fragment plus
        ``"worker"`` attribution — or ``{"error_type": "FleetUnavailable"}``
        for tasks no live worker could serve (the caller evaluates those
        locally). Termination is bounded by the retry policy: every task
        either completes, exhausts its attempts, or goes unavailable.

        ``trace`` is an optional span context (``{"trace": ..., "parent":
        ...}``) from a tracing caller. It turns on the per-task event log
        (dispatches, retries, completion, dropped duplicates) and rides
        the batch frames to the workers; each returned outcome then carries
        a ``"trace"`` payload whose event times are *offsets in seconds
        relative to this submission* — the caller anchors them inside its
        own eval-batch span, so coordinator and campaign clocks never need
        a shared epoch.
        """
        if not tasks:
            return {}
        ids: list[str] = []
        submitted_at = self._clock()
        with self._cond:
            if self._stopped:
                return {
                    payload["id"]: {
                        "error": "fleet coordinator stopped",
                        "error_type": "CoordinatorStopped",
                    }
                    for payload in tasks
                }
            for payload in tasks:
                task = self._tasks.get(payload["id"])
                if task is None:
                    task = _Task(payload)
                    self._tasks[task.id] = task
                if trace is not None:
                    if task.events is None:
                        task.events = []
                    task.trace_ctx = dict(trace)
                task.refs += 1
                ids.append(task.id)
            self._cond.notify_all()
            self._cond.wait_for(
                lambda: all(self._tasks[i].state == _Task.DONE for i in ids)
            )
            outcomes: dict[str, dict[str, Any]] = {}
            for task_id in ids:
                task = self._tasks[task_id]
                outcomes[task_id] = dict(task.outcome or {})
                if trace is not None and task.events is not None:
                    outcomes[task_id]["trace"] = self._trace_payload(
                        task, submitted_at
                    )
                task.refs -= 1
                if task.refs <= 0:
                    del self._tasks[task_id]
            return outcomes

    @staticmethod
    def _trace_payload(task: _Task, submitted_at: float) -> dict[str, Any]:
        """One task's event log as submission-relative offsets (lock held)."""
        events = []
        for event in sorted(task.events or (), key=lambda e: e["at"]):
            entry = {k: v for k, v in event.items() if k != "at"}
            entry["offset_s"] = max(event["at"] - submitted_at, 0.0)
            events.append(entry)
        outcome = task.outcome or {}
        return {
            "task": task.id,
            "worker": outcome.get("worker", ""),
            "attempts": task.attempts,
            "duplicates": sum(
                1 for e in events if e["event"] == "duplicate-result"
            ),
            "events": events,
        }

    def note_local_fallback(self, count: int) -> None:
        """Record evaluations a backend served locally (fleet empty)."""
        with self._lock:
            self._totals["local_fallback"] += count
        if self._metrics is not None:
            self._metrics.fallback.inc(count)

    # -- status -----------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """JSON-ready fleet snapshot for ``GET /fleet`` / ``nautilus fleet``."""
        with self._lock:
            pending = sum(
                1 for t in self._tasks.values() if t.state == _Task.PENDING
            )
            in_flight = sum(
                1 for t in self._tasks.values() if t.state == _Task.INFLIGHT
            )
            totals = dict(self._totals)
        snapshot = self.workers.snapshot()
        if self._metrics is not None:
            self._metrics.workers.set(snapshot["live_workers"])
            self._metrics.queue_depth.set(pending)
            now = self._clock()
            for info in self.workers.workers():
                self._metrics.heartbeat_age.set(
                    info.heartbeat_age(now), worker=info.name
                )
        return {
            "enabled": True,
            "address": self.address,
            "queue_depth": pending,
            "in_flight": in_flight,
            "totals": totals,
            "policy": {
                "max_attempts": self.policy.max_attempts,
                "task_timeout_s": self.policy.task_timeout_s,
                "heartbeat_timeout_s": self.policy.heartbeat_timeout_s,
            },
            **snapshot,
        }

    # -- acceptor + per-worker readers -------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped:
            try:
                sock, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="nautilus-fleet-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        rfile = sock.makefile("rb")
        name = None
        try:
            hello = read_message(rfile)
            if (
                hello is None
                or hello.get("type") != "register"
                or hello.get("version") != PROTOCOL_VERSION
            ):
                sock.close()
                return
            name = self._register(hello, sock)
            if name is None:
                sock.close()
                return
            self._reader_threads[name] = threading.current_thread()
            while True:
                message = read_message(rfile)
                if message is None:
                    break
                kind = message.get("type")
                if kind == "heartbeat":
                    self.workers.touch(name)
                elif kind == "result":
                    self._apply_results(name, message)
        except (OSError, ProtocolError):
            pass
        finally:
            rfile.close()
            if name is not None:
                self._drop_worker(name, "disconnected")
                self._reader_threads.pop(name, None)
            else:
                sock.close()

    def _register(self, hello: dict[str, Any], sock: socket.socket) -> str | None:
        base = str(hello.get("worker") or "worker")
        with self._cond:
            if self._stopped:
                return None
            name = base
            while name in self._conns:
                self._name_seq += 1
                name = f"{base}-{self._name_seq}"
            conn = _Connection(name, sock)
            self._conns[name] = conn
        self.workers.add(
            name,
            spaces=tuple(hello.get("spaces") or ("*",)),
            slots=int(hello.get("slots") or 1),
        )
        try:
            conn.send(
                {
                    "type": "welcome",
                    "version": PROTOCOL_VERSION,
                    "worker": name,
                    "heartbeat_interval_s": self.policy.heartbeat_interval_s,
                }
            )
        except OSError:
            self._drop_worker(name, "handshake-failed")
            return None
        _LOG.info(
            "fleet worker joined",
            extra={"worker": name, "spaces": hello.get("spaces")},
        )
        with self._cond:
            self._cond.notify_all()  # wake the dispatcher: capacity changed
        return name

    # -- result handling ---------------------------------------------------------

    def _apply_results(self, worker: str, message: dict[str, Any]) -> None:
        batch_id = message.get("batch")
        results = message.get("results") or []
        completed = failed = infeasible = duplicates = 0
        with self._cond:
            now = self._clock()
            batch = self._batches.pop(batch_id, None)
            elapsed = (
                max(now - batch.sent_at, 1e-9) if batch is not None else 0.0
            )
            for payload in results:
                task = self._tasks.get(payload.get("id"))
                if task is None or task.state == _Task.DONE:
                    duplicates += 1
                    if task is not None:
                        # Attributed to the one owning task span — a late
                        # answer from a presumed-dead worker, not a new task.
                        task.note("duplicate-result", worker, now)
                    continue
                # First result wins, even if the task was requeued in the
                # meantime (a presumed-dead worker answering late): the
                # evaluation was paid for once — deliver it, and let the
                # re-dispatch land here as a dropped duplicate instead.
                task.state = _Task.DONE
                task.outcome = dict(payload, worker=worker)
                task.worker = None
                task.note(
                    "done",
                    worker,
                    now,
                    exec_s=float(payload.get("exec_s") or 0.0),
                    queue_s=float(payload.get("queue_s") or 0.0),
                )
                completed += 1
                if payload.get("error") is not None:
                    failed += 1
                elif payload.get("metrics") is None:
                    infeasible += 1
            self._totals["completed"] += completed
            self._totals["failed"] += failed
            self._totals["duplicate_results"] += duplicates
            self._cond.notify_all()
        self.workers.record_completed(
            worker, completed, elapsed, failed=failed, infeasible=infeasible
        )
        if self._metrics is not None:
            if completed:
                self._metrics.completed.inc(completed, worker=worker)
            if failed:
                self._metrics.failed.inc(failed, worker=worker)
            if duplicates:
                self._metrics.duplicates.inc(duplicates)
            if batch is not None:
                self._metrics.task_seconds.observe(elapsed, worker=worker)

    # -- worker failure ----------------------------------------------------------

    def _drop_worker(self, name: str, reason: str) -> None:
        with self._cond:
            conn = self._conns.pop(name, None)
            if conn is None:
                return  # lost the race against another dropper: already gone
            # Remove from the registry before closing the socket: closing
            # wakes the connection's reader thread, whose own drop attempt
            # must find nothing left to do (else it would overwrite the
            # real departure reason with "disconnected").
            self.workers.remove(name, reason=reason)
            requeued = self._requeue_worker_tasks(name, retried=False)
            self._cond.notify_all()
        conn.close()
        _LOG.warning(
            "fleet worker left",
            extra={"worker": name, "reason": reason, "requeued": requeued},
        )
        if self._metrics is not None:
            if requeued:
                self._metrics.requeued.inc(requeued, worker=name)
            # Departed workers must not leak label sets into /metrics.
            self._metrics.remove_worker(name)
        self.workers.record_requeued(name, requeued, retried=False)

    def _requeue_worker_tasks(self, name: str, retried: bool) -> int:
        """Requeue (or exhaust) a worker's in-flight tasks. Lock held."""
        now = self._clock()
        count = 0
        for task in self._tasks.values():
            if task.state != _Task.INFLIGHT or task.worker != name:
                continue
            count += 1
            task.worker = None
            task.note("retry", name, now, reason="worker-died")
            if self.policy.exhausted(task.attempts):
                task.state = _Task.DONE
                task.outcome = {
                    "error": (
                        f"task {task.id[:12]} (space {task.space!r}) failed "
                        f"after {task.attempts} attempts: retry budget "
                        "exhausted (workers died or timed out)"
                    ),
                    "error_type": "RetryExhausted",
                }
                self._totals["exhausted"] += 1
                if self._metrics is not None:
                    self._metrics.exhausted.inc()
            else:
                task.state = _Task.PENDING
                task.eligible_at = now + self.policy.backoff_s(
                    task.attempts, key=task.id
                )
        key = "retried" if retried else "requeued"
        self._totals[key] += count
        # Forget batch records that pointed at this worker; late results
        # are still accepted per task via the first-result-wins rule.
        if not retried:
            stale = [
                bid for bid, b in self._batches.items() if b.worker == name
            ]
            for bid in stale:
                del self._batches[bid]
        return count

    # -- the dispatcher -----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                if self._stopped:
                    return
                self._cond.wait(_POLL_S)
                if self._stopped:
                    return
            self._sweep_heartbeats()
            self._sweep_timeouts()
            self._dispatch_pending()

    def _sweep_heartbeats(self) -> None:
        for info in self.workers.expired(self.policy.heartbeat_timeout_s):
            self._drop_worker(info.name, "heartbeat-expired")

    def _sweep_timeouts(self) -> None:
        now = self._clock()
        timed_out: dict[str, int] = {}
        with self._cond:
            by_worker: dict[str, list[_Task]] = {}
            for task in self._tasks.values():
                if task.state == _Task.INFLIGHT and now > task.deadline:
                    by_worker.setdefault(task.worker, []).append(task)
            # The worker stays registered — it may simply be slow; only its
            # overdue tasks move on (and a late answer still wins the race).
            for name, tasks in by_worker.items():
                timed_out[name] = self._requeue_tasks(tasks, name)
            if timed_out:
                self._cond.notify_all()
        for name, count in timed_out.items():
            self.workers.record_requeued(name, count, retried=True)
            if self._metrics is not None and count:
                self._metrics.retried.inc(count, worker=name)

    def _requeue_tasks(self, tasks: list[_Task], name: str) -> int:
        """Timeout-requeue of specific tasks (lock held)."""
        now = self._clock()
        count = 0
        for task in tasks:
            if task.state != _Task.INFLIGHT or task.worker != name:
                continue
            count += 1
            task.worker = None
            task.note("retry", name, now, reason="timeout")
            if self.policy.exhausted(task.attempts):
                task.state = _Task.DONE
                task.outcome = {
                    "error": (
                        f"task {task.id[:12]} (space {task.space!r}) timed "
                        f"out after {task.attempts} attempts "
                        f"({self.policy.task_timeout_s}s per attempt)"
                    ),
                    "error_type": "RetryExhausted",
                }
                self._totals["exhausted"] += 1
                if self._metrics is not None:
                    self._metrics.exhausted.inc()
            else:
                task.state = _Task.PENDING
                task.eligible_at = now + self.policy.backoff_s(
                    task.attempts, key=task.id
                )
        self._totals["retried"] += count
        return count

    def _dispatch_pending(self) -> None:
        """Assign eligible pending tasks to live workers, shard-by-rate."""
        from .registry import plan_shards

        now = self._clock()
        sends: list[tuple[_Connection, dict[str, Any]]] = []
        marked_unavailable = False
        with self._cond:
            by_space: dict[str, list[_Task]] = {}
            for task in self._tasks.values():
                if task.state == _Task.PENDING and now >= task.eligible_at:
                    by_space.setdefault(task.space, []).append(task)
            if not by_space:
                return
            for space, tasks in by_space.items():
                serving = [
                    info
                    for info in self.workers.serving(space)
                    if info.name in self._conns
                ]
                if not serving:
                    # Graceful degradation: nobody can run these — hand
                    # them back for the caller's local backend.
                    for task in tasks:
                        task.state = _Task.DONE
                        task.outcome = {"error_type": "FleetUnavailable"}
                    self._totals["unavailable"] += len(tasks)
                    marked_unavailable = True
                    continue
                plan = plan_shards(len(tasks), serving)
                cursor = 0
                for info in serving:
                    share = plan.get(info.name, 0)
                    if share <= 0:
                        continue
                    shard = tasks[cursor : cursor + share]
                    cursor += share
                    if not shard:
                        continue
                    self._next_batch += 1
                    batch_id = self._next_batch
                    trace_ctx = None
                    for task in shard:
                        task.state = _Task.INFLIGHT
                        task.worker = info.name
                        task.attempts += 1
                        task.deadline = now + self.policy.task_timeout_s
                        task.note("dispatch", info.name, now)
                        if trace_ctx is None and task.trace_ctx is not None:
                            trace_ctx = task.trace_ctx
                    self._batches[batch_id] = _Batch(
                        info.name, {t.id for t in shard}, now
                    )
                    self._totals["dispatched"] += len(shard)
                    frame = {
                        "type": "batch",
                        "batch": batch_id,
                        "tasks": [t.wire_payload() for t in shard],
                    }
                    # Span context rides to the worker, which echoes it.
                    if trace_ctx is not None:
                        frame["trace"] = trace_ctx
                    sends.append((self._conns[info.name], frame))
            if sends or marked_unavailable:
                self._cond.notify_all()
        for conn, frame in sends:
            self.workers.record_dispatch(conn.name, len(frame["tasks"]))
            if self._metrics is not None:
                self._metrics.dispatched.inc(
                    len(frame["tasks"]), worker=conn.name
                )
            try:
                conn.send(frame)
            except OSError:
                self._drop_worker(conn.name, "send-failed")
