"""The ``nautilus worker`` daemon: one evaluation node of the fleet.

A worker dials the coordinator (``nautilus worker --connect host:port``),
announces which design spaces it can serve and how many evaluation slots
it has, then loops: receive a batch frame, evaluate every task, send one
result frame back. Liveness is a heartbeat thread; if the worker dies
mid-batch the coordinator requeues the whole batch, and if this process
outlives a presumed death its late results are still honored (or dropped
as duplicates) coordinator-side — the worker never needs to know.

Worker-side failures are *outcomes*, not protocol errors: an unservable
space, a fingerprint mismatch, or an evaluator exception all travel back
as structured error fragments so the coordinator can deliver them to the
campaign (deterministic failures are completed evaluations — retrying
them would just pay twice).
"""

from __future__ import annotations

import logging
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from ..core.evalstack import evaluator_fingerprint
from ..core.genome import Genome
from ..obs.clock import DEFAULT_CLOCK
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_outcome,
    connect_stream,
    read_message,
    send_message,
    values_from_wire,
)

__all__ = ["FleetWorker", "dataset_provider"]

_LOG = logging.getLogger("nautilus.fleet.worker")

#: Dataset aliases served when ``spaces`` is not given.
DEFAULT_SPACES = ("noc", "fft", "fir")


def dataset_provider(alias: str):
    """Default evaluator provider: bundled dataset alias -> (space, evaluator).

    Accepts the query-level aliases (``noc``/``fft``/``fir``) used across
    the CLI; the returned space carries the real space name the worker
    registers as its capability tag.
    """
    from ..core.evaluator import DatasetEvaluator
    from ..queries import load_dataset

    dataset = load_dataset(alias)
    return dataset.space, DatasetEvaluator(dataset)


class _Served:
    """One space this worker can evaluate."""

    __slots__ = ("space", "evaluator", "fingerprint")

    def __init__(self, space, evaluator):
        self.space = space
        self.evaluator = evaluator
        self.fingerprint = evaluator_fingerprint(evaluator)


class FleetWorker:
    """One worker process serving evaluation batches for a coordinator.

    Args:
        host/port: Coordinator address.
        spaces: Aliases understood by ``evaluator_provider`` (defaults to
            every bundled dataset). Capability tags registered with the
            coordinator are the *resolved* space names.
        name: Worker name; defaults to ``<hostname>-<pid>``. The
            coordinator may uniquify it — the welcome frame is
            authoritative.
        slots: Concurrent evaluations per batch (thread pool size).
        evaluator_provider: ``alias -> (DesignSpace, Evaluator)`` hook;
            defaults to the bundled datasets.
        connect_timeout: Dial timeout, seconds.
    """

    def __init__(
        self,
        host: str,
        port: int,
        spaces: Sequence[str] | None = None,
        name: str | None = None,
        slots: int = 1,
        evaluator_provider: Callable[[str], tuple] | None = None,
        connect_timeout: float = 10.0,
    ):
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.slots = max(1, int(slots))
        provider = evaluator_provider or dataset_provider
        self._serving: dict[str, _Served] = {}
        for alias in spaces if spaces is not None else DEFAULT_SPACES:
            space, evaluator = provider(alias)
            self._serving[space.name] = _Served(space, evaluator)
        if not self._serving:
            raise ValueError("worker must serve at least one space")
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self.batches_served = 0
        self.tasks_served = 0

    # -- lifecycle --------------------------------------------------------------

    def stop(self) -> None:
        """Tear the connection down; :meth:`run` returns shortly after."""
        self._stop.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def run(self) -> None:
        """Connect, register, and serve batches until shutdown/disconnect."""
        sock, rfile = connect_stream(
            self._host, self._port, timeout=self._connect_timeout
        )
        sock.settimeout(None)
        self._sock = sock
        executor = (
            ThreadPoolExecutor(
                max_workers=self.slots, thread_name_prefix="nautilus-worker"
            )
            if self.slots > 1
            else None
        )
        heartbeat: threading.Thread | None = None
        try:
            self._send(
                {
                    "type": "register",
                    "version": PROTOCOL_VERSION,
                    "worker": self.name,
                    "spaces": sorted(self._serving),
                    "slots": self.slots,
                }
            )
            welcome = read_message(rfile)
            if welcome is None or welcome.get("type") != "welcome":
                raise ProtocolError("coordinator did not send a welcome frame")
            if welcome.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: coordinator speaks "
                    f"{welcome.get('version')}, worker speaks "
                    f"{PROTOCOL_VERSION}"
                )
            self.name = welcome.get("worker") or self.name
            interval = float(welcome.get("heartbeat_interval_s") or 1.0)
            heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                args=(interval,),
                name="nautilus-worker-heartbeat",
                daemon=True,
            )
            heartbeat.start()
            _LOG.info(
                "worker registered",
                extra={"worker": self.name, "spaces": sorted(self._serving)},
            )
            while not self._stop.is_set():
                try:
                    message = read_message(rfile)
                except OSError:
                    break
                if message is None:
                    break
                kind = message.get("type")
                if kind == "batch":
                    self._serve_batch(message, executor)
                elif kind == "shutdown":
                    break
        finally:
            self._stop.set()
            rfile.close()
            try:
                sock.close()
            finally:
                self._sock = None
            if heartbeat is not None:
                heartbeat.join(2.0)
            if executor is not None:
                executor.shutdown(wait=True)

    # -- internals --------------------------------------------------------------

    def _send(self, payload: dict[str, Any]) -> None:
        sock = self._sock
        if sock is None:
            raise OSError("worker not connected")
        with self._send_lock:
            send_message(sock, payload)

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self._send({"type": "heartbeat", "worker": self.name})
            except OSError:
                return

    def _serve_batch(self, message: dict[str, Any], executor) -> None:
        tasks = message.get("tasks") or []
        # Batch receipt time anchors each task's queue wait (time between
        # the batch landing and that task's execution starting).
        received_at = DEFAULT_CLOCK()
        if executor is not None:
            results = list(
                executor.map(lambda t: self._run_task(t, received_at), tasks)
            )
        else:
            results = [self._run_task(task, received_at) for task in tasks]
        self.batches_served += 1
        self.tasks_served += len(results)
        frame = {
            "type": "result",
            "batch": message.get("batch"),
            "worker": self.name,
            "results": results,
        }
        # Echo the coordinator's span context so its task spans stitch.
        if message.get("trace") is not None:
            frame["trace"] = message["trace"]
        try:
            self._send(frame)
        except OSError:
            # Connection died with results in hand; the coordinator will
            # requeue the batch — never report half a batch.
            self._stop.set()

    def _run_task(
        self, task: dict[str, Any], received_at: float | None = None
    ) -> dict[str, Any]:
        started = DEFAULT_CLOCK()
        timing = {
            "queue_s": max(started - received_at, 0.0)
            if received_at is not None
            else 0.0,
        }
        served = self._serving.get(task.get("space"))
        if served is None:
            return {
                "id": task.get("id"),
                "error": (
                    f"worker {self.name!r} does not serve space "
                    f"{task.get('space')!r} (serves {sorted(self._serving)})"
                ),
                "error_type": "CapabilityError",
                "exec_s": DEFAULT_CLOCK() - started,
                **timing,
            }
        if served.fingerprint != task.get("fingerprint"):
            return {
                "id": task.get("id"),
                "error": (
                    f"evaluator fingerprint mismatch for space "
                    f"{task.get('space')!r}: coordinator expects "
                    f"{task.get('fingerprint')!r}, worker has "
                    f"{served.fingerprint!r} — dataset versions disagree"
                ),
                "error_type": "FingerprintMismatch",
                "exec_s": DEFAULT_CLOCK() - started,
                **timing,
            }
        try:
            values = values_from_wire(task.get("values") or [])
            genome = Genome(
                served.space, dict(zip(served.space.param_names, values))
            )
            outcome = served.evaluator.evaluate(genome)
        except Exception as exc:  # noqa: BLE001 — every failure is an outcome
            return dict(
                encode_outcome(exc),
                id=task.get("id"),
                exec_s=DEFAULT_CLOCK() - started,
                **timing,
            )
        return dict(
            encode_outcome(outcome),
            id=task.get("id"),
            exec_s=DEFAULT_CLOCK() - started,
            **timing,
        )
