"""Wire protocol of the evaluation fleet (stdlib TCP + JSON lines).

The paper's evaluation burned weeks of cluster time on synthesis jobs; the
fleet exists to spread that cost over many machines without pulling in any
networking dependency. Everything on the wire is a single JSON object per
line ("JSON lines") over a plain TCP socket, so a worker can be driven by
``telnet`` for debugging and every frame is greppable in a packet capture.

Frames (``type`` discriminates; unknown keys are ignored for forward
compatibility)::

    worker -> coordinator
      {"type": "register", "version": 2, "worker": "w1",
       "spaces": ["noc"], "slots": 2}
      {"type": "heartbeat", "worker": "w1"}
      {"type": "result", "batch": 7,
       "results": [{"id": "...", "metrics": {...}},
                   {"id": "...", "metrics": null, "detail": "infeasible"},
                   {"id": "...", "error": "...", "error_type": "DatasetError"}]}

    coordinator -> worker
      {"type": "welcome", "version": 2, "heartbeat_interval_s": 1.0}
      {"type": "batch", "batch": 7,
       "tasks": [{"id": "...", "space": "noc_router",
                  "fingerprint": "dataset:...", "values": [2, 4, ...]}]}
      {"type": "shutdown"}

Workers and the coordinator ship in one package, so both sides require
:data:`PROTOCOL_VERSION` at registration. A ``batch`` frame may carry a
span context (``"trace": {"trace": "...", "parent": "..."}``) which the
worker echoes back in the ``result`` frame, and each result fragment may
add worker-side timing (``"queue_s"``: seconds the task sat between batch
receipt and execution start; ``"exec_s"``: execution wall seconds). A
coordinator tolerates a fragment without timing or trace (spans degrade
gracefully).

Task identity is **content-addressed**: :func:`task_id` hashes the space
name, the evaluator fingerprint, and the genome's canonical value vector —
the same identity scheme as :class:`repro.core.PersistentCache` rows. Two
campaigns asking for the same design under the same evaluator produce the
same task id, which is what lets the coordinator deduplicate concurrent
requests and guarantee a re-dispatched task is never paid for twice.

Outcome encoding mirrors the persistent cache: ``"metrics": null`` is an
infeasible design (a *completed* evaluation — replaying it must fail the
same way, and it is never retried), while ``"error"`` carries a
non-infeasibility evaluation failure verbatim.
"""

from __future__ import annotations

import hashlib
import json
import socket
from typing import Any, IO, Sequence

from ..core.errors import InfeasibleDesignError
from ..core.genome import Genome

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteEvaluationError",
    "task_id",
    "task_payload",
    "values_from_wire",
    "encode_outcome",
    "decode_outcome",
    "send_message",
    "read_message",
    "connect_stream",
]

PROTOCOL_VERSION = 2

#: Cap on one frame, bytes. A batch of a few hundred tasks is ~100 KB; a
#: frame beyond this is a protocol violation, not a big batch.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed or oversized frame, or a version mismatch."""


class RemoteEvaluationError(Exception):
    """An evaluation failed on a remote worker (non-infeasibility).

    Deliberately *not* a :class:`~repro.core.NautilusError` subclass of the
    infeasible kind: engines score infeasible designs as ``-inf`` but
    propagate other evaluation errors, failing the campaign with a
    structured error message — exactly what a deterministic worker-side
    failure (bad dataset, fingerprint mismatch) should do.
    """


# ---------------------------------------------------------------------------
# task identity
# ---------------------------------------------------------------------------


def _canonical_values(values: Sequence[Any]) -> list:
    """Genome values as they travel in JSON (tuples become lists)."""
    return [list(v) if isinstance(v, tuple) else v for v in values]


def task_id(space_name: str, fingerprint: str, values: Sequence[Any]) -> str:
    """Content-addressed identity of one evaluation task.

    Same design + same evaluator content => same id, across processes and
    coordinators. The hash input is canonical JSON so tuple/list framing
    differences never split an identity.
    """
    body = json.dumps(
        [space_name, fingerprint, _canonical_values(values)],
        separators=(",", ":"),
    )
    return hashlib.sha1(body.encode("utf-8")).hexdigest()


def task_payload(genome: Genome, fingerprint: str) -> dict[str, Any]:
    """The wire representation of one evaluation task."""
    values = genome.key[1]
    return {
        "id": task_id(genome.space.name, fingerprint, values),
        "space": genome.space.name,
        "fingerprint": fingerprint,
        "values": _canonical_values(values),
    }


def values_from_wire(values: Sequence[Any]) -> list:
    """Undo the JSON round-trip: nested lists back to tuples."""
    return [tuple(v) if isinstance(v, list) else v for v in values]


# ---------------------------------------------------------------------------
# outcome encoding
# ---------------------------------------------------------------------------


def encode_outcome(outcome: Any) -> dict[str, Any]:
    """One evaluation outcome as a JSON fragment (see module docstring)."""
    if isinstance(outcome, InfeasibleDesignError):
        return {"metrics": None, "detail": str(outcome)}
    if isinstance(outcome, Exception):
        return {"error": str(outcome), "error_type": type(outcome).__name__}
    return {"metrics": dict(outcome)}


def decode_outcome(payload: dict[str, Any]) -> Any:
    """The local outcome for a wire fragment: metrics dict or exception."""
    if payload.get("error") is not None:
        return RemoteEvaluationError(
            f"{payload.get('error_type', 'Error')}: {payload['error']}"
            + (
                f" (worker {payload['worker']})"
                if payload.get("worker")
                else ""
            )
        )
    metrics = payload.get("metrics")
    if metrics is None:
        return InfeasibleDesignError(
            payload.get("detail") or "design reported infeasible by the fleet"
        )
    return dict(metrics)


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def send_message(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Write one JSON-lines frame; callers serialize sends per socket."""
    sock.sendall(json.dumps(payload, separators=(",", ":")).encode() + b"\n")


def read_message(rfile: IO[bytes]) -> dict[str, Any] | None:
    """Read one frame from a socket's buffered reader; ``None`` at EOF.

    Raises :class:`ProtocolError` on oversized or non-object frames — a
    peer speaking the wrong protocol, not a transient condition.
    """
    line = rfile.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError("frames must be JSON objects with a 'type' key")
    return payload


def connect_stream(
    host: str, port: int, timeout: float | None = None
) -> tuple[socket.socket, IO[bytes]]:
    """Dial a coordinator/worker endpoint; returns ``(socket, reader)``.

    ``TCP_NODELAY`` is set because frames are small and latency-sensitive
    (a heartbeat or a ten-task batch, not a bulk transfer).
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rb")
