"""REST API over the campaign scheduler (stdlib ``http.server`` only).

Routes::

    POST   /campaigns            submit a CampaignSpec (JSON body) -> 201 {id}
    GET    /campaigns            list campaign summaries
    GET    /campaigns/<id>       status: state, progress, best-so-far
    GET    /campaigns/<id>/curve per-generation search curve
    GET    /campaigns/<id>/trace structured RunEvent log (?limit=N for tail)
    GET    /campaigns/<id>/spans persisted span tree (tracing campaigns)
    GET    /campaigns/<id>/hints aggregated hint-attribution report
    DELETE /campaigns/<id>       request cancellation
    GET    /metrics              live service counters (JSON); add
                                 ?format=prometheus for text exposition
    GET    /fleet                evaluation-fleet status: workers, queue
                                 depth, dispatch/retry/requeue counters
    GET    /archive/stats        cross-campaign archive: row/feasibility/
                                 campaign counts ({"enabled": false} off)
    GET    /archive/query        top archived designs (?query=<name>&k=N)
    GET    /healthz              liveness probe

Malformed query parameters (a non-integer or negative ``limit``, an
unknown ``format``) are client errors and answer 400 with a JSON body;
404 is reserved for unknown routes and campaigns. A spec with invalid
inline ``hints`` answers 400 with a ``fields`` list attributing every
error to its offending field (``params.<name>.bias``, say).

The server is a ``ThreadingHTTPServer``: request handling is concurrent,
but every mutation funnels through the scheduler's lock, and engines are
only ever stepped by the scheduler thread — handlers read snapshots.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs

from ..core import HintSpecError, NautilusError
from .campaign import CampaignSpec
from .scheduler import Scheduler

__all__ = ["ServiceHTTPServer", "make_server"]


class _BadRequest(Exception):
    """Malformed client input in a query string — rendered as HTTP 400."""


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the scheduler for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, scheduler: Scheduler, quiet: bool = True):
        self.scheduler = scheduler
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise NautilusError("request body must be a JSON object")
        return payload

    def _route(self) -> tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    def _query_raw(self, name: str) -> str | None:
        parts = self.path.split("?", 1)
        if len(parts) < 2:
            return None
        values = parse_qs(parts[1]).get(name)
        return values[-1] if values else None

    def _query_int(self, name: str, minimum: int | None = None) -> int | None:
        raw = self._query_raw(name)
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise _BadRequest(
                f"query parameter {name!r} must be an integer, got {raw!r}"
            ) from None
        if minimum is not None and value < minimum:
            raise _BadRequest(f"query parameter {name!r} must be >= {minimum}")
        return value

    def _send_text(self, body: str, content_type: str) -> None:
        data = body.encode()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    # -- verbs ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        scheduler = self.server.scheduler
        parts = self._route()
        try:
            if parts == ("healthz",):
                self._send_json({"status": "ok"})
            elif parts == ("metrics",):
                fmt = self._query_raw("format")
                if fmt is None or fmt == "json":
                    self._send_json(
                        scheduler.metrics.snapshot(
                            c.status_payload() for c in scheduler.list_campaigns()
                        )
                    )
                elif fmt == "prometheus":
                    self._send_text(
                        scheduler.metrics.registry.render(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    raise _BadRequest(
                        f"unknown metrics format {fmt!r}; "
                        "use 'json' or 'prometheus'"
                    )
            elif parts == ("fleet",):
                self._send_json(scheduler.fleet_status())
            elif parts == ("archive", "stats"):
                self._send_json(scheduler.archive_stats())
            elif parts == ("archive", "query"):
                name = self._query_raw("query")
                if not name:
                    raise _BadRequest("query parameter 'query' is required")
                k = self._query_int("k", minimum=1)
                self._send_json(
                    scheduler.archive_query(name, k=10 if k is None else k)
                )
            elif parts == ("campaigns",):
                self._send_json(
                    [c.status_payload() for c in scheduler.list_campaigns()]
                )
            elif len(parts) == 2 and parts[0] == "campaigns":
                self._send_json(scheduler.get(parts[1]).status_payload())
            elif len(parts) == 3 and parts[:1] == ("campaigns",) and parts[2] == "curve":
                self._send_json(scheduler.get(parts[1]).curve_payload())
            elif len(parts) == 3 and parts[:1] == ("campaigns",) and parts[2] == "trace":
                self._send_json(
                    scheduler.trace(
                        parts[1], limit=self._query_int("limit", minimum=0)
                    )
                )
            elif len(parts) == 3 and parts[:1] == ("campaigns",) and parts[2] == "spans":
                self._send_json(scheduler.spans(parts[1]))
            elif len(parts) == 3 and parts[:1] == ("campaigns",) and parts[2] == "hints":
                self._send_json(scheduler.hint_report(parts[1]))
            else:
                self._send_error_json(404, f"no route {self.path!r}")
        except _BadRequest as exc:
            self._send_error_json(400, str(exc))
        except NautilusError as exc:
            self._send_error_json(404, str(exc))

    def do_POST(self) -> None:  # noqa: N802
        scheduler = self.server.scheduler
        if self._route() != ("campaigns",):
            self._send_error_json(404, f"no route {self.path!r}")
            return
        try:
            spec = CampaignSpec.from_json(self._read_body())
            campaign = scheduler.submit(spec)
        except HintSpecError as exc:
            # Inline hints failed validation (structural or against the
            # query's space): surface every offending field so the client
            # can fix them all in one round trip.
            self._send_json(
                {"error": f"bad campaign spec: {exc}", "fields": exc.errors},
                status=400,
            )
            return
        except (NautilusError, TypeError, ValueError) as exc:
            self._send_error_json(400, f"bad campaign spec: {exc}")
            return
        self._send_json({"id": campaign.id, "state": campaign.state}, status=201)

    def do_DELETE(self) -> None:  # noqa: N802
        scheduler = self.server.scheduler
        parts = self._route()
        if len(parts) != 2 or parts[0] != "campaigns":
            self._send_error_json(404, f"no route {self.path!r}")
            return
        try:
            campaign = scheduler.cancel(parts[1])
        except NautilusError as exc:
            self._send_error_json(404, str(exc))
            return
        self._send_json({"id": campaign.id, "state": campaign.state})


def make_server(
    scheduler: Scheduler, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> ServiceHTTPServer:
    """Bind the REST API; ``port=0`` picks an ephemeral port."""
    return ServiceHTTPServer((host, port), scheduler, quiet=quiet)
