"""The search-campaign daemon: store + scheduler + REST API, one object.

:class:`SearchService` wires the pieces together and owns their lifecycle::

    service = SearchService("campaigns/", port=8765, workers=4)
    service.start()          # recovers in-flight campaigns, serves HTTP
    ...
    service.stop()           # graceful: finish the generation, persist

``port=0`` binds an ephemeral port (``service.port`` reports the real one),
which is how the tests run a full daemon in-process. ``serve_forever``
blocks for CLI use (``nautilus serve``).
"""

from __future__ import annotations

import threading
from pathlib import Path

from ..core.errors import NautilusError
from ..core.evalstack import PersistentCache
from .http import ServiceHTTPServer, make_server
from .metrics import ServiceMetrics
from .scheduler import Scheduler
from .store import CampaignStore

__all__ = ["SearchService"]


class SearchService:
    """One daemon: campaign store, scheduler thread, and HTTP server."""

    def __init__(
        self,
        root: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        dataset_provider=None,
        quiet: bool = True,
        eval_cache: bool | str | Path = False,
        trace_max_events: int | None = None,
        log_json: bool = False,
        fleet: bool = False,
        fleet_host: str = "127.0.0.1",
        fleet_port: int = 0,
        fleet_policy=None,
        archive: bool | str | Path = False,
    ):
        """``eval_cache`` enables the shared persistent evaluation cache:
        ``True`` stores it under ``<root>/evalcache``, a path stores it
        there. Off by default — with it on, campaigns over the same space
        share results, so their distinct-evaluation counts depend on what
        ran before (see ``docs/evaluation.md``).

        ``archive`` enables the cross-campaign design archive
        (:class:`~repro.archive.DesignArchive`): ``True`` stores it under
        ``<root>/archive``, a path stores it there. With it on, every
        evaluation any campaign pays for is recorded, ``GET
        /archive/stats`` / ``GET /archive/query`` serve the knowledge
        base, and campaigns may warm-start from it
        (``CampaignSpec.warm_start``). Off by default; seeded campaign
        curves are unaffected by the archive itself — only an explicit
        ``warm_start`` changes a search.

        With both on, the eval cache is the archive's store
        (``self.eval_cache is self.archive.store``): one directory, each
        paid row written once. An ``eval_cache`` path given with
        ``archive`` is rejected.

        ``trace_max_events`` caps every campaign's on-disk event log (a
        spec's own setting overrides it); ``None``, the default, keeps
        every event. ``log_json`` routes the ``nautilus`` logger through
        :func:`repro.obs.configure_json_logging` — one JSON object per
        line with campaign-id correlation.

        ``fleet=True`` starts a
        :class:`~repro.distributed.FleetCoordinator` listening on
        ``fleet_host:fleet_port`` (0 = ephemeral; ``fleet_address``
        reports the real endpoint) and routes every campaign's distinct
        evaluations through the worker fleet, degrading to local inline
        execution while no worker is connected. ``fleet_policy`` overrides
        the default :class:`~repro.distributed.RetryPolicy`."""
        if archive and eval_cache and eval_cache is not True:
            raise NautilusError(
                "an eval-cache path cannot be given with the archive: the "
                "archive's store is the eval cache"
            )
        if log_json:
            from ..obs import configure_json_logging

            configure_json_logging()
        self.store = CampaignStore(root)
        self.metrics = ServiceMetrics()
        self.archive = None
        if archive:
            from ..archive import DesignArchive

            archive_root = (
                Path(root) / "archive" if archive is True else Path(archive)
            )
            self.archive = DesignArchive(
                archive_root, registry=self.metrics.registry
            )
        self.eval_cache: PersistentCache | None = None
        if eval_cache:
            self.eval_cache = (
                self.archive.store
                if self.archive is not None
                else PersistentCache(
                    Path(root) / "evalcache"
                    if eval_cache is True
                    else Path(eval_cache)
                )
            )
        self.fleet = None
        if fleet:
            from ..distributed import FleetCoordinator

            self.fleet = FleetCoordinator(
                host=fleet_host,
                port=fleet_port,
                policy=fleet_policy,
                registry=self.metrics.registry,
            )
        kwargs = {}
        if dataset_provider is not None:
            kwargs["dataset_provider"] = dataset_provider
        self.scheduler = Scheduler(
            self.store,
            self.metrics,
            workers=workers,
            persistent=self.eval_cache,
            trace_max_events=trace_max_events,
            fleet=self.fleet,
            archive=self.archive,
            **kwargs,
        )
        self.server: ServiceHTTPServer = make_server(
            self.scheduler, host=host, port=port, quiet=quiet
        )
        self._http_thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        """The bound TCP port (resolved even when constructed with 0)."""
        return self.server.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def fleet_address(self) -> str | None:
        """``host:port`` workers should dial, or None without a fleet."""
        return self.fleet.address if self.fleet is not None else None

    def start(self, run_scheduler: bool = True) -> "SearchService":
        """Recover stored campaigns and serve; returns self for chaining.

        ``run_scheduler=False`` leaves stepping to manual
        ``service.scheduler.tick()`` calls — the deterministic mode the
        restart tests use.
        """
        if self.fleet is not None:
            self.fleet.start()
        self.scheduler.recover()
        if run_scheduler:
            self.scheduler.start()
        self._http_thread = threading.Thread(
            target=self.server.serve_forever,
            name="nautilus-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI: Ctrl-C shuts down gracefully."""
        if self.fleet is not None:
            self.fleet.start()
        self.scheduler.recover()
        self.scheduler.start()
        try:
            self.server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Graceful shutdown: stop HTTP, drain the in-flight generation,
        then close the store's append handles."""
        if self._http_thread is not None:
            # shutdown() blocks on the serve_forever loop, so only call it
            # when that loop is actually running in our background thread.
            self.server.shutdown()
            self._http_thread.join(5.0)
            self._http_thread = None
        self.server.server_close()
        self.scheduler.shutdown()
        if self.fleet is not None:
            # After the scheduler: a mid-generation fleet batch must drain
            # before the coordinator tears its worker connections down.
            self.fleet.stop()
        # With the archive on, the eval cache (if any) is its store.
        if self.archive is not None:
            self.archive.store.close()
        elif self.eval_cache is not None:
            self.eval_cache.close()
