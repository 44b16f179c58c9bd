"""Round-robin campaign scheduler.

One scheduler thread owns every engine object and steps them one generation
at a time: campaigns of the highest priority present share the CPU
round-robin, lower priorities run only when no higher-priority campaign is
runnable. Because the engines' incremental API is deterministic (stepping
never consumes RNG differently than ``run()``), interleaving campaigns
changes *when* each generation happens but never *what* it computes — a
campaign's outcome is identical to its same-seed sequential run.

The scheduler can run threaded (:meth:`Scheduler.start` /
:meth:`Scheduler.shutdown`) or be driven manually with :meth:`tick` — the
tests use manual ticking to stop a daemon deterministically mid-campaign.

Fault model: an engine exception fails only its campaign; a daemon kill
loses at most the generation being stepped. GA campaigns append one line
per generation to their checkpoint journal (the generation's new
evaluation-cache rows included; see
:class:`~repro.core.kernel.GenerationalEngine`), so the resumed campaign pays again only
for the evaluations of the lost generation — and not even those when the
daemon's ``--eval-cache`` holds them. :meth:`recover` re-queues every
in-flight campaign found in the store. ``status.json`` is rewritten only
when a campaign changes state, never per step.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..core import (
    CappedJsonlTraceSink,
    GenerationalEngine,
    JsonlTraceSink,
    NautilusError,
    hintset_from_json,
)
from ..obs.attribution import hint_effect_report
from ..queries import load_dataset
from .campaign import (
    Campaign,
    CampaignSpec,
    CampaignState,
    build_search,
    query_space,
)
from .metrics import ServiceMetrics
from .store import CampaignStore

__all__ = ["Scheduler"]

_LOG = logging.getLogger("nautilus.scheduler")


class Scheduler:
    """Steps many campaigns fairly on one thread + a shared worker pool.

    The scheduler owns one evaluation thread pool (threads named
    ``nautilus-eval_*``) per distinct worker count in use — the daemon
    default plus any ``spec.workers`` override — created on first use and
    handed to every campaign's :class:`~repro.core.EvaluationStack`.
    Campaigns step one at a time, so at most one batch uses a pool at
    once. :meth:`shutdown` shuts the pools down, and the next campaign
    built after it creates them again.

    Args:
        store: Campaign persistence (specs, statuses, checkpoints, results).
        metrics: Counter sink; a fresh one is created when omitted.
        workers: Evaluation pool size (the thread backend of each
            campaign's :class:`~repro.core.EvaluationStack`); 1 evaluates
            inline. A spec's own ``workers`` overrides it.
        dataset_provider: ``space_name -> Dataset`` hook, overridable in
            tests; defaults to the bundled dataset loaders.
        poll_interval: Idle-loop sleep of the scheduler thread, seconds.
        persistent: Optional shared
            :class:`~repro.core.PersistentCache` threaded into every
            campaign's evaluation stack, so campaigns over the same space
            never re-pay a synthesis job — across processes and daemon
            restarts. Given with ``archive``, it must be ``archive.store``.
        trace_max_events: Service-wide cap on per-campaign event logs
            (``None`` keeps everything). A spec's own ``trace_max_events``
            overrides it for that campaign. Capped logs keep the oldest
            and newest halves and splice a ``trace-truncated`` marker in
            between.
        fleet: Optional :class:`~repro.distributed.FleetCoordinator`; when
            given, every campaign's evaluation stack dispatches its
            distinct evaluations to the worker fleet (degrading to local
            inline execution while the fleet is empty). The scheduler does
            not own the coordinator's lifecycle — the daemon does.
        archive: Optional :class:`~repro.archive.DesignArchive` shared by
            every campaign: each stack's store layer records the
            evaluations it pays for through it, rows a campaign restores
            from its checkpoint are recorded when it resumes, and specs
            with ``warm_start`` seed their initial population from its
            best designs.
    """

    def __init__(
        self,
        store: CampaignStore,
        metrics: ServiceMetrics | None = None,
        workers: int = 1,
        dataset_provider=load_dataset,
        poll_interval: float = 0.05,
        persistent=None,
        trace_max_events: int | None = None,
        fleet=None,
        archive=None,
    ):
        if workers < 1:
            raise NautilusError("workers must be >= 1")
        if trace_max_events is not None and trace_max_events < 4:
            raise NautilusError("trace_max_events must be >= 4")
        self.store = store
        self.metrics = metrics or ServiceMetrics()
        self.workers = workers
        self.poll_interval = poll_interval
        self.persistent = persistent
        self.trace_max_events = trace_max_events
        self.fleet = fleet
        self.archive = archive
        self._prom_warm_seeds = None
        if archive is not None:
            self._prom_warm_seeds = self.metrics.registry.counter(
                "nautilus_warm_start_seeds_total",
                "Archived designs injected into initial GA populations.",
            )
        self._dataset_provider = dataset_provider
        self._datasets: dict[str, Any] = {}
        self._campaigns: dict[str, Campaign] = {}
        #: Live per-campaign JSONL trace sinks, closed on finalize.
        self._sinks: dict[str, JsonlTraceSink] = {}
        #: Shared evaluation pools by worker count (see the class docs).
        self._pools: dict[int, ThreadPoolExecutor] = {}
        self._queues: dict[int, deque[str]] = {}
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- shared datasets --------------------------------------------------------

    def _dataset(self, space_name: str):
        """The shared (read-only) characterization dataset for a space."""
        if space_name not in self._datasets:
            self._datasets[space_name] = self._dataset_provider(space_name)
        return self._datasets[space_name]

    # -- submission / queries ---------------------------------------------------

    def validate_spec(self, spec: CampaignSpec) -> None:
        """Space-level validation a bare spec cannot do for itself.

        Inline hints are structurally validated by the spec's constructor;
        here they are additionally checked against the query's design space
        (unknown parameters, out-of-domain targets, bad orderings), so a
        bad submission is rejected with field-level errors *before* the
        campaign is persisted — not failed generations later when the
        scheduler first builds the engine.

        Raises:
            HintSpecError: The inline hints do not fit the query's space.
        """
        if spec.hints is not None:
            dataset = self._dataset(query_space(spec))
            hintset_from_json(spec.hints, dataset.space)
        if spec.warm_start is not None and self.archive is None:
            raise NautilusError(
                "warm_start requires the cross-campaign archive; start the "
                "daemon with --archive"
            )

    def submit(self, spec: CampaignSpec) -> Campaign:
        """Persist and enqueue a new campaign; wakes the scheduler thread."""
        self.validate_spec(spec)
        campaign = self.store.create(spec)
        with self._lock:
            self._campaigns[campaign.id] = campaign
            self._enqueue(campaign)
        self.metrics.record_state(campaign.id, campaign.state)
        _LOG.info(
            "campaign submitted",
            extra={"campaign": campaign.id, "query": spec.query,
                   "engine": spec.engine, "seed": spec.seed},
        )
        self._wake.set()
        return campaign

    def get(self, campaign_id: str) -> Campaign:
        with self._lock:
            try:
                return self._campaigns[campaign_id]
            except KeyError:
                raise NautilusError(f"unknown campaign {campaign_id!r}") from None

    def list_campaigns(self) -> list[Campaign]:
        with self._lock:
            return [self._campaigns[cid] for cid in sorted(self._campaigns)]

    def cancel(self, campaign_id: str) -> Campaign:
        """Request cancellation; queued campaigns cancel immediately."""
        with self._lock:
            campaign = self.get(campaign_id)
            if campaign.terminal:
                return campaign
            campaign.cancel_requested = True
            if campaign.search is None:
                self._finalize(campaign, CampaignState.CANCELLED)
        self._wake.set()
        return campaign

    # -- recovery ---------------------------------------------------------------

    def recover(self) -> list[Campaign]:
        """Reload the store; re-queue every in-flight campaign.

        GA campaigns resume from the last complete line of their
        checkpoint journal (population, RNG streams, history, counters and
        evaluation cache); random campaigns deterministically replay from
        their seed. Terminal campaigns are loaded for status/curve queries
        only. Returns the re-queued campaigns.
        """
        requeued = []
        with self._lock:
            for campaign in self.store.load_all():
                if campaign.id in self._campaigns:
                    continue
                self._campaigns[campaign.id] = campaign
                if campaign.state in CampaignState.IN_FLIGHT:
                    campaign.state = CampaignState.QUEUED
                    campaign.generations_done = 0
                    self._enqueue(campaign)
                    requeued.append(campaign)
                else:
                    campaign.stored_result = self.store.load_result(campaign.id)
                self.metrics.record_state(campaign.id, campaign.state)
        if requeued:
            self._wake.set()
        return requeued

    # -- the scheduling loop ----------------------------------------------------

    def _enqueue(self, campaign: Campaign) -> None:
        self._queues.setdefault(campaign.spec.priority, deque()).append(campaign.id)

    def _next(self) -> Campaign | None:
        """Pop the next runnable campaign: highest priority, round-robin."""
        with self._lock:
            for priority in sorted(self._queues, reverse=True):
                queue = self._queues[priority]
                while queue:
                    campaign = self._campaigns[queue.popleft()]
                    if not campaign.terminal:
                        return campaign
            return None

    def tick(self) -> bool:
        """Advance exactly one campaign by one generation.

        Returns False when nothing was runnable. Fairness is the deque
        rotation: a stepped campaign goes to the back of its priority's
        queue.
        """
        campaign = self._next()
        if campaign is None:
            return False
        try:
            self._step(campaign)
        except Exception as exc:  # engine bug or bad data: fail one campaign
            campaign.error = f"{type(exc).__name__}: {exc}"
            self._finalize(campaign, CampaignState.FAILED)
            return True
        if not campaign.terminal:
            with self._lock:
                self._enqueue(campaign)
        return True

    def _pool(self, workers: int) -> ThreadPoolExecutor | None:
        """The shared evaluation pool of ``workers`` threads, created on
        first use; None where a stack runs no thread backend."""
        if workers < 2 or self.fleet is not None:
            return None
        with self._lock:
            pool = self._pools.get(workers)
            if pool is None:
                pool = self._pools[workers] = ThreadPoolExecutor(
                    workers, thread_name_prefix="nautilus-eval"
                )
            return pool

    def _build(self, campaign: Campaign) -> None:
        dataset = self._dataset(query_space(campaign.spec))
        workers = campaign.spec.workers or self.workers
        search = build_search(
            campaign.spec,
            dataset,
            campaign_dir=self.store.campaign_dir(campaign.id),
            workers=workers,
            executor=self._pool(workers),
            persistent=self.persistent,
            registry=self.metrics.registry,
            fleet=self.fleet,
            archive=self.archive,
            campaign_id=campaign.id,
        )
        checkpoint = self.store.checkpoint_path(campaign.id)
        if isinstance(search, GenerationalEngine) and checkpoint.exists():
            search.resume(checkpoint)
        # Every engine streams its structured trace into the campaign's
        # append-mode event log, one write per generation. On resume the
        # engine replays its recorded history without notifying sinks, so
        # only a generation whose events were written before the daemon
        # died, but not journaled, appears twice in the log.
        events_path = self.store.events_path(campaign.id)
        cap = campaign.spec.trace_max_events or self.trace_max_events
        if cap is not None:
            sink: JsonlTraceSink = CappedJsonlTraceSink(events_path, cap)
        else:
            sink = JsonlTraceSink(events_path)
        search.attach_sink(sink)
        self._sinks[campaign.id] = sink
        campaign.search = search

    def _step(self, campaign: Campaign) -> None:
        if campaign.cancel_requested:
            search = campaign.search
            if search is not None and search.started:
                if not search.finished:
                    # Pin the terminal reason and emit the trace's final
                    # "stop" event before packaging the partial result.
                    search.stop("cancelled")
                campaign.result = search.result()
            self._finalize(campaign, CampaignState.CANCELLED)
            return
        if campaign.search is None:
            self._build(campaign)
        search = campaign.search
        stack = search.stack
        before = stack.stats()
        if not search.started:
            search.start()
            # Counts only genuinely injected seeds: a checkpoint resume
            # restores its population instead of re-seeding and reports 0.
            seeds = getattr(search, "warm_start_seeds", 0)
            if seeds and self._prom_warm_seeds is not None:
                self._prom_warm_seeds.inc(seeds)
            record: Any = True  # starting is progress, never terminal
        else:
            record = search.step()
        campaign.generations_done = search.generation
        if record is not None and campaign.state != CampaignState.RUNNING:
            # The first step. status.json follows the state only (create,
            # first step, finalize); progress lives in the checkpoint.
            campaign.state = CampaignState.RUNNING
            self.metrics.record_state(campaign.id, campaign.state)
            self.store.save_status(campaign)
        self._drain_spans(campaign)
        self.metrics.record_step(
            campaign.id,
            campaign.generations_done,
            stack.stats().minus(before),
            best_score=getattr(search, "best_score", None),
            health=getattr(search, "latest_health", None),
        )
        self.metrics.record_operators(campaign.id, search.operator_timings())
        if record is None:
            campaign.result = search.result()
            self._finalize(campaign, CampaignState.DONE)

    def _drain_spans(self, campaign: Campaign) -> None:
        """Persist the campaign's newly finished spans (tracing campaigns).

        Runs on the scheduler thread only, so the recorder's drain cursor
        never races a query: :meth:`spans` reads the persisted log and
        does not touch the live recorder.
        """
        search = campaign.search
        tracer = getattr(search, "tracer", None)
        if tracer is None:
            return
        finished = tracer.drain_finished()
        if finished:
            self.store.append_spans(campaign.id, finished)

    def _finalize(self, campaign: Campaign, state: str) -> None:
        self._drain_spans(campaign)
        # Count the state before publishing it: a client that has seen a
        # terminal status must find it in the campaign-state gauge.
        self.metrics.record_state(campaign.id, state)
        campaign.state = state
        self.store.save_status(campaign)
        self.store.save_result(campaign)
        if state == CampaignState.FAILED:
            _LOG.error(
                "campaign failed",
                extra={"campaign": campaign.id, "error": campaign.error},
            )
        else:
            _LOG.info("campaign finished",
                      extra={"campaign": campaign.id, "state": state})
        sink = self._sinks.pop(campaign.id, None)
        if sink is not None:
            sink.close()
        if campaign.search is not None:
            campaign.search.close()
        # Serve the campaign from what save_result wrote, as a restarted
        # daemon does: the engine, its result and their event payloads go.
        campaign.stored_result = self.store.load_result(campaign.id)
        campaign.search = None
        campaign.result = None

    # -- structured trace ---------------------------------------------------------

    def trace(
        self, campaign_id: str, limit: int | None = None
    ) -> list[dict[str, Any]]:
        """A campaign's persisted RunEvent log (most recent last)."""
        self.get(campaign_id)  # 404 on unknown campaigns
        return self.store.load_events(campaign_id, limit=limit)

    def spans(self, campaign_id: str) -> list[dict[str, Any]]:
        """A campaign's persisted span tree (tracing campaigns only).

        Spans are drained to ``spans.jsonl`` after every scheduler step
        and at finalize, so a finished campaign's tree is complete here;
        a live campaign shows everything up to its last stepped
        generation. Non-tracing campaigns return an empty list.
        """
        self.get(campaign_id)  # 404 on unknown campaigns
        return self.store.load_spans(campaign_id)

    def hint_report(self, campaign_id: str) -> dict[str, Any]:
        """Aggregate hint attribution over a campaign's persisted trace.

        Folds every ``hint-attribution`` event in the campaign's event log
        into one :class:`~repro.obs.HintEffectReport` dict — the body of
        ``GET /campaigns/<id>/hints``.
        """
        self.get(campaign_id)  # 404 on unknown campaigns
        events = self.store.load_events(campaign_id)
        return hint_effect_report(events)

    # -- fleet ------------------------------------------------------------------

    def fleet_status(self) -> dict[str, Any]:
        """The coordinator snapshot behind ``GET /fleet``."""
        if self.fleet is None:
            return {"enabled": False}
        return self.fleet.status()

    # -- archive ----------------------------------------------------------------

    def archive_stats(self) -> dict[str, Any]:
        """The archive snapshot behind ``GET /archive/stats``."""
        if self.archive is None:
            return {"enabled": False}
        payload = self.archive.stats()
        payload["enabled"] = True
        payload["root"] = str(self.archive.root)
        return payload

    def archive_query(self, query_name: str, k: int = 10) -> dict[str, Any]:
        """Top archived designs for a named query — ``GET /archive/query``."""
        if self.archive is None:
            raise NautilusError(
                "archive disabled; start the daemon with --archive"
            )
        from ..core import DatasetEvaluator, evaluator_fingerprint
        from ..queries import QUERIES, resolve_objective

        if query_name not in QUERIES:
            raise NautilusError(
                f"unknown query {query_name!r}; choose from {sorted(QUERIES)}"
            )
        query = QUERIES[query_name]
        dataset = self._dataset(query.space)
        objective, __ = resolve_objective(query)
        fingerprint = evaluator_fingerprint(DatasetEvaluator(dataset))
        rows = self.archive.top_k(dataset.space, fingerprint, objective, k)
        return {
            "query": query_name,
            "space": dataset.space.name,
            "metric": objective.name,
            "direction": objective.direction,
            "count": len(rows),
            "rows": rows,
        }

    # -- thread lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Launch the scheduler thread (idempotent).

        The run queues are rebuilt from scratch — every known non-terminal
        campaign, in id order — so a scheduler stopped by :meth:`shutdown`
        (which drains the queues) resumes deterministically.
        """
        if self._thread is not None and self._thread.is_alive():
            return
        with self._lock:
            self._queues.clear()
            for cid in sorted(self._campaigns):
                campaign = self._campaigns[cid]
                if not campaign.terminal:
                    self._enqueue(campaign)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="nautilus-scheduler", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            if not self.tick():
                self._wake.wait(self.poll_interval)
                self._wake.clear()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful, *complete* stop: no queue entries or threads survive.

        Finishes the in-flight generation, joins the scheduler thread (a
        thread that refuses to die raises — leaking it silently would turn
        every later shutdown into a slow drift of zombie threads), drains
        the run queues, closes every live trace sink and checkpoint
        journal, detaches engine objects of unfinished campaigns, and
        shuts the evaluation pools down.
        Checkpoint journals are already appended per generation, so the
        store stays consistent and :meth:`start` / :meth:`recover` resume
        everything losslessly.

        Raises:
            NautilusError: The scheduler thread did not terminate within
                ``timeout`` seconds.
        """
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                raise NautilusError(
                    f"scheduler thread failed to stop within {timeout}s; "
                    "a campaign step is wedged"
                )
            self._thread = None
        with self._lock:
            # Drain the queues: nothing must reference a stopped scheduler.
            self._queues.clear()
            # Close live trace sinks (open fds) and detach the engines that
            # write to them; unfinished campaigns rebuild from their
            # checkpoint on the next start()/recover(), so dropping the
            # in-memory object loses nothing.
            for cid, sink in list(self._sinks.items()):
                sink.close()
                campaign = self._campaigns.get(cid)
                if campaign is not None and not campaign.terminal:
                    if campaign.search is not None:
                        campaign.search.close()
                    campaign.search = None
                    campaign.result = None
            self._sinks.clear()
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown(wait=True)
        self._wake.clear()
