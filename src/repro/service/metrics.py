"""Live service counters, served by ``GET /metrics``.

The numbers the paper's economics care about, aggregated across every
campaign the daemon has stepped: how many synthesis jobs were paid for
(distinct evaluations), how often the memoization cache saved one (cache
hit rate — the mechanism behind "the GA revisits previously-synthesized
results ... without paying again"), and how fast the evaluation pipeline is
moving (evaluations/sec over a sliding window). Queue depth and per-campaign
generation counts expose scheduler health.

All updates take one lock and are O(1); the scheduler calls
:meth:`ServiceMetrics.record_step` once per generation step.

Besides the JSON snapshot, every instance owns (or shares) a
:class:`~repro.obs.registry.MetricsRegistry` and mirrors the scheduler-
and kernel-level families into it (``nautilus_scheduler_steps_total``,
``nautilus_campaign_states``, ``nautilus_search_generations``,
``nautilus_search_best_score``); the evaluation-stack families
(``nautilus_eval_*``) are published by each campaign's
:class:`~repro.core.EvaluationStack` against the same registry, and
``GET /metrics?format=prometheus`` renders the whole thing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Iterable

from ..core.evalstack import EvalStats
from ..obs.registry import MetricsRegistry

__all__ = ["ServiceMetrics"]

#: Sliding window for the throughput estimate, seconds.
_WINDOW_S = 60.0


class ServiceMetrics:
    """Thread-safe counters for one service daemon."""

    def __init__(self, clock=time.monotonic, registry: MetricsRegistry | None = None):
        self._clock = clock
        self._lock = threading.Lock()
        self._started_at = clock()
        self._evaluations = 0
        self._requests = 0
        self._cache_hits = 0
        self._persistent_hits = 0
        self._backend_time_s = 0.0
        self._eval_time_s = 0.0
        self._steps = 0
        self._campaign_states: dict[str, str] = {}
        #: Per-campaign cumulative evaluation wall time, seconds.
        self._campaign_eval_time: dict[str, float] = {}
        #: Per-campaign {operator: {calls, time_s}} from the engines' traces
        #: (cumulative over each run; replaced wholesale on every step).
        self._campaign_operators: dict[str, dict[str, dict[str, float]]] = {}
        # (timestamp, distinct-evaluation delta) samples for the window rate.
        self._samples: deque[tuple[float, int]] = deque()
        #: The Prometheus-style registry this daemon exposes; shared with
        #: every campaign's evaluation stack by the scheduler.
        self.registry = registry or MetricsRegistry()
        self._prom_steps = self.registry.counter(
            "nautilus_scheduler_steps_total",
            "Scheduler generation steps across all campaigns.",
        )
        self._prom_states = self.registry.gauge(
            "nautilus_campaign_states",
            "Number of campaigns currently in each lifecycle state.",
            labelnames=("state",),
        )
        self._prom_generations = self.registry.gauge(
            "nautilus_search_generations",
            "Completed generations per campaign.",
            labelnames=("campaign",),
        )
        self._prom_best = self.registry.gauge(
            "nautilus_search_best_score",
            "Best internal (higher-is-better) score per campaign.",
            labelnames=("campaign",),
        )

    # -- updates ----------------------------------------------------------------

    def record_step(
        self,
        campaign_id: str,
        generations_done: int,
        delta: EvalStats,
        best_score: float | None = None,
    ) -> None:
        """Fold one scheduler step's evaluation-stack delta into the counters.

        ``delta`` is ``stack.stats().minus(before)`` for the stepped
        campaign — the scheduler computes it around each generation step.
        ``best_score`` is the kernel's current best, published as
        ``nautilus_search_best_score``.
        """
        now = self._clock()
        with self._lock:
            self._steps += 1
            self._evaluations += delta.distinct
            self._requests += delta.requests
            self._cache_hits += delta.cache_hits
            self._persistent_hits += delta.persistent_hits
            self._backend_time_s += delta.backend_time_s
            self._eval_time_s += delta.wall_time_s
            self._campaign_eval_time[campaign_id] = (
                self._campaign_eval_time.get(campaign_id, 0.0) + delta.wall_time_s
            )
            if delta.distinct:
                self._samples.append((now, delta.distinct))
            self._trim(now)
        self._prom_steps.inc()
        self._prom_generations.set(generations_done, campaign=campaign_id)
        if best_score is not None and best_score == best_score:
            self._prom_best.set(best_score, campaign=campaign_id)

    def record_state(self, campaign_id: str, state: str) -> None:
        with self._lock:
            self._campaign_states[campaign_id] = state
            counts: dict[str, int] = {}
            for value in self._campaign_states.values():
                counts[value] = counts.get(value, 0) + 1
        for name in ("queued", "running", "done", "failed", "cancelled"):
            self._prom_states.set(counts.get(name, 0), state=name)

    def record_operators(
        self, campaign_id: str, timings: dict[str, dict[str, float]]
    ) -> None:
        """Replace a campaign's cumulative per-operator timing snapshot.

        ``timings`` is :meth:`SearchKernel.operator_timings` — already
        cumulative over the run, so the latest snapshot wins.
        """
        with self._lock:
            self._campaign_operators[campaign_id] = {
                operator: dict(entry) for operator, entry in timings.items()
            }

    def restore_totals(self, campaign_id: str, stored: dict[str, Any]) -> None:
        """Take back a finished campaign's operator timings and evaluation
        time, and publish its generations and best score, from its
        ``result.json`` (a restarted daemon's recovery)."""
        with self._lock:
            if "operator_timings" in stored:
                self._campaign_operators[campaign_id] = stored["operator_timings"]
            if "eval_time_s" in stored:
                self._campaign_eval_time[campaign_id] = stored["eval_time_s"]
        if "distinct_evaluations" in stored:  # the campaign ran
            self._prom_generations.set(
                stored["generations_done"], campaign=campaign_id
            )
        score = stored.get("best_score")
        if score is not None and score == score:
            self._prom_best.set(score, campaign=campaign_id)

    def _trim(self, now: float) -> None:
        horizon = now - _WINDOW_S
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    # -- readout ----------------------------------------------------------------

    def snapshot(self, statuses: Iterable[dict[str, Any]] = ()) -> dict[str, Any]:
        """One consistent JSON-ready view of every counter.

        ``statuses`` are the campaigns' ``status_payload()`` bodies (what
        ``GET /campaigns/<id>`` serves); ``campaign_evaluations`` and
        ``campaign_generations`` (for the campaigns that have run),
        ``campaign_best_score`` (NaN skipped) and ``campaign_health`` are
        read from them, so they agree with the status of every campaign
        the daemon knows, including those a restarted daemon recovered.
        """
        evaluations: dict[str, int] = {}
        generations: dict[str, int] = {}
        best: dict[str, float] = {}
        health: dict[str, dict[str, Any]] = {}
        for status in statuses:
            cid = status["id"]
            if "distinct_evaluations" in status:
                evaluations[cid] = status["distinct_evaluations"]
                generations[cid] = status["generations_done"]
            score = status.get("best_score")
            if score is not None and score == score:
                best[cid] = score
            if "health" in status:
                health[cid] = status["health"]
        now = self._clock()
        with self._lock:
            self._trim(now)
            window_evals = sum(delta for __, delta in self._samples)
            if self._samples:
                span = max(now - self._samples[0][0], 1e-9)
                window_rate = window_evals / span
            else:
                window_rate = 0.0
            uptime = max(now - self._started_at, 1e-9)
            states: dict[str, int] = {}
            for state in self._campaign_states.values():
                states[state] = states.get(state, 0) + 1
            operator_time: dict[str, float] = {}
            operator_calls: dict[str, int] = {}
            for timings in self._campaign_operators.values():
                for operator, entry in timings.items():
                    operator_time[operator] = operator_time.get(
                        operator, 0.0
                    ) + float(entry.get("time_s", 0.0))
                    operator_calls[operator] = operator_calls.get(
                        operator, 0
                    ) + int(entry.get("calls", 0))
            return {
                "uptime_s": uptime,
                "scheduler_steps": self._steps,
                "evaluations_total": self._evaluations,
                "evaluation_requests_total": self._requests,
                "cache_hits_total": self._cache_hits,
                "cache_hit_rate": (
                    self._cache_hits / self._requests if self._requests else 0.0
                ),
                "persistent_hits_total": self._persistent_hits,
                "persistent_cache_hit_rate": (
                    self._persistent_hits / self._requests
                    if self._requests
                    else 0.0
                ),
                "eval_time_s": self._eval_time_s,
                "eval_backend_time_s": self._backend_time_s,
                "evaluations_per_sec": window_rate,
                "evaluations_per_sec_lifetime": self._evaluations / uptime,
                "queue_depth": states.get("queued", 0),
                "campaign_states": states,
                "campaign_generations": generations,
                "campaign_eval_time_s": dict(self._campaign_eval_time),
                "campaign_evaluations": evaluations,
                "campaign_best_score": best,
                "campaign_health": health,
                "operator_time_s": operator_time,
                "operator_calls": operator_calls,
                "campaign_operator_time_s": {
                    cid: {
                        operator: float(entry.get("time_s", 0.0))
                        for operator, entry in timings.items()
                    }
                    for cid, timings in self._campaign_operators.items()
                },
            }
