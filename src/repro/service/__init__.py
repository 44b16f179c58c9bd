"""Search-as-a-service: run many guided-GA campaigns concurrently.

The paper's premise is that the IP generator searches its own design space
*on behalf of* the IP user. In production that is not one blocking
``run()`` call in a script — it is many users submitting search campaigns
against shared characterization data, a scheduler interleaving their
generations fairly, and an API to poll progress. This subpackage provides
exactly that, on the standard library alone:

* :mod:`~repro.service.campaign` — campaign specs, states, and runtime
  objects built on the engines' incremental ``start()``/``step()`` API;
* :mod:`~repro.service.store` — a crash-safe JSON campaign store holding
  each campaign's :class:`~repro.core.checkpoint.SearchCheckpoint`
  journal, so a killed daemon resumes every in-flight campaign without
  re-paying for the designs of its completed generations;
* :mod:`~repro.service.scheduler` — a priority-aware round-robin scheduler
  stepping one generation per tick; every campaign's evaluations run on
  one evaluation thread pool the scheduler owns (one per worker count);
* :mod:`~repro.service.metrics` — live service counters (evaluation
  throughput, cache hit rate, queue depth), doubling as the daemon's
  :class:`~repro.obs.MetricsRegistry` behind
  ``GET /metrics?format=prometheus``;
* :mod:`~repro.service.http` / :mod:`~repro.service.daemon` — a
  ``ThreadingHTTPServer`` REST API around the scheduler;
* :mod:`~repro.service.client` — a small urllib client used by the
  ``nautilus submit`` / ``nautilus status`` CLI subcommands.
"""

from .campaign import Campaign, CampaignSpec, CampaignState, build_search
from .client import ServiceClient, ServiceError
from .daemon import SearchService
from .metrics import ServiceMetrics
from .scheduler import Scheduler
from .store import CampaignStore

__all__ = [
    "Campaign",
    "CampaignSpec",
    "CampaignState",
    "build_search",
    "CampaignStore",
    "Scheduler",
    "ServiceMetrics",
    "SearchService",
    "ServiceClient",
    "ServiceError",
]
