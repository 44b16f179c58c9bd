"""Integration tests for the shared persistent evaluation cache.

With ``eval_cache`` enabled, campaigns over the same space share synthesis
results through an on-disk cache: within one daemon, across daemons, and
across restarts. Acceptance: a second campaign re-running a spec after a
daemon restart pays for strictly fewer distinct evaluations, shows
persistent-cache hits in ``/metrics``, and still finds the same result.
"""

import json

import pytest

from repro.core import NautilusError
from repro.service import CampaignSpec, SearchService, ServiceClient

SPEC = CampaignSpec(query="noc-frequency", engine="baseline", generations=4, seed=7)


@pytest.fixture
def root(tmp_path):
    return tmp_path / "campaigns"


def run_campaign(root, provider, spec):
    service = SearchService(
        root, port=0, dataset_provider=provider, eval_cache=True
    ).start()
    try:
        client = ServiceClient(port=service.port)
        status = client.wait(client.submit(spec), timeout=120)
        return status, client.metrics()
    finally:
        service.stop()


class TestPersistentEvalCache:
    def test_campaigns_share_results_across_daemon_restart(self, root, tiny_provider):
        first, metrics1 = run_campaign(root, tiny_provider, SPEC)
        assert first["state"] == "done"
        assert first["distinct_evaluations"] > 0
        assert metrics1["persistent_hits_total"] == 0  # nothing cached yet
        assert list((root / "evalcache").glob("*.jsonl"))

        # A fresh daemon on the same store: the second campaign replays the
        # same spec and must never re-pay for a cached synthesis job.
        second, metrics2 = run_campaign(root, tiny_provider, SPEC)
        assert second["state"] == "done"
        assert second["best_raw"] == first["best_raw"]
        assert second["distinct_evaluations"] < first["distinct_evaluations"]
        assert metrics2["persistent_hits_total"] > 0
        assert metrics2["persistent_cache_hit_rate"] > 0.0

    def test_campaigns_share_results_within_one_daemon(self, root, tiny_provider):
        service = SearchService(
            root, port=0, dataset_provider=tiny_provider, eval_cache=True
        ).start()
        try:
            client = ServiceClient(port=service.port)
            first = client.wait(client.submit(SPEC), timeout=120)
            second = client.wait(client.submit(SPEC), timeout=120)
            assert second["best_raw"] == first["best_raw"]
            assert second["distinct_evaluations"] < first["distinct_evaluations"]
            assert client.metrics()["persistent_hits_total"] > 0
        finally:
            service.stop()

    def test_cache_off_by_default(self, root, tiny_provider):
        service = SearchService(root, port=0, dataset_provider=tiny_provider)
        try:
            assert service.eval_cache is None
            assert not (root / "evalcache").exists()
        finally:
            service.server.server_close()

    def test_metrics_report_eval_timings(self, root, tiny_provider):
        status, metrics = run_campaign(root, tiny_provider, SPEC)
        assert metrics["eval_time_s"] > 0.0
        assert metrics["eval_backend_time_s"] >= 0.0
        cid = status["id"]
        assert metrics["campaign_eval_time_s"][cid] > 0.0
        assert (
            metrics["campaign_evaluations"][cid] == status["distinct_evaluations"]
        )


class TestOneStoreWithTheArchive:
    def test_eval_cache_is_the_archive_store(self, root, tiny_provider):
        """With both on, each paid row is written once, under the archive,
        with the campaign that paid for it."""
        service = SearchService(
            root, port=0, dataset_provider=tiny_provider, eval_cache=True,
            archive=True,
        ).start()
        try:
            assert service.eval_cache is service.archive.store
            client = ServiceClient(port=service.port)
            first = client.wait(client.submit(SPEC), timeout=120)
            second = client.wait(client.submit(SPEC), timeout=120)
            assert second["distinct_evaluations"] < first["distinct_evaluations"]
            assert client.metrics()["persistent_hits_total"] > 0
        finally:
            service.stop()
        assert not (root / "evalcache").exists()
        rows = [
            json.loads(line)
            for path in sorted((root / "archive").glob("*.jsonl"))
            for line in path.read_text().splitlines()[1:]
        ]
        values = [tuple(row["values"]) for row in rows]
        assert len(values) == len(set(values))
        paid = first["distinct_evaluations"] + second["distinct_evaluations"]
        assert len(rows) == paid
        assert {row["campaign"] for row in rows} <= {first["id"], second["id"]}

    def test_eval_cache_path_with_archive_rejected(self, root, tmp_path):
        with pytest.raises(NautilusError):
            SearchService(
                root, port=0, eval_cache=tmp_path / "cache", archive=True
            )
