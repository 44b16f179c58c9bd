"""Tests for the round-robin scheduler (manual ticking: fully deterministic)."""

import json
import sys
import threading

import pytest

from repro.archive import DesignArchive
from repro.core import EvalStats, NautilusError
from repro.service import (
    Campaign,
    CampaignSpec,
    CampaignState,
    CampaignStore,
    Scheduler,
    SearchService,
    ServiceClient,
    build_search,
)


@pytest.fixture
def scheduler(tmp_path, tiny_provider):
    return Scheduler(
        CampaignStore(tmp_path / "campaigns"), dataset_provider=tiny_provider
    )


def _spec(**overrides):
    base = dict(query="noc-frequency", engine="baseline", generations=4, seed=1)
    base.update(overrides)
    return CampaignSpec(**base)


def _drain(scheduler, limit=10_000):
    for _ in range(limit):
        if not scheduler.tick():
            return
    raise AssertionError("scheduler did not drain")


def _bodies(campaign):
    """The status and curve bodies the daemon serves for a campaign."""
    return json.dumps(campaign.status_payload()), json.dumps(campaign.curve_payload())


def _sequential_bodies(campaign, dataset):
    """The bodies of the same spec run in process to its end, served from
    the live engine and result."""
    search = build_search(campaign.spec, dataset)
    result = search.run()
    live = Campaign(
        id=campaign.id, spec=campaign.spec, state=CampaignState.DONE,
        generations_done=search.generation, search=search, result=result,
    )
    return _bodies(live)


class TestScheduling:
    def test_idle_tick_returns_false(self, scheduler):
        assert scheduler.tick() is False

    def test_runs_campaign_to_done(self, scheduler):
        campaign = scheduler.submit(_spec())
        _drain(scheduler)
        assert campaign.state == CampaignState.DONE
        assert campaign.search is None and campaign.result is None
        assert campaign.status_payload()["stop_reason"] == "horizon"
        assert campaign.generations_done == 4

    def test_round_robin_interleaves_fairly(self, scheduler):
        first = scheduler.submit(_spec(seed=1, generations=3))
        second = scheduler.submit(_spec(seed=2, generations=3))
        # One start tick each, then generations alternate: after four ticks
        # both campaigns must have progressed equally.
        for _ in range(4):
            scheduler.tick()
        assert first.generations_done == second.generations_done == 1

    def test_priority_preempts(self, scheduler):
        low = scheduler.submit(_spec(seed=1, priority=0))
        high = scheduler.submit(_spec(seed=2, priority=5))
        # The high-priority campaign must finish before low runs at all.
        while not high.terminal:
            scheduler.tick()
        assert low.generations_done == 0
        _drain(scheduler)
        assert low.state == CampaignState.DONE

    def test_interleaving_preserves_outcomes(self, scheduler, tiny_dataset):
        specs = [_spec(seed=s, generations=5) for s in (3, 4, 5)]
        campaigns = [scheduler.submit(spec) for spec in specs]
        _drain(scheduler)
        for campaign in campaigns:
            assert _bodies(campaign) == _sequential_bodies(campaign, tiny_dataset)

    def test_cancel_queued_is_immediate(self, scheduler):
        campaign = scheduler.submit(_spec())
        scheduler.cancel(campaign.id)
        assert campaign.state == CampaignState.CANCELLED

    def test_cancel_running_takes_next_tick(self, scheduler):
        campaign = scheduler.submit(_spec(generations=50))
        scheduler.tick()  # start
        scheduler.tick()  # generation 1
        assert campaign.state == CampaignState.RUNNING
        scheduler.cancel(campaign.id)
        scheduler.tick()
        assert campaign.state == CampaignState.CANCELLED
        # A cancelled campaign still reports its partial progress.
        assert campaign.status_payload()["stop_reason"] == "cancelled"
        assert campaign.generations_done >= 1

    def test_unknown_campaign_rejected(self, scheduler):
        with pytest.raises(NautilusError, match="unknown campaign"):
            scheduler.get("c424242")

    def test_failure_isolates_to_one_campaign(self, tmp_path, tiny_dataset):
        calls = {"n": 0}

        def flaky_provider(space_name):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("dataset shard offline")
            return tiny_dataset

        scheduler = Scheduler(
            CampaignStore(tmp_path / "campaigns"), dataset_provider=flaky_provider
        )
        doomed = scheduler.submit(_spec(seed=1))
        healthy = scheduler.submit(_spec(seed=2))
        _drain(scheduler)
        assert doomed.state == CampaignState.FAILED
        assert "dataset shard offline" in doomed.error
        assert healthy.state == CampaignState.DONE

    def test_metrics_track_steps(self, scheduler):
        scheduler.submit(_spec())
        _drain(scheduler)
        snapshot = scheduler.metrics.snapshot(
            c.status_payload() for c in scheduler.list_campaigns()
        )
        assert snapshot["evaluations_total"] > 0
        assert snapshot["evaluation_requests_total"] >= snapshot["evaluations_total"]
        assert 0.0 <= snapshot["cache_hit_rate"] <= 1.0
        assert snapshot["queue_depth"] == 0
        assert snapshot["campaign_states"] == {"done": 1}
        assert snapshot["campaign_generations"]["c000001"] == 4


class TestRecovery:
    def test_restart_resumes_midflight(self, tmp_path, tiny_provider, tiny_dataset):
        store_root = tmp_path / "campaigns"
        spec = _spec(seed=6, generations=8)
        first = Scheduler(CampaignStore(store_root), dataset_provider=tiny_provider)
        campaign = first.submit(spec)
        for _ in range(4):  # start + 3 generations, then "crash"
            first.tick()
        assert campaign.state == CampaignState.RUNNING
        paid_before = campaign.search.distinct_evaluations

        second = Scheduler(CampaignStore(store_root), dataset_provider=tiny_provider)
        recovered = second.recover()
        assert [c.id for c in recovered] == [campaign.id]
        _drain(second)
        resumed = second.get(campaign.id)
        assert resumed.state == CampaignState.DONE

        # The restored evaluation cache keeps pre-crash designs paid for:
        # the same distinct evaluations as the uninterrupted run.
        assert _bodies(resumed) == _sequential_bodies(resumed, tiny_dataset)
        assert paid_before <= resumed.status_payload()["distinct_evaluations"]

    def test_resumed_campaign_archives_its_restored_rows(
        self, tmp_path, tiny_provider, tiny_dataset
    ):
        """Checkpointed by a daemon without an archive, resumed by one with
        a fresh archive: every memo row ends up archived under the
        campaign's id, restored rows included."""
        store_root = tmp_path / "campaigns"
        first = Scheduler(CampaignStore(store_root), dataset_provider=tiny_provider)
        campaign = first.submit(_spec(seed=6, generations=8))
        for _ in range(4):  # start + 3 generations, then "crash"
            first.tick()
        restored = [values for (__, values), __ in campaign.search.stack.memo_items()]
        assert restored

        second = Scheduler(
            CampaignStore(store_root),
            dataset_provider=tiny_provider,
            archive=DesignArchive(tmp_path / "archive"),
        )
        second.recover()
        _drain(second)
        resumed = second.get(campaign.id)
        assert resumed.state == CampaignState.DONE
        # The resumed campaign paid for the designs its uninterrupted twin
        # paid for (its served body equals the twin's).
        assert _bodies(resumed) == _sequential_bodies(resumed, tiny_dataset)
        sequential = build_search(campaign.spec, tiny_dataset)
        sequential.run()
        memo = [list(values) for (__, values), __ in sequential.stack.memo_items()]
        assert len(memo) >= len(restored)
        (path,) = (tmp_path / "archive").glob("*.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert sorted(row["values"] for row in rows) == sorted(memo)
        assert {row["campaign"] for row in rows} == {campaign.id}

    def test_recover_skips_terminal(self, tmp_path, tiny_provider, tiny_dataset):
        store_root = tmp_path / "campaigns"
        first = Scheduler(CampaignStore(store_root), dataset_provider=tiny_provider)
        done = first.submit(_spec(seed=1))
        _drain(first)
        assert done.state == CampaignState.DONE

        second = Scheduler(CampaignStore(store_root), dataset_provider=tiny_provider)
        assert second.recover() == []
        loaded = second.get(done.id)
        assert loaded.state == CampaignState.DONE
        # Terminal campaigns answer status/curve queries from the stored
        # result, byte for byte what the first daemon and the in-process
        # run serve.
        assert _bodies(loaded) == _bodies(done)
        assert _bodies(loaded) == _sequential_bodies(done, tiny_dataset)


class TestPersistedLines:
    def test_journal_and_event_lines_are_plain_json_dumps(
        self, tmp_path, tiny_provider
    ):
        """Journal lines (running and compacted) and event lines are the
        bytes ``json.dumps`` writes; journal counters keep field order."""
        store = CampaignStore(tmp_path / "campaigns")
        scheduler = Scheduler(store, dataset_provider=tiny_provider)
        campaign = scheduler.submit(_spec(seed=3, generations=6))
        for _ in range(4):
            scheduler.tick()
        journal = store.checkpoint_path(campaign.id)
        running = journal.read_text(encoding="utf-8").splitlines()
        assert len(running) > 1
        _drain(scheduler)
        assert campaign.state == CampaignState.DONE
        (compacted,) = journal.read_text(encoding="utf-8").splitlines()
        events = store.events_path(campaign.id).read_text(encoding="utf-8")
        events = events.splitlines()
        assert events
        for line in running + [compacted] + events:
            assert line == json.dumps(json.loads(line))
        counts = [name for name in EvalStats._fields if not name.endswith("_s")]
        for line in running + [compacted]:
            assert list(json.loads(line)["eval_stats"]) == counts


class TestThreadedLifecycle:
    def test_start_and_graceful_shutdown(self, scheduler):
        campaigns = [scheduler.submit(_spec(seed=s)) for s in (1, 2)]
        scheduler.start()
        for campaign in campaigns:
            deadline = 200
            while not campaign.terminal and deadline:
                deadline -= 1
                import time

                time.sleep(0.01)
        scheduler.shutdown()
        assert all(c.state == CampaignState.DONE for c in campaigns)

    def test_validation(self, tmp_path):
        with pytest.raises(NautilusError):
            Scheduler(CampaignStore(tmp_path), workers=0)


def _eval_threads(ignore=()):
    """Live evaluation-pool threads, except those in ``ignore`` (pools of
    schedulers other tests left to the garbage collector)."""
    return [
        t for t in threading.enumerate()
        if t.name.startswith("nautilus-eval") and t.is_alive()
        and t not in ignore
    ]


class TestSharedEvaluationPool:
    def test_threaded_daemon_shares_pools_and_stops_them(
        self, tmp_path, noc_dataset, fft_ds
    ):
        """Campaigns stepped on the daemon's shared pools equal their
        in-process runs, and stop() leaves no evaluation thread behind."""
        datasets = {"noc": noc_dataset, "fft": fft_ds}
        specs = [
            CampaignSpec(query=query, engine=engine, generations=8, seed=seed)
            for seed, (query, engine) in enumerate(
                [("noc-frequency", "nautilus"), ("noc-frequency", "baseline"),
                 ("fft-luts", "nautilus"), ("fft-luts", "baseline")] * 2
            )
        ]
        specs[2] = CampaignSpec(
            query="fft-luts", engine="nautilus", generations=8, seed=2,
            workers=2,
        )
        service = SearchService(
            tmp_path / "campaigns", workers=4,
            dataset_provider=lambda name: datasets[name],
        )
        # Each campaign's evaluation counters, read as it is finalized (the
        # scheduler then drops its engine).
        closing_stats = {}
        finalize = service.scheduler._finalize

        def finalize_and_record(campaign, state):
            closing_stats[campaign.id] = campaign.search.stack.stats()
            finalize(campaign, state)

        service.scheduler._finalize = finalize_and_record
        others = set(_eval_threads())
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads harder
        try:
            service.start()
            client = ServiceClient(port=service.port)
            ids = [client.submit(spec) for spec in specs]
            finals = [client.wait(cid, timeout=120) for cid in ids]
            pool_threads = _eval_threads(others)
        finally:
            service.stop()
            sys.setswitchinterval(switch_interval)
        assert 0 < len(pool_threads) <= 4 + 2  # one pool per worker count
        assert _eval_threads(others) == []
        for spec, cid, final in zip(specs, ids, finals):
            assert final["state"] == CampaignState.DONE, final
            campaign = service.scheduler.get(cid)
            dataset = datasets["noc" if spec.query.startswith("noc") else "fft"]
            assert _bodies(campaign) == _sequential_bodies(campaign, dataset)
            assert json.dumps(final) == _bodies(campaign)[0]
            stats = closing_stats[cid]
            assert stats.requests == (
                stats.distinct + stats.memo_hits + stats.persistent_hits
                + stats.batch_dedup_hits
            )

    def test_shutdown_clears_pools_and_a_new_campaign_recreates_them(
        self, tmp_path, tiny_provider
    ):
        scheduler = Scheduler(
            CampaignStore(tmp_path / "campaigns"),
            workers=4,
            dataset_provider=tiny_provider,
        )
        others = set(_eval_threads())
        scheduler.submit(_spec(seed=1))
        _drain(scheduler)
        assert _eval_threads(others)
        scheduler.shutdown()
        assert _eval_threads(others) == []
        campaign = scheduler.submit(_spec(seed=2))
        _drain(scheduler)
        assert campaign.state == CampaignState.DONE
        assert _eval_threads(others)
        scheduler.shutdown()
        assert _eval_threads(others) == []
