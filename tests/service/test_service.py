"""End-to-end daemon tests over the real bundled datasets and HTTP API.

The headline acceptance test runs mixed guided/baseline campaigns on the
NoC and FFT datasets *concurrently* through one daemon and checks every
campaign's outcome is bit-equal to its same-seed sequential ``run()`` —
interleaved scheduling must never change search results. A second test
kills the daemon mid-campaign and verifies a fresh daemon resumes all
in-flight campaigns from the store without re-paying for cached
evaluations.
"""

import gc
import json
import tracemalloc
import urllib.request

import pytest

from repro.cli import main
from repro.core import hintset_to_json
from repro.queries import build_hints
from repro.service import (
    Campaign,
    CampaignSpec,
    SearchService,
    ServiceClient,
    ServiceError,
    build_search,
)

#: The mixed workload of the acceptance test: (spec, dataset fixture key).
WORKLOAD = [
    CampaignSpec(query="noc-frequency", engine="nautilus", generations=12, seed=3),
    CampaignSpec(query="noc-frequency", engine="baseline", generations=12, seed=3),
    CampaignSpec(query="fft-luts", engine="nautilus", generations=12, seed=4),
    CampaignSpec(query="fft-throughput-per-lut", engine="baseline",
                 generations=10, seed=5),
]


@pytest.fixture(scope="module")
def datasets(noc_dataset, fft_ds):
    return {"noc": noc_dataset, "fft": fft_ds}


@pytest.fixture
def provider(datasets):
    return lambda space_name: datasets[space_name]


@pytest.fixture
def service(tmp_path, provider):
    svc = SearchService(
        tmp_path / "campaigns", port=0, workers=2, dataset_provider=provider
    )
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    return ServiceClient(port=service.port)


class TestConcurrentCampaigns:
    def test_mixed_campaigns_match_sequential(self, service, client, datasets):
        """Acceptance: >= 3 concurrent campaigns == their sequential runs."""
        ids = [client.submit(spec) for spec in WORKLOAD]
        statuses = [client.wait(cid, timeout=300) for cid in ids]
        for spec, status in zip(WORKLOAD, statuses):
            assert status["state"] == "done"
            dataset = datasets["noc" if spec.query.startswith("noc") else "fft"]
            sequential = build_search(spec, dataset).run()
            assert status["best_score"] == sequential.best.score
            assert status["best_raw"] == sequential.best_raw
            assert status["distinct_evaluations"] == sequential.distinct_evaluations
            curve = client.curve(status["id"])
            assert [
                (p["distinct_evaluations"], p["best_raw"]) for p in curve
            ] == sequential.curve()

    def test_metrics_are_live(self, service, client):
        ids = [client.submit(spec) for spec in WORKLOAD[:3]]
        for cid in ids:
            client.wait(cid, timeout=300)
        metrics = client.metrics()
        assert metrics["evaluations_total"] > 0
        assert metrics["evaluations_per_sec"] > 0
        assert 0.0 < metrics["cache_hit_rate"] < 1.0
        assert metrics["queue_depth"] == 0
        assert metrics["campaign_states"]["done"] == 3
        assert set(metrics["campaign_generations"]) == set(ids)

    def test_cancel_over_http(self, service, client):
        cid = client.submit(
            CampaignSpec(query="noc-frequency", engine="baseline", generations=5000)
        )
        client.cancel(cid)
        status = client.wait(cid, timeout=60)
        assert status["state"] == "cancelled"

    def test_api_errors(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("c999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"query": "warp-drive"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nonsense")
        assert excinfo.value.status == 404

    def test_list_and_health(self, client):
        assert client.healthy()
        cid = client.submit(
            CampaignSpec(query="fft-luts", engine="baseline", generations=3)
        )
        client.wait(cid, timeout=120)
        listed = client.list_campaigns()
        assert [c["id"] for c in listed] == [cid]


class TestInlineHints:
    def test_inline_hints_campaign_matches_bundled_kind(
        self, service, client, datasets
    ):
        """An inline hints payload equal to the bundled kind's serialization
        runs the exact same campaign."""
        inline = CampaignSpec(
            query="noc-frequency",
            engine="nautilus",
            generations=8,
            seed=21,
            hints=hintset_to_json(build_hints("frequency")),
        )
        bundled = CampaignSpec(
            query="noc-frequency", engine="nautilus", generations=8, seed=21
        )
        ids = [client.submit(spec) for spec in (inline, bundled)]
        statuses = [client.wait(cid, timeout=300) for cid in ids]
        assert [s["state"] for s in statuses] == ["done", "done"]
        assert statuses[0]["best_raw"] == statuses[1]["best_raw"]
        assert (
            statuses[0]["distinct_evaluations"]
            == statuses[1]["distinct_evaluations"]
        )
        sequential = build_search(inline, datasets["noc"]).run()
        assert statuses[0]["best_raw"] == sequential.best_raw

    def test_bad_inline_hints_answer_400_with_fields(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({
                "query": "noc-frequency",
                "engine": "nautilus",
                "hints": {
                    "schema": 1,
                    "confidence": "high",
                    "params": {"num_vcs": {"importance": 500}},
                },
            })
        assert excinfo.value.status == 400
        fields = {e["field"] for e in excinfo.value.fields}
        assert fields == {"confidence", "params.num_vcs"}

    def test_space_mismatched_hints_rejected_at_submission(self, client):
        # Structurally fine, but the parameter does not exist in the noc
        # space — caught by the scheduler before the campaign is persisted.
        with pytest.raises(ServiceError) as excinfo:
            client.submit({
                "query": "noc-frequency",
                "engine": "nautilus",
                "hints": {"schema": 1, "params": {"warp_factor": {"bias": 1.0}}},
            })
        assert excinfo.value.status == 400
        assert {e["field"] for e in excinfo.value.fields} == {
            "params.warp_factor"
        }
        assert client.list_campaigns() == []


class TestEstimateToSubmit:
    def test_cli_estimate_output_feeds_submit_hints(
        self, service, tmp_path, capsys
    ):
        """Acceptance: nautilus estimate --output -> nautilus submit --hints
        against a live daemon."""
        hints_path = tmp_path / "estimated.json"
        code = main([
            "estimate", "noc-frequency", "--budget", "40",
            "--confidence", "0.8", "--output", str(hints_path),
        ])
        assert code == 0
        assert "hints written to" in capsys.readouterr().out
        payload = json.loads(hints_path.read_text())
        assert payload["schema"] == 1
        assert payload["confidence"] == 0.8

        port = str(service.port)
        code = main([
            "submit", "noc-frequency", "--engine", "nautilus",
            "--hints", str(hints_path), "--generations", "6", "--seed", "13",
            "--port", port, "--wait",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        campaign_id = out[0].strip()
        assert campaign_id.startswith("c")
        assert any("state      : done" in line for line in out)

        client = ServiceClient(port=service.port)
        status = client.status(campaign_id)
        assert status["spec"]["hints"] == payload

    def test_cli_submit_bad_hints_file_is_a_clean_error(
        self, service, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"schema": 1, "params": {"num_vcs": {"bias": 7.0}}}
        ))
        code = main([
            "submit", "noc-frequency", "--hints", str(bad),
            "--port", str(service.port),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "params.num_vcs" in err


class TestDaemonRestart:
    def test_restart_resumes_inflight_campaigns(self, tmp_path, provider, datasets):
        """Acceptance: a killed daemon resumes every in-flight campaign
        from the store, evaluation cache included."""
        root = tmp_path / "campaigns"
        specs = [
            CampaignSpec(query="fft-luts", engine="nautilus", generations=15, seed=11),
            CampaignSpec(query="noc-frequency", engine="baseline",
                         generations=15, seed=12),
        ]
        # Phase 1: manual scheduler ticks so the kill point is deterministic.
        first = SearchService(root, port=0, dataset_provider=provider)
        first.start(run_scheduler=False)
        client = ServiceClient(port=first.port)
        ids = [client.submit(spec) for spec in specs]
        for _ in range(9):
            first.scheduler.tick()
        mid_states = [client.status(cid) for cid in ids]
        assert all(s["state"] == "running" for s in mid_states)
        assert all(0 < s["generations_done"] < 15 for s in mid_states)
        first.stop()

        # Phase 2: a fresh daemon on the same store picks everything up.
        second = SearchService(root, port=0, dataset_provider=provider)
        second.start()
        try:
            client2 = ServiceClient(port=second.port)
            finals = [client2.wait(cid, timeout=300) for cid in ids]
        finally:
            second.stop()
        for spec, final in zip(specs, finals):
            dataset = datasets["noc" if spec.query.startswith("noc") else "fft"]
            sequential = build_search(spec, dataset).run()
            assert final["state"] == "done"
            assert final["best_raw"] == sequential.best_raw
            # Equal distinct-evaluation counts prove the restored cache:
            # the resumed half re-paid for nothing already evaluated.
            assert final["distinct_evaluations"] == sequential.distinct_evaluations

    def test_terminal_campaigns_still_queryable_after_restart(
        self, tmp_path, provider
    ):
        root = tmp_path / "campaigns"
        spec = CampaignSpec(query="fft-luts", engine="baseline", generations=4)
        first = SearchService(root, port=0, dataset_provider=provider).start()
        client = ServiceClient(port=first.port)
        cid = client.submit(spec)
        done = client.wait(cid, timeout=120)
        first.stop()

        second = SearchService(root, port=0, dataset_provider=provider).start()
        try:
            client2 = ServiceClient(port=second.port)
            status = client2.status(cid)
            assert status["state"] == "done"
            assert status["best_raw"] == done["best_raw"]
            assert client2.curve(cid)  # served from the stored result
        finally:
            second.stop()


def _get_bytes(port: int, path: str) -> bytes:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as resp:
        return resp.read()


def _drain(scheduler) -> None:
    while scheduler.tick():
        pass


class TestFinishedCampaigns:
    """A finished campaign is served from its ``result.json``: the daemon
    drops its engine and result at finalize, as a restarted daemon never
    had them."""

    SPECS = [
        CampaignSpec(query="noc-frequency", engine="nautilus", generations=12, seed=3),
        CampaignSpec(query="fft-luts-vs-throughput", engine="pareto",
                     generations=6, seed=4),
    ]

    def test_bodies_stay_byte_identical(self, tmp_path, provider):
        """GET /campaigns, /campaigns/<id>, /curve, /hints and /trace of a
        finished campaign: the bytes its live engine and result served,
        then after a daemon restart."""
        root = tmp_path / "campaigns"
        first = SearchService(root, port=0, dataset_provider=provider)
        first.start(run_scheduler=False)
        live = {}
        save_result = first.scheduler.store.save_result

        def keep_live(campaign):
            live[campaign.id] = (campaign.search, campaign.result)
            save_result(campaign)

        first.scheduler.store.save_result = keep_live
        client = ServiceClient(port=first.port)
        ids = [client.submit(spec) for spec in self.SPECS]
        _drain(first.scheduler)
        paths = ["/campaigns"] + [
            f"/campaigns/{cid}{tail}" for cid in ids
            for tail in ("", "/curve", "/hints", "/trace")
        ]
        try:
            served = {path: _get_bytes(first.port, path) for path in paths}
            expected = {}
            for cid in ids:
                campaign = first.scheduler.get(cid)
                assert campaign.state == "done"
                assert campaign.search is None and campaign.result is None
                search, result = live[cid]
                held = Campaign(
                    id=cid, spec=campaign.spec, state=campaign.state,
                    generations_done=campaign.generations_done,
                    search=search, result=result,
                )
                expected[f"/campaigns/{cid}"] = json.dumps(held.status_payload())
                expected[f"/campaigns/{cid}/curve"] = json.dumps(held.curve_payload())
            expected["/campaigns"] = "[" + ", ".join(
                expected[f"/campaigns/{cid}"] for cid in ids) + "]"
        finally:
            first.stop()
        for path, body in expected.items():
            assert served[path] == body.encode(), path
        assert json.loads(served[f"/campaigns/{ids[1]}"])["front"]
        assert json.loads(served[f"/campaigns/{ids[0]}"])["health"]

        second = SearchService(root, port=0, dataset_provider=provider).start()
        try:
            for path in paths:
                assert _get_bytes(second.port, path) == served[path], path
        finally:
            second.stop()

    def test_memory_per_finished_campaign_is_bounded(self, tmp_path, provider):
        """Traced Python memory a tick-stepped daemon keeps per finished
        40-generation campaign: 37.7 KiB measured (its stored result, its
        metrics entries and a share of the spaces' feasibility memos);
        325 KiB while it kept the engine, the result and their events."""
        service = SearchService(tmp_path / "campaigns", port=0,
                                dataset_provider=provider)
        service.start(run_scheduler=False)
        scheduler = service.scheduler
        queries = ["noc-frequency", "fft-luts"]

        def battery(first_seed, count):
            for k in range(count):
                scheduler.submit(CampaignSpec(
                    query=queries[k % 2], engine="nautilus",
                    generations=40, seed=first_seed + k,
                ))
            _drain(scheduler)

        try:
            battery(1, 4)  # warm-up: memos, pools and first-use state
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                battery(100, 10)
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        finally:
            service.stop()
        assert all(c.terminal and c.search is None
                   for c in scheduler.list_campaigns())
        assert (after - before) / 10 < 100 * 1024
