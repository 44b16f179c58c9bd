"""Service-level observability: Prometheus exposition, hint attribution
over HTTP, trace truncation caps, and the top/report CLI views — all on
the instant tiny dataset."""

import json

import pytest

from repro.cli import main
from repro.core import NautilusError
from repro.obs import parse_prometheus
from repro.service import CampaignSpec, SearchService, ServiceClient, ServiceError


@pytest.fixture
def service(tmp_path, tiny_provider):
    svc = SearchService(
        tmp_path / "campaigns", port=0, dataset_provider=tiny_provider
    )
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    return ServiceClient(port=service.port)


def _run_campaign(client, generations=4, seed=2):
    cid = client.submit(
        CampaignSpec(query="noc-frequency", engine="baseline",
                     generations=generations, seed=seed)
    )
    client.wait(cid, timeout=60)
    return cid


class TestPrometheusEndpoint:
    def test_exposition_parses_and_covers_layers(self, service, client):
        cid = _run_campaign(client)
        text = client.metrics_prometheus()
        families = parse_prometheus(text)
        # One registry spans the eval stack, the scheduler, and the kernel.
        for family in (
            "nautilus_eval_requests_total",
            "nautilus_eval_distinct_total",
            "nautilus_eval_batch_seconds",
            "nautilus_scheduler_steps_total",
            "nautilus_campaign_states",
            "nautilus_search_generations",
            "nautilus_search_best_score",
        ):
            assert family in families, family
        states = families["nautilus_campaign_states"]["samples"]
        assert states[("nautilus_campaign_states", (("state", "done"),))] == 1
        gens = families["nautilus_search_generations"]["samples"]
        assert gens[("nautilus_search_generations", (("campaign", cid),))] == 4

    def test_json_snapshot_unchanged_and_extended(self, service, client):
        cid = _run_campaign(client)
        metrics = client.metrics()
        # Pre-existing keys stay for old dashboards...
        for key in ("scheduler_steps", "evaluations_total", "cache_hit_rate",
                    "campaign_states", "operator_calls"):
            assert key in metrics
        # ...and the observability keys ride alongside.
        assert metrics["campaign_best_score"][cid] > 0
        assert "stall_risk" in metrics["campaign_health"][cid]

    def test_unknown_format_is_400(self, service, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/metrics?format=xml")
        assert excinfo.value.status == 400


class TestCampaignMapsAcrossRestart:
    def test_every_map_agrees_with_the_campaign_status(
        self, tmp_path, tiny_provider
    ):
        """After a restart, /metrics' per-campaign maps equal what
        ``GET /campaigns/<id>`` serves: a campaign finished before the
        restart is in them, and a resumed one counts the evaluations it
        paid before the restart. The finished campaign also keeps the
        operator timings and evaluation time the first daemon served, and
        its Prometheus generations and best-score gauges."""
        root = tmp_path / "campaigns"
        spec = dict(query="noc-frequency", engine="baseline")
        first = SearchService(root, port=0, dataset_provider=tiny_provider)
        first.start(run_scheduler=False)
        try:
            scheduler = first.scheduler
            done = scheduler.submit(CampaignSpec(**spec, generations=5, seed=3))
            while not done.terminal:
                scheduler.tick()
            cut = scheduler.submit(CampaignSpec(**spec, generations=30, seed=4))
            for _ in range(4):  # start + 3 generations, then restart
                scheduler.tick()
            assert cut.state == "running"
            served = first.scheduler.metrics.snapshot()
        finally:
            first.stop()

        second = SearchService(root, port=0, dataset_provider=tiny_provider)
        second.start(run_scheduler=False)
        try:
            while second.scheduler.tick():
                pass
            client = ServiceClient(port=second.port)
            metrics = client.metrics()
            families = parse_prometheus(client.metrics_prometheus())
            finished = client.status(done.id)
            for family, key in (
                ("nautilus_search_generations", "generations_done"),
                ("nautilus_search_best_score", "best_score"),
            ):
                samples = families[family]["samples"]
                assert samples[(family, (("campaign", done.id),))] == (
                    finished[key]
                )
            for cid in (done.id, cut.id):
                status = client.status(cid)
                assert status["state"] == "done"
                assert "health" in status
                assert metrics["campaign_evaluations"][cid] == (
                    status["distinct_evaluations"]
                )
                assert metrics["campaign_best_score"][cid] == status["best_score"]
                assert metrics["campaign_health"][cid] == status["health"]
                assert metrics["campaign_generations"][cid] == (
                    status["generations_done"]
                )
            operators = metrics["campaign_operator_time_s"][done.id]
            assert operators == served["campaign_operator_time_s"][done.id]
            assert {"init", "selection", "mutation"} <= set(operators)
            # result.json keeps the stack's evaluation time; the first
            # daemon served it as a sum of per-step deltas.
            assert metrics["campaign_eval_time_s"][done.id] == pytest.approx(
                served["campaign_eval_time_s"][done.id], rel=1e-9, abs=1e-12
            )
        finally:
            second.stop()


class TestHintsEndpoint:
    def test_unguided_campaign_attributes_to_uniform(self, service, client):
        cid = _run_campaign(client, generations=5, seed=3)
        report = client.hints(cid)
        assert report["channels"], "attribution events must survive the store"
        assert "uniform" in report["channels"]
        assert "bias" not in report["channels"]  # baseline engine: no hints
        uniform = report["channels"]["uniform"]
        assert uniform["proposals"] > 0
        assert uniform["feasible"] <= uniform["proposals"]
        for stats in report["params"].values():
            assert set(stats["channels"]) <= {"uniform", "noop", "fallback"}

    def test_unknown_campaign_404(self, service, client):
        with pytest.raises(ServiceError) as excinfo:
            client.hints("c999999")
        assert excinfo.value.status == 404


class TestTraceTruncation:
    def test_spec_cap_truncates_with_marker(self, service, client):
        cid = client.submit(
            CampaignSpec(query="noc-frequency", engine="baseline",
                         generations=8, seed=2, trace_max_events=12)
        )
        client.wait(cid, timeout=60)
        events = client.trace(cid)
        # Compaction amortizes rewrites: the file is bounded by the cap
        # plus the documented slack, not the cap exactly.
        assert len(events) <= 12 + 8
        kinds = [e["kind"] for e in events]
        assert "trace-truncated" in kinds
        marker = next(e for e in events if e["kind"] == "trace-truncated")
        assert marker["dropped"] > 0
        assert events[-1]["kind"] == "stop"  # the tail is preserved

    def test_uncapped_campaign_has_no_marker(self, service, client):
        cid = _run_campaign(client)
        assert all(
            e["kind"] != "trace-truncated" for e in client.trace(cid)
        )

    def test_spec_rejects_tiny_cap(self):
        with pytest.raises(NautilusError):
            CampaignSpec(query="noc-frequency", trace_max_events=3)

    def test_service_default_cap(self, tmp_path, tiny_provider):
        svc = SearchService(
            tmp_path / "campaigns", port=0, dataset_provider=tiny_provider,
            trace_max_events=10,
        )
        svc.start()
        try:
            client = ServiceClient(port=svc.port)
            cid = client.submit(
                CampaignSpec(query="noc-frequency", engine="baseline",
                             generations=8, seed=2)
            )
            client.wait(cid, timeout=60)
            events = client.trace(cid)
        finally:
            svc.stop()
        assert len(events) <= 10 + 8
        assert any(e["kind"] == "trace-truncated" for e in events)


class TestStatusHealth:
    def test_status_payload_carries_health(self, service, client):
        cid = _run_campaign(client)
        health = client.status(cid)["health"]
        for key in ("diversity", "duplicate_rate", "infeasible_rate",
                    "convergence_velocity", "stall_risk"):
            assert key in health
        assert 0.0 <= health["stall_risk"] <= 1.0


class TestObsCli:
    def test_hints_subcommand(self, service, client, capsys):
        cid = _run_campaign(client, generations=5, seed=3)
        assert main(["hints", cid, "--port", str(service.port)]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out
        assert "proposals" in out

        assert main(
            ["hints", cid, "--json", "--port", str(service.port)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == client.hints(cid)

    def test_top_single_frame(self, service, client, capsys):
        cid = _run_campaign(client)
        assert main([
            "top", "--iterations", "1", "--no-clear",
            "--port", str(service.port),
        ]) == 0
        out = capsys.readouterr().out
        assert cid in out
        assert "stall" in out.lower()

    def test_status_shows_health_line(self, service, client, capsys):
        cid = _run_campaign(client)
        assert main(["status", cid, "--port", str(service.port)]) == 0
        out = capsys.readouterr().out
        assert "stall_risk" in out
        assert "health" in out

    def test_report_html(self, service, client, tmp_path, capsys, monkeypatch):
        cid = _run_campaign(client, generations=5, seed=4)
        monkeypatch.chdir(tmp_path)
        assert main([
            "report", "--html", cid, "--port", str(service.port),
        ]) == 0
        path = tmp_path / f"campaign-{cid}.html"
        assert path.exists()
        html = path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert f"Nautilus campaign {cid}" in html
        assert "<svg" in html
