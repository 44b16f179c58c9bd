"""CLI coverage for the service subcommands.

``serve --help`` is a parse-level smoke test; the round-trip test drives
``submit`` -> poll ``status`` -> fetch the curve through the real argparse
entry point against an in-process daemon on an ephemeral port.
"""

import pytest

from repro.cli import build_parser, main
from repro.service import CampaignSpec, SearchService


@pytest.fixture
def service(tmp_path, tiny_provider):
    svc = SearchService(
        tmp_path / "campaigns", port=0, dataset_provider=tiny_provider
    )
    svc.start()
    yield svc
    svc.stop()


class TestParser:
    def test_serve_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--port" in out and "--workers" in out and "--dir" in out

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8765
        assert args.dir == "campaigns"
        assert args.workers == 4

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "fft-luts"])
        assert args.engine == "nautilus"
        assert args.priority == 0
        assert not args.wait


class TestRoundTrip:
    def test_submit_status_curve(self, service, capsys):
        port = str(service.port)
        code = main([
            "submit", "noc-frequency", "--engine", "baseline",
            "--generations", "6", "--seed", "3", "--port", port, "--wait",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        campaign_id = out[0].strip()
        assert campaign_id.startswith("c")
        assert any("state      : done" in line for line in out)

        code = main(["status", campaign_id, "--port", port])
        assert code == 0
        out = capsys.readouterr().out
        assert "state" in out and "done" in out
        assert "noc-frequency (baseline)" in out

        code = main(["status", campaign_id, "--port", port, "--curve"])
        assert code == 0
        out = capsys.readouterr().out
        # One line per generation record plus headers: gen 0..6.
        assert "generation" in out
        assert len([l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]) == 7

    def test_status_all_lists_campaigns(self, service, capsys):
        port = str(service.port)
        main(["submit", "noc-frequency", "--engine", "baseline",
              "--generations", "3", "--port", port, "--wait"])
        capsys.readouterr()
        code = main(["status", "--port", port])
        assert code == 0
        out = capsys.readouterr().out
        assert "noc-frequency/baseline" in out

    def test_status_empty(self, service, capsys):
        code = main(["status", "--port", str(service.port)])
        assert code == 0
        assert "no campaigns" in capsys.readouterr().out


class TestAfterRestart:
    def test_status_and_top_show_evals_of_a_campaign_finished_before(
        self, tmp_path, tiny_provider, capsys
    ):
        """The per-campaign numbers come from each campaign's status, which
        a restarted daemon serves from the stored result."""
        root = tmp_path / "campaigns"
        first = SearchService(root, port=0, dataset_provider=tiny_provider)
        first.start(run_scheduler=False)
        try:
            campaign = first.scheduler.submit(
                CampaignSpec(query="noc-frequency", engine="baseline",
                             generations=4, seed=3)
            )
            while not campaign.terminal:
                first.scheduler.tick()
            evals = campaign.status_payload()["distinct_evaluations"]
        finally:
            first.stop()

        second = SearchService(root, port=0, dataset_provider=tiny_provider)
        second.start()
        try:
            port = str(second.port)
            assert main(["status", "--port", port]) == 0
            row = next(
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith(campaign.id)
            )
            assert f"evals={evals}" in row
            assert main(["top", "--iterations", "1", "--no-clear",
                         "--port", port]) == 0
            row = next(
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith(campaign.id)
            )
            assert str(evals) in row.split()
        finally:
            second.stop()
