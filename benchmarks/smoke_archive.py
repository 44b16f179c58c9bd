"""CI smoke check for the cross-campaign design archive.

Two assertions, end to end against a live daemon:

1. **Warm starts pay off.** Campaign A (cold) and campaign B (same query,
   different seed, ``warm_start``) run sequentially against one daemon
   sharing one archive. B must reach A's final best with strictly fewer
   distinct evaluations, the archive endpoints must serve the recorded
   history, and both Prometheus families must be exported.

2. **The archive is purely additive.** With the archive disabled, the full
   20-run engine-parity matrix stays bit-identical to the checked-in
   ``benchmarks/baselines/engine_parity.json`` — proving the store layer, the
   warm-start plumbing and the guidance kind cost zero RNG draws when off.

Usage::

    PYTHONPATH=src python benchmarks/smoke_archive.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from smoke_engine_parity import BASELINE_PATH, run_workload  # noqa: E402

from repro.service import CampaignSpec, SearchService, ServiceClient  # noqa: E402

QUERY = "noc-frequency"
GENERATIONS = 12
WARM_SEEDS = 5


def check(condition: bool, label: str) -> None:
    if not condition:
        print(f"FAIL {label}")
        sys.exit(1)
    print(f"  ok {label}")


def warm_start_smoke(root: Path) -> None:
    service = SearchService(root, port=0, workers=1, archive=True).start()
    try:
        client = ServiceClient(port=service.port)

        cold = client.wait(
            client.submit(
                CampaignSpec(
                    query=QUERY, engine="nautilus",
                    generations=GENERATIONS, seed=0, label="cold",
                )
            ),
            timeout=600,
        )
        check(cold["state"] == "done", "campaign A (cold) completed")

        stats = client.archive_stats()
        check(
            stats["enabled"] and stats["rows"] > 0,
            f"archive recorded {stats['rows']} rows from campaign A",
        )
        payload = client.archive_query(QUERY, k=3)
        check(
            payload["count"] >= 1
            and payload["rows"][0]["raw"] >= cold["best_raw"],
            "GET /archive/query serves campaign A's best design",
        )

        warm = client.wait(
            client.submit(
                CampaignSpec(
                    query=QUERY, engine="nautilus",
                    generations=GENERATIONS, seed=1, label="warm",
                    warm_start=WARM_SEEDS,
                )
            ),
            timeout=600,
        )
        check(warm["state"] == "done", "campaign B (warm-started) completed")

        curve = client.curve(warm["id"])
        evals_to_reach = next(
            (
                point["distinct_evaluations"]
                for point in curve
                if point["best_raw"] >= cold["best_raw"]
            ),
            None,
        )
        check(
            evals_to_reach is not None,
            "campaign B reached campaign A's final best",
        )
        check(
            evals_to_reach < cold["distinct_evaluations"],
            f"with fewer distinct evaluations "
            f"({evals_to_reach} vs {cold['distinct_evaluations']})",
        )

        text = client.metrics_prometheus()
        check(
            "nautilus_archive_rows_total" in text
            and "nautilus_warm_start_seeds_total" in text,
            "Prometheus exports both archive families",
        )
    finally:
        service.stop()


def parity_smoke() -> None:
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)
    results = run_workload()
    check(
        results == baseline,
        "archive-disabled engine matrix bit-identical to engine_parity.json",
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="nautilus-smoke-archive-") as tmp:
        warm_start_smoke(Path(tmp) / "campaigns")
    parity_smoke()
    print("archive smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
