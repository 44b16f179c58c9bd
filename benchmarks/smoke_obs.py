"""CI smoke check: the observability surface works end to end.

Boots an in-process :class:`repro.service.SearchService`, runs one tiny
seeded campaign to completion, then verifies the telemetry the daemon
exposes:

* ``GET /metrics?format=prometheus`` parses as text exposition format
  0.0.4 (checked with the small independent parser below — deliberately
  *not* ``repro.obs.parse_prometheus``, so a bug in the library parser
  cannot hide a bug in the renderer) and covers the evaluation-stack,
  scheduler, and kernel metric families;
* the JSON ``GET /metrics`` snapshot still carries the per-campaign keys,
  and the campaign's ``campaign_operator_time_s`` holds ``init``,
  ``selection`` and ``mutation`` — operator timings come from the
  kernel's running totals alone;
* ``GET /campaigns/<id>/trace`` holds no ``operator-applied`` event;
* ``GET /campaigns/<id>/hints`` reports per-channel attribution with
  non-zero proposals;
* the campaign status carries a ``health`` block with a stall-risk score.

Usage::

    PYTHONPATH=src python benchmarks/smoke_obs.py
"""

from __future__ import annotations

import re
import sys
import tempfile
import urllib.request

from repro.service import CampaignSpec, SearchService

_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})? "
    r"(?P<value>[0-9eE+.\-]+|\+Inf|-Inf|NaN)$"
)

#: Families the daemon must expose: eval stack, scheduler, kernel.
REQUIRED_FAMILIES = (
    "nautilus_eval_requests_total",
    "nautilus_eval_distinct_total",
    "nautilus_eval_memo_hits_total",
    "nautilus_eval_batch_seconds",
    "nautilus_scheduler_steps_total",
    "nautilus_campaign_states",
    "nautilus_search_generations",
    "nautilus_search_best_score",
)


def parse_exposition(text: str) -> dict[str, list[tuple[str, float]]]:
    """Parse Prometheus text format 0.0.4: {family: [(sample line, value)]}.

    Independent ~30-line stdlib parser; raises ValueError on any line that
    is not a comment, a blank, or a well-formed sample.
    """
    families: dict[str, list[tuple[str, float]]] = {}
    typed: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            __, __, name, kind = line.split(" ", 3)
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"bad TYPE {kind!r} for {name}")
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _METRIC_LINE.match(line)
        if match is None:
            raise ValueError(f"malformed sample line: {line!r}")
        sample = match.group("name")
        # histogram samples (_bucket/_sum/_count) belong to the base family
        family = re.sub(r"_(bucket|sum|count)$", "", sample)
        family = family if family in typed else sample
        if family not in typed:
            raise ValueError(f"sample {sample!r} has no preceding TYPE line")
        families.setdefault(family, []).append((line, float(match.group("value"))))
    return families


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as root:
        service = SearchService(root, port=0, workers=1)
        service.start(run_scheduler=False)
        try:
            spec = CampaignSpec(query="noc-frequency", generations=6, seed=7)
            cid = service.scheduler.submit(spec).id
            while service.scheduler.tick():
                pass

            base = service.address
            with urllib.request.urlopen(f"{base}/metrics?format=prometheus") as r:
                content_type = r.headers.get("Content-Type", "")
                text = r.read().decode()
            if "text/plain" not in content_type:
                failures.append(f"bad content type {content_type!r}")
            families = parse_exposition(text)
            for name in REQUIRED_FAMILIES:
                if name not in families:
                    failures.append(f"missing metric family {name}")
                elif not any(value == value for __, value in families[name]):
                    failures.append(f"family {name} has no finite samples")
            print(f"prometheus exposition: {len(families)} families, "
                  f"{sum(len(v) for v in families.values())} samples")

            import json

            with urllib.request.urlopen(f"{base}/metrics") as r:
                snapshot = json.loads(r.read())
            for key in ("campaign_best_score", "campaign_health",
                        "evaluations_total", "cache_hit_rate"):
                if key not in snapshot:
                    failures.append(f"JSON snapshot missing {key!r}")
            operators = snapshot.get("campaign_operator_time_s", {}).get(cid, {})
            for operator in ("init", "selection", "mutation"):
                if operator not in operators:
                    failures.append(
                        f"campaign_operator_time_s[{cid!r}] missing {operator!r}"
                    )
            print(f"operator timings: {sorted(operators)}")

            with urllib.request.urlopen(f"{base}/campaigns/{cid}/trace") as r:
                events = json.loads(r.read())
            kinds = {event.get("kind") for event in events}
            if not events:
                failures.append("campaign trace is empty")
            if "operator-applied" in kinds:
                failures.append("campaign trace holds operator-applied events")
            print(f"trace: {len(events)} events, kinds {sorted(kinds)}")

            with urllib.request.urlopen(f"{base}/campaigns/{cid}/hints") as r:
                hints = json.loads(r.read())
            channels = hints.get("channels", {})
            if not channels:
                failures.append("hint report has no channels")
            if sum(c["proposals"] for c in channels.values()) == 0:
                failures.append("hint report counted zero proposals")
            print(f"hint report: {hints.get('generations')} generations, "
                  f"channels {sorted(channels)}")

            with urllib.request.urlopen(f"{base}/campaigns/{cid}") as r:
                status = json.loads(r.read())
            health = status.get("health")
            if not health or "stall_risk" not in health:
                failures.append("campaign status missing health/stall_risk")
            else:
                print(f"health: diversity={health['diversity']:.3f} "
                      f"stall_risk={health['stall_risk']:.2f}")
        finally:
            service.stop()
    if failures:
        print("observability smoke failed:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("observability smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
