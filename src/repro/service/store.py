"""Crash-safe on-disk persistence for search campaigns.

Layout, one directory per campaign under the store root::

    <root>/
      c000001/
        spec.json        # the submitted CampaignSpec, verbatim
        status.json      # state, error, generations_done (atomic rewrites)
        checkpoint.json  # SearchCheckpoint journal, format 6 (GA engines;
                         # appended by the engine each generation,
                         # compacted at finish)
        events.jsonl     # structured RunEvent trace, one JSON line per
                         # event, written once per generation
        spans.jsonl      # span tree (tracing campaigns), one span per line
        result.json      # final curve + best design, once terminal

``spec.json``, ``status.json`` and ``result.json`` are written through a
temp-file + ``rename``, so a killed daemon never leaves them torn.
``status.json`` changes only with the campaign's state — at create, at the
first step and at finalize — so it costs nothing per generation. The
append-only files (the checkpoint journal, events, spans) get one write and
one flush per generation; a kill can tear only their last line, which
every reader skips, and the next append starts on a line of its own.
A generation's events reach ``events.jsonl`` before its journal line, so
the only generation whose events can appear twice is the one a kill
interrupted after its events were written and before it was journaled.
The checkpoint is the :class:`~repro.core.checkpoint.SearchCheckpoint`
journal, which carries the evaluation cache — the expensive part of a
half-finished campaign.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

from ..core import NautilusError
from ..core.fileio import open_append
from .campaign import Campaign, CampaignSpec, CampaignState

__all__ = ["CampaignStore"]


def _write_atomic(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1))
    tmp.replace(path)


class CampaignStore:
    """A directory of campaigns, with sequential crash-stable IDs."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    # -- id allocation ----------------------------------------------------------

    def _next_id(self) -> str:
        numbers = [0]
        for entry in self.root.iterdir():
            if entry.is_dir() and entry.name.startswith("c"):
                try:
                    numbers.append(int(entry.name[1:]))
                except ValueError:
                    continue
        return f"c{max(numbers) + 1:06d}"

    def campaign_dir(self, campaign_id: str) -> Path:
        return self.root / campaign_id

    # -- create / persist -------------------------------------------------------

    def create(self, spec: CampaignSpec) -> Campaign:
        """Allocate an ID, persist the spec, and return a QUEUED campaign."""
        with self._lock:
            campaign_id = self._next_id()
            directory = self.campaign_dir(campaign_id)
            directory.mkdir(parents=True)
        _write_atomic(directory / "spec.json", spec.to_json())
        campaign = Campaign(id=campaign_id, spec=spec)
        self.save_status(campaign)
        return campaign

    def save_status(self, campaign: Campaign) -> None:
        """Persist the campaign's state, error and progress counter."""
        payload = {
            "state": campaign.state,
            "error": campaign.error,
            "generations_done": campaign.generations_done,
        }
        _write_atomic(self.campaign_dir(campaign.id) / "status.json", payload)

    def save_result(self, campaign: Campaign) -> None:
        """Persist the terminal outcome next to the status."""
        payload = campaign.status_payload()
        payload["curve"] = campaign.curve_payload()
        _write_atomic(self.campaign_dir(campaign.id) / "result.json", payload)

    # -- load -------------------------------------------------------------------

    def load(self, campaign_id: str) -> Campaign:
        directory = self.campaign_dir(campaign_id)
        spec_path = directory / "spec.json"
        if not spec_path.exists():
            raise NautilusError(f"no campaign {campaign_id!r} in {self.root}")
        spec = CampaignSpec.from_json(json.loads(spec_path.read_text()))
        campaign = Campaign(id=campaign_id, spec=spec)
        status_path = directory / "status.json"
        if status_path.exists():
            status = json.loads(status_path.read_text())
            campaign.state = status.get("state", CampaignState.QUEUED)
            campaign.error = status.get("error", "")
            campaign.generations_done = status.get("generations_done", 0)
        return campaign

    def load_result(self, campaign_id: str) -> dict[str, Any] | None:
        path = self.campaign_dir(campaign_id) / "result.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def load_all(self) -> list[Campaign]:
        """All campaigns on disk, sorted by ID (i.e. submission order)."""
        campaigns = []
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and (entry / "spec.json").exists():
                campaigns.append(self.load(entry.name))
        return campaigns

    def checkpoint_path(self, campaign_id: str) -> Path:
        return self.campaign_dir(campaign_id) / "checkpoint.json"

    # -- structured trace ---------------------------------------------------------

    def events_path(self, campaign_id: str) -> Path:
        """The campaign's append-only structured event log (JSONL)."""
        return self.campaign_dir(campaign_id) / "events.jsonl"

    def load_events(
        self, campaign_id: str, limit: int | None = None
    ) -> list[dict[str, Any]]:
        """Read a campaign's RunEvent log; ``limit`` keeps the last N.

        Unparsable lines are skipped: a daemon killed mid-write tears at
        most the final line, and the next daemon's first write starts on
        a new line. The generation a kill interrupted may appear twice
        (see the module docstring).
        """
        path = self.events_path(campaign_id)
        if not path.exists():
            return []
        events = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        if limit is not None and limit >= 0:
            return events[len(events) - limit :] if limit else []
        return events

    # -- span trace ---------------------------------------------------------------

    def spans_path(self, campaign_id: str) -> Path:
        """The campaign's append-only span log (JSONL, tracing campaigns)."""
        return self.campaign_dir(campaign_id) / "spans.jsonl"

    def append_spans(
        self, campaign_id: str, spans: list[dict[str, Any]]
    ) -> None:
        """Append finished spans to the campaign's span log.

        Append-only like the event log: the scheduler drains each
        campaign's :class:`~repro.obs.SpanRecorder` after every step, so a
        killed daemon loses at most the spans of the generation being
        stepped. A resumed campaign starts a fresh trace id — the log then
        holds one span tree per daemon incarnation.
        """
        if not spans:
            return
        handle, __ = open_append(self.spans_path(campaign_id))
        with handle:
            handle.write("".join(json.dumps(span) + "\n" for span in spans))

    def load_spans(self, campaign_id: str) -> list[dict[str, Any]]:
        """Read a campaign's persisted span log (torn tail lines skipped)."""
        path = self.spans_path(campaign_id)
        if not path.exists():
            return []
        spans = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return spans
