"""CI smoke check: a SIGKILLed daemon resumes its campaign onto the
uninterrupted curve.

1. Starts ``nautilus serve --eval-cache --archive`` as a subprocess on a
   fresh ``--dir``.
2. Submits a long ``noc-frequency`` campaign and polls its
   ``generations_done`` until it is well under way.
3. SIGKILLs the daemon mid-run, restarts it on the same directory, and
   waits for the campaign to reach ``done``.

The resumed campaign must match an in-process uninterrupted run of the
same spec — best raw metric, best design and the whole best-raw curve —
and pay no more distinct evaluations than it (the generation the kill
interrupted is served by the eval cache the second time). The store must
hold no ``*.tmp`` file, and the finished campaign's checkpoint journal
must have been compacted into a single line. Every ``cache`` row of that
line must be in ``<store>/archive`` under the campaign's id, with the
same metrics: the rows the restarted daemon restored from the journal
reach the archive too. The archive is the eval cache as well, so the
store holds no ``evalcache`` directory.

The campaign's ``events.jsonl`` must hold a readable trace of both
daemons: every line parses except at most one torn by the kill, and the
``generation-end`` events give every generation once, in order, on the
uninterrupted best-raw curve. One generation may appear twice: the one
the kill interrupted after its events were written but before its
journal line was. A generation journaled without its events would show
up as a gap.

Usage::

    PYTHONPATH=src python benchmarks/smoke_resume.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.queries import load_dataset
from repro.service import CampaignSpec, ServiceClient
from repro.service.campaign import build_search, query_space

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SPEC = CampaignSpec(query="noc-frequency", generations=600, seed=7)
#: Generations the first daemon must complete before it is killed.
KILL_AFTER = 60


def _start_daemon(store: Path) -> tuple[subprocess.Popen, ServiceClient]:
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    process = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--dir", str(store), "--port", "0", "--eval-cache", "--archive",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + 60.0
    for line in process.stdout:
        match = re.search(r"serving on http://([\d.]+):(\d+)", line)
        if match:
            client = ServiceClient(match.group(1), int(match.group(2)))
            while not client.healthy():
                if time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            else:
                return process, client
        if time.monotonic() > deadline:
            break
    process.kill()
    raise AssertionError("daemon never came up")


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(15.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(10.0)


def _check_event_log(path: Path, ref_curve: list[tuple[int, float]]) -> str:
    """Check the event log a kill and a restart leave (see the module
    docstring); returns a one-line summary."""
    torn = 0
    ends: list[tuple[int, float]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            event = json.loads(line)
        except ValueError:
            torn += 1
            continue
        if event.get("kind") == "generation-end":
            ends.append((event["generation"], event["best_raw"]))
    assert torn <= 1, f"{torn} unparsable lines in the event log"
    repeated = [i for i in range(1, len(ends)) if ends[i][0] == ends[i - 1][0]]
    assert len(repeated) <= 1, (
        f"generations {[ends[i][0] for i in repeated]} appear twice"
    )
    assert all(ends[i] == ends[i - 1] for i in repeated), (
        "a repeated generation-end differs from the first"
    )
    unique = [end for i, end in enumerate(ends) if i not in repeated]
    assert unique == ref_curve, "event-log best-raw curve drifted"
    return (
        f"{len(unique)} generations, {len(repeated)} repeated, "
        f"{torn} torn line(s)"
    )


def _check_archive(store: Path, cid: str, line: bytes) -> str:
    """Check that every memo row of the compacted journal ``line`` is
    archived under ``cid`` (see the module docstring); returns a one-line
    summary."""
    archived: dict[tuple, dict] = {}
    for path in sorted((store / "archive").glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            next(fh, None)  # the header
            for text in fh:
                try:
                    row = json.loads(text)
                except ValueError:
                    continue  # a line the kill tore; readers skip it too
                archived.setdefault(tuple(row["values"]), row)
    rows = json.loads(line)["cache"]
    missing = [
        row["values"] for row in rows
        if archived.get(tuple(row["values"]), {}).get("campaign") != cid
    ]
    assert not missing, (
        f"{len(missing)} of {len(rows)} journal rows not archived under "
        f"{cid}, e.g. {missing[:3]}"
    )
    differ = [
        row["values"] for row in rows
        if archived[tuple(row["values"])]["metrics"] != row["metrics"]
    ]
    assert not differ, f"archived metrics differ for {differ[:3]}"
    return f"{len(rows)} journal rows archived under {cid}"


def main() -> int:
    reference = build_search(SPEC, load_dataset(query_space(SPEC))).run()
    ref_curve = [(r.generation, r.best_raw) for r in reference.records]
    print(
        f"  uninterrupted: best={reference.best_raw:.6g} "
        f"distinct={reference.distinct_evaluations}"
    )

    with tempfile.TemporaryDirectory() as root:
        store = Path(root) / "campaigns"
        daemon, client = _start_daemon(store)
        try:
            cid = client.submit(SPEC)
            deadline = time.monotonic() + 120.0
            while True:
                status = client.status(cid)
                assert status["state"] != "done", (
                    "campaign finished before the kill; lengthen it"
                )
                if status["generations_done"] >= KILL_AFTER:
                    break
                assert time.monotonic() < deadline, "campaign never got going"
                time.sleep(0.01)
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.wait(10.0)
        finally:
            _stop(daemon)
        journal = store / cid / "checkpoint.json"
        killed_lines = len(journal.read_bytes().splitlines())
        assert killed_lines > 1, "a running campaign keeps a journal"
        print(
            f"  killed at generation >= {status['generations_done']}; "
            f"journal holds {killed_lines} lines"
        )

        daemon, client = _start_daemon(store)
        try:
            final = client.wait(cid, timeout=300.0)
            curve = client.curve(cid)
        finally:
            _stop(daemon)

        assert final["state"] == "done", final
        assert final["best_raw"] == reference.best_raw, (
            final["best_raw"], reference.best_raw
        )
        assert final["best_config"] == reference.best_config
        assert [(r["generation"], r["best_raw"]) for r in curve] == ref_curve, (
            "resumed best-raw curve drifted"
        )
        assert final["distinct_evaluations"] <= reference.distinct_evaluations, (
            f"resume re-paid evaluations: {final['distinct_evaluations']} > "
            f"{reference.distinct_evaluations}"
        )
        events = _check_event_log(store / cid / "events.jsonl", ref_curve)
        leftovers = sorted(str(p) for p in store.rglob("*.tmp"))
        assert not leftovers, f"temp files left behind: {leftovers}"
        assert not (store / "evalcache").exists(), (
            "the eval cache is the archive's store; no evalcache directory"
        )
        lines = journal.read_bytes().splitlines()
        assert len(lines) == 1, f"finished journal has {len(lines)} lines"
        archived = _check_archive(store, cid, lines[0])
        print(
            f"  resumed:       best={final['best_raw']:.6g} "
            f"distinct={final['distinct_evaluations']}"
        )
        print(f"  event log:     {events}")
        print(f"  archive:       {archived}")
    print("  ok: SIGKILLed daemon resumed onto the uninterrupted curve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
