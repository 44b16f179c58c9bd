"""ServiceMetrics under concurrency: hammered from many threads, exact totals.

The daemon updates metrics from the scheduler thread while HTTP handler
threads snapshot them; the registry additionally takes updates from
evaluation-stack worker threads. These tests drive all of that from a
thread pool and demand *exact* counter totals — a lost update or a torn
snapshot is a bug, not noise.
"""

import threading

from repro.core import EvalStats
from repro.obs import parse_prometheus
from repro.service import ServiceMetrics

THREADS = 8
STEPS = 200


def _delta() -> EvalStats:
    return EvalStats(
        requests=3, distinct=2, memo_hits=1,
        backend_time_s=0.001, wall_time_s=0.002,
    )


class TestConcurrentUpdates:
    def test_record_step_totals_are_exact(self):
        metrics = ServiceMetrics()
        barrier = threading.Barrier(THREADS)

        def worker(index: int) -> None:
            barrier.wait()
            for step in range(STEPS):
                metrics.record_step(f"c{index}", step + 1, _delta())

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snapshot = metrics.snapshot(
            {"id": f"c{index}", "generations_done": STEPS,
             "distinct_evaluations": 2 * STEPS}
            for index in range(THREADS)
        )
        total_steps = THREADS * STEPS
        assert snapshot["scheduler_steps"] == total_steps
        assert snapshot["evaluations_total"] == 2 * total_steps
        assert snapshot["evaluation_requests_total"] == 3 * total_steps
        assert snapshot["cache_hits_total"] == total_steps
        for index in range(THREADS):
            assert snapshot["campaign_generations"][f"c{index}"] == STEPS
        # The mirrored Prometheus counter agrees exactly.
        parsed = parse_prometheus(metrics.registry.render())
        samples = parsed["nautilus_scheduler_steps_total"]["samples"]
        assert samples[("nautilus_scheduler_steps_total", ())] == total_steps

    def test_concurrent_snapshots_are_consistent(self):
        metrics = ServiceMetrics()
        stop = threading.Event()
        torn: list[dict] = []

        def reader() -> None:
            while not stop.is_set():
                snap = metrics.snapshot()
                # Invariant at every instant: evaluations accumulate 2 per
                # step and requests 3 per step, so any torn read shows up
                # as a ratio break.
                if snap["evaluations_total"] * 3 != snap["evaluation_requests_total"] * 2:
                    torn.append(snap)

        def writer() -> None:
            for step in range(STEPS):
                metrics.record_step("c0", step + 1, _delta())

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [threading.Thread(target=writer) for _ in range(4)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not torn
        assert metrics.snapshot()["scheduler_steps"] == 4 * STEPS

    def test_record_operators_and_state_race(self):
        metrics = ServiceMetrics()
        barrier = threading.Barrier(THREADS)

        def worker(index: int) -> None:
            barrier.wait()
            cid = f"c{index}"
            for step in range(STEPS):
                metrics.record_state(cid, "running")
                metrics.record_operators(
                    cid, {"mutation": {"calls": step + 1, "time_s": 0.1}}
                )
            metrics.record_state(cid, "done")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snapshot = metrics.snapshot()
        assert snapshot["campaign_states"] == {"done": THREADS}
        # Latest-wins snapshot per campaign: the final write of each thread.
        assert snapshot["operator_calls"]["mutation"] == THREADS * STEPS
        states = metrics.registry.gauge(
            "nautilus_campaign_states", labelnames=("state",)
        )
        assert states.value(state="done") == THREADS
        assert states.value(state="running") == 0

    def test_best_score_gauge_latest_wins(self):
        metrics = ServiceMetrics()

        def worker(value: float) -> None:
            metrics.record_step("c0", 1, _delta(), best_score=value)

        threads = [
            threading.Thread(target=worker, args=(float(i),)) for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        best = metrics.registry.gauge(
            "nautilus_search_best_score", labelnames=("campaign",)
        )
        # Some thread's write wins — one of the values, not garbage.
        assert best.value(campaign="c0") in {float(i) for i in range(16)}


class TestCampaignMaps:
    def test_read_from_the_status_payloads(self):
        """Per-campaign evaluations, generations, best score and health come
        from the statuses handed to the snapshot; ServiceMetrics keeps no
        copy."""
        metrics = ServiceMetrics()
        metrics.record_step("c1", 3, _delta(), best_score=5.0)
        statuses = [
            {
                "id": "c1", "generations_done": 4, "distinct_evaluations": 83,
                "best_score": 7.0, "health": {"stall_risk": 0.25},
            },
            {
                "id": "c2", "generations_done": 0, "distinct_evaluations": 0,
                "best_score": float("nan"),
            },
            {"id": "c3", "state": "queued", "generations_done": 0},
        ]
        snapshot = metrics.snapshot(statuses)
        assert snapshot["campaign_evaluations"] == {"c1": 83, "c2": 0}
        assert snapshot["campaign_generations"] == {"c1": 4, "c2": 0}
        assert snapshot["campaign_best_score"] == {"c1": 7.0}  # NaN skipped
        assert snapshot["campaign_health"] == {"c1": {"stall_risk": 0.25}}
        empty = metrics.snapshot()
        assert empty["campaign_evaluations"] == {}
        assert empty["campaign_generations"] == {}
        assert empty["campaign_best_score"] == {}
        assert empty["campaign_health"] == {}
