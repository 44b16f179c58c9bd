"""Span-context propagation through the fleet protocol (v2).

Covers the coordinator's per-task event timelines (dispatch / retry /
done / duplicate, delivered as offsets relative to batch submission),
the version handshake, the stack's trace-context seam, and the
per-worker metric pruning on deregistration.
"""

from __future__ import annotations

import threading
import time

from repro.core import CallableEvaluator
from repro.core.evalstack import EvaluationStack
from repro.distributed import (
    FleetCoordinator,
    FleetWorker,
    RetryPolicy,
    task_payload,
)
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    connect_stream,
    read_message,
    send_message,
)
from repro.obs import MetricsRegistry

from .conftest import (
    TINY_FP,
    start_worker,
    tiny_metrics,
    tiny_provider,
    tiny_space,
)
from .test_fleet import _genomes

TRACE_CTX = {"trace": "trace-test-1", "parent": "s000042"}


def _register(coordinator, version: int, worker: str):
    """Send one ``register`` frame; return the coordinator's reply (None
    when it closed the connection)."""
    sock, rfile = connect_stream(coordinator.host, coordinator.port)
    try:
        send_message(
            sock,
            {"type": "register", "version": version, "worker": worker,
             "spaces": ["tiny"], "slots": 1},
        )
        return read_message(rfile)
    finally:
        rfile.close()
        sock.close()


class TestProtocolVersions:
    def test_v2_is_current(self):
        assert PROTOCOL_VERSION == 2

    def test_coordinator_welcomes_current_version(self, coordinator):
        welcome = _register(coordinator, PROTOCOL_VERSION, "probe")
        assert welcome["type"] == "welcome"
        assert welcome["version"] == PROTOCOL_VERSION

    def test_version_1_is_rejected(self, coordinator):
        # Workers and coordinator ship in one package: no older peer.
        assert _register(coordinator, 1, "old") is None  # connection closed

    def test_unknown_version_is_rejected(self, coordinator):
        assert _register(coordinator, 99, "future") is None  # connection closed


class _UntimedWorker(FleetWorker):
    """A worker whose result frames carry no trace echo and no timing
    fields: outside input the coordinator must tolerate."""

    def _serve_batch(self, message, executor):
        results = []
        for task in message.get("tasks") or []:
            fragment = self._run_task(task)
            fragment.pop("exec_s", None)
            fragment.pop("queue_s", None)
            results.append(fragment)
        self.batches_served += 1
        self.tasks_served += len(results)
        self._send(
            {
                "type": "result",
                "batch": message.get("batch"),
                "worker": self.name,
                "results": results,
            }
        )


class TestTaskTraces:
    def test_traced_batch_delivers_event_timelines(self, coordinator):
        handle = start_worker(coordinator, "w1")
        payloads = [task_payload(g, TINY_FP) for g in _genomes(tiny_space(), 4)]
        outcomes = coordinator.submit_batch(payloads, trace=dict(TRACE_CTX))
        assert set(outcomes) == {p["id"] for p in payloads}
        for payload in payloads:
            trace = outcomes[payload["id"]]["trace"]
            assert trace["task"] == payload["id"]
            assert trace["worker"] == "w1"
            assert trace["attempts"] == 1
            assert trace["duplicates"] == 0
            kinds = [event["event"] for event in trace["events"]]
            assert kinds == ["dispatch", "done"]
            offsets = [event["offset_s"] for event in trace["events"]]
            assert offsets == sorted(offsets)
            assert all(offset >= 0 for offset in offsets)
            done = trace["events"][-1]
            assert done["exec_s"] >= 0
            assert done["queue_s"] >= 0
        handle.stop()

    def test_untraced_batch_carries_no_trace(self, coordinator):
        handle = start_worker(coordinator, "w1")
        payloads = [task_payload(g, TINY_FP) for g in _genomes(tiny_space(), 2)]
        outcomes = coordinator.submit_batch(payloads)
        assert all("trace" not in o for o in outcomes.values())
        handle.stop()

    def test_v1_worker_serves_traced_batches(self, coordinator):
        # A worker that neither echoes the span context nor reports timing
        # (as protocol v1 did) still completes the batch; the
        # coordinator's own event log fills the trace (exec/queue 0).
        worker = _UntimedWorker(
            coordinator.host, coordinator.port, spaces=["tiny"], name="old",
            evaluator_provider=tiny_provider(),
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while "old" not in coordinator.workers:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        genomes = _genomes(tiny_space(), 3)
        payloads = [task_payload(g, TINY_FP) for g in genomes]
        outcomes = coordinator.submit_batch(payloads, trace=dict(TRACE_CTX))
        for payload, genome in zip(payloads, genomes):
            outcome = outcomes[payload["id"]]
            assert outcome["metrics"] == tiny_metrics(genome)
            trace = outcome["trace"]
            assert [e["event"] for e in trace["events"]] == ["dispatch", "done"]
            assert trace["events"][-1]["exec_s"] == 0.0
        worker.stop()
        thread.join(5.0)

    def test_timeout_retries_attach_to_the_task_timeline(self):
        coordinator = FleetCoordinator(
            policy=RetryPolicy(
                task_timeout_s=0.1,
                backoff_base_s=0.01,
                backoff_max_s=0.02,
                heartbeat_interval_s=0.1,
                heartbeat_timeout_s=5.0,
            )
        ).start()
        try:
            handle = start_worker(coordinator, "slow", delay_s=0.3)
            payloads = [
                task_payload(g, TINY_FP) for g in _genomes(tiny_space(), 1)
            ]
            outcomes = coordinator.submit_batch(payloads, trace=dict(TRACE_CTX))
            (trace,) = [o["trace"] for o in outcomes.values()]
            kinds = [event["event"] for event in trace["events"]]
            assert kinds[0] == "dispatch"
            retries = [
                e for e in trace["events"] if e["event"] == "retry"
            ]
            assert retries, "a timed-out attempt must log a retry event"
            assert all(e["reason"] == "timeout" for e in retries)
            assert trace["attempts"] >= 2
            # The late first result and the retried one race; either way
            # exactly one timeline owns the task.
            assert kinds.count("done") == 1
            handle.stop()
        finally:
            coordinator.stop()


class TestStackSeam:
    def test_push_context_pop_traces_round_trip(self, coordinator):
        handle = start_worker(coordinator, "w1")
        evaluator = CallableEvaluator(tiny_metrics)
        evaluator.fingerprint = TINY_FP
        stack = EvaluationStack(evaluator, backend="fleet", fleet=coordinator)
        stack.push_trace_context(dict(TRACE_CTX))
        genomes = _genomes(tiny_space(), 3)
        stack.evaluate_many(genomes)
        traces = stack.pop_task_traces()
        assert len(traces) == 3
        assert all(t["worker"] == "w1" for t in traces)
        assert stack.pop_task_traces() == []  # drained
        # The context is consumed by its batch, not sticky.
        stack.evaluate_many(_genomes(tiny_space(), 5)[3:])
        assert stack.pop_task_traces() == []
        handle.stop()

    def test_inline_stack_seam_is_inert(self):
        stack = EvaluationStack(CallableEvaluator(tiny_metrics))
        stack.push_trace_context(dict(TRACE_CTX))  # no-op, no error
        stack.evaluate_many(_genomes(tiny_space(), 2))
        assert stack.pop_task_traces() == []


class TestMetricPruning:
    def test_departed_worker_series_are_removed(self):
        registry = MetricsRegistry()
        coordinator = FleetCoordinator(
            policy=RetryPolicy(heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.5),
            registry=registry,
        ).start()
        try:
            handle = start_worker(coordinator, "w1")
            payloads = [
                task_payload(g, TINY_FP) for g in _genomes(tiny_space(), 3)
            ]
            coordinator.submit_batch(payloads)
            assert 'worker="w1"' in registry.render()
            handle.stop()
            deadline = time.monotonic() + 5.0
            while 'worker="w1"' in registry.render():
                assert time.monotonic() < deadline, (
                    "per-worker series must be pruned when the worker drops"
                )
                time.sleep(0.02)
        finally:
            coordinator.stop()


class TestAnnotationMerge:
    """Satellite: pop_annotations merge semantics on the fleet stack."""

    def test_merges_across_consecutive_batches_without_pop(self, coordinator):
        handle = start_worker(coordinator, "w1")
        evaluator = CallableEvaluator(tiny_metrics)
        evaluator.fingerprint = TINY_FP
        stack = EvaluationStack(evaluator, backend="fleet", fleet=coordinator)
        genomes = _genomes(tiny_space(), 5)
        stack.evaluate_many(genomes[:3])
        stack.evaluate_many(genomes[3:])
        assert stack.pop_annotations() == {"workers": {"w1": 5}}
        assert stack.pop_annotations() is None
        handle.stop()

    def test_merges_fleet_and_local_attribution(self, coordinator):
        evaluator = CallableEvaluator(tiny_metrics)
        evaluator.fingerprint = TINY_FP
        stack = EvaluationStack(evaluator, backend="fleet", fleet=coordinator)
        genomes = _genomes(tiny_space(), 6)
        handle = start_worker(coordinator, "w1")
        stack.evaluate_many(genomes[:4])
        handle.stop()
        deadline = time.monotonic() + 5.0
        while coordinator.has_worker_for("tiny"):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        stack.evaluate_many(genomes[4:])  # empty fleet -> local fallback
        assert stack.pop_annotations() == {
            "workers": {"w1": 4, "local": 2}
        }

    def test_memo_hits_do_not_inflate_attribution(self, coordinator):
        handle = start_worker(coordinator, "w1")
        evaluator = CallableEvaluator(tiny_metrics)
        evaluator.fingerprint = TINY_FP
        stack = EvaluationStack(evaluator, backend="fleet", fleet=coordinator)
        genomes = _genomes(tiny_space(), 2)
        stack.evaluate_many(genomes)
        stack.evaluate_many(genomes)  # all memo hits, nothing dispatched
        assert stack.pop_annotations() == {"workers": {"w1": 2}}
        handle.stop()
