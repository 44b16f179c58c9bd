"""Tests for the layered evaluation stack and the persistent cache."""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.archive import DesignArchive
from repro.core import (
    CallableEvaluator,
    DesignSpace,
    EvalStats,
    EvaluationStack,
    GAConfig,
    GeneticSearch,
    InfeasibleDesignError,
    IntParam,
    NautilusError,
    PersistentCache,
    evaluator_fingerprint,
    maximize,
)


@pytest.fixture
def space():
    return DesignSpace("stk", [IntParam("a", 0, 99)])


def counting_evaluator(calls):
    return CallableEvaluator(lambda g: calls.append(g["a"]) or {"m": float(g["a"])})


class TestAccounting:
    def test_invariant_across_hit_kinds(self, space, tmp_path):
        calls = []
        cache = PersistentCache(tmp_path)
        first = EvaluationStack(
            counting_evaluator(calls), persistent=cache, fingerprint="fp"
        )
        first.evaluate_many([space.genome(a=1), space.genome(a=2)])
        second = EvaluationStack(
            counting_evaluator(calls), persistent=cache, fingerprint="fp"
        )
        g3 = space.genome(a=3)
        second.evaluate_many([space.genome(a=1), g3, g3, space.genome(a=3)])
        second.evaluate(space.genome(a=3))
        stats = second.stats()
        assert stats.requests == 5
        assert stats.distinct == 1  # only a=3 was paid for here
        assert stats.persistent_hits == 1  # a=1 came from disk
        assert stats.batch_dedup_hits == 2  # the two extra a=3 in the batch
        assert stats.memo_hits == 1  # the follow-up a=3
        assert stats.requests == (
            stats.distinct
            + stats.memo_hits
            + stats.persistent_hits
            + stats.batch_dedup_hits
        )
        assert second.cache_hits == stats.requests - stats.distinct
        assert calls == [1, 2, 3]

    def test_batch_and_timing_counters(self, space):
        ticks = iter(range(100))
        stack = EvaluationStack(
            CallableEvaluator(lambda g: {"m": 1.0}), clock=lambda: next(ticks)
        )
        stack.evaluate_many([space.genome(a=i) for i in range(3)])
        stack.evaluate(space.genome(a=9))
        stats = stack.stats()
        assert stats.batches == 2
        assert stats.max_batch == 3
        assert stats.mean_batch == 2.0
        assert stats.backend_time_s > 0
        assert stats.wall_time_s >= stats.backend_time_s

    def test_stats_minus(self):
        a = EvalStats(requests=10, distinct=4, memo_hits=6, batches=2, max_batch=5)
        b = EvalStats(requests=4, distinct=2, memo_hits=2, batches=1, max_batch=5)
        delta = a.minus(b)
        assert delta.requests == 6
        assert delta.distinct == 2
        assert delta.cache_hits == 4
        assert delta.max_batch == 5  # a max, not a difference
        payload = delta.as_dict()
        assert payload["hit_rate"] == delta.hit_rate
        assert json.dumps(payload)  # JSON-ready

    def test_fields_and_count_order_are_pinned(self):
        """Journal lines carry ``counts()`` in this order."""
        assert EvalStats._fields == (
            "requests",
            "distinct",
            "memo_hits",
            "persistent_hits",
            "batch_dedup_hits",
            "batches",
            "max_batch",
            "infeasible",
            "errors",
            "backend_time_s",
            "wall_time_s",
        )
        stats = EvalStats(*range(9), 0.5, 1.5)
        assert list(stats.counts().items()) == list(
            zip(EvalStats._fields[:9], range(9))
        )
        assert EvalStats(errors=2) == EvalStats(0, 0, 0, 0, 0, 0, 0, 0, 2)
        assert list(stats.as_dict())[:11] == list(EvalStats._fields)

    def test_minus_keeps_max_batch(self):
        late = EvalStats(requests=9, max_batch=3, backend_time_s=2.5)
        early = EvalStats(requests=4, max_batch=7, backend_time_s=1.0)
        delta = late.minus(early)
        assert delta == EvalStats(requests=5, max_batch=3, backend_time_s=1.5)
        assert isinstance(delta, EvalStats)

    def test_infeasible_and_error_counters(self, space):
        def fn(genome):
            if genome["a"] == 0:
                raise InfeasibleDesignError("bad")
            if genome["a"] == 1:
                raise RuntimeError("boom")
            return {"m": 1.0}

        stack = EvaluationStack(CallableEvaluator(fn))
        outcomes = stack.evaluate_many([space.genome(a=i) for i in range(3)])
        assert isinstance(outcomes[0], InfeasibleDesignError)
        assert isinstance(outcomes[1], RuntimeError)
        assert outcomes[2] == {"m": 1.0}
        assert stack.stats().infeasible == 1
        assert stack.stats().errors == 1


class TestConstruction:
    def test_wrap_passes_stacks_through(self, space):
        stack = EvaluationStack(CallableEvaluator(lambda g: {"m": 1.0}))
        assert EvaluationStack.wrap(stack) is stack

    def test_no_stacking_stacks(self):
        stack = EvaluationStack(CallableEvaluator(lambda g: {"m": 1.0}))
        with pytest.raises(NautilusError):
            EvaluationStack(stack)

    def test_bad_backend_and_workers(self):
        inner = CallableEvaluator(lambda g: {"m": 1.0})
        with pytest.raises(NautilusError):
            EvaluationStack(inner, backend="gpu")
        with pytest.raises(NautilusError):
            EvaluationStack(inner, backend="process")
        with pytest.raises(NautilusError):
            EvaluationStack(inner, backend="thread", workers=0)

    def test_thread_backend_preserves_order(self, space):
        stack = EvaluationStack(
            CallableEvaluator(lambda g: {"m": float(g["a"])}),
            backend="thread",
            workers=4,
        )
        genomes = [space.genome(a=i) for i in range(16)]
        assert stack.evaluate_many(genomes) == [{"m": float(i)} for i in range(16)]
        assert stack.distinct_evaluations == 16

    def test_one_design_batch_runs_on_the_calling_thread(self, space):
        threads = []

        def fn(genome):
            threads.append(threading.get_ident())
            if genome["a"] == 0:
                raise InfeasibleDesignError("bad")
            return {"m": 1.0}

        stack = EvaluationStack(CallableEvaluator(fn), backend="thread", workers=4)
        assert stack.evaluate_many([space.genome(a=1)]) == [{"m": 1.0}]
        assert threads == [threading.get_ident()]
        # Its exception is captured in place, as on the pool.
        (outcome,) = stack.evaluate_many([space.genome(a=0)])
        assert isinstance(outcome, InfeasibleDesignError)
        assert stack.stats().infeasible == 1
        threads.clear()
        # A larger batch is worked by the calling thread alongside the
        # pool, so its designs may run on either.
        stack.evaluate_many([space.genome(a=2), space.genome(a=3)])
        assert len(threads) == 2

    def test_given_executor_is_used_and_left_open(self, space):
        names = []
        asked = []

        class Shared(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                asked.append(fn)
                return super().submit(fn, *args, **kwargs)

        def fn(genome):
            names.append(threading.current_thread().name)
            return {"m": float(genome["a"])}

        caller = threading.current_thread().name
        with Shared(2, thread_name_prefix="shared") as pool:
            stack = EvaluationStack(
                CallableEvaluator(fn), backend="thread", workers=2, executor=pool
            )
            genomes = [space.genome(a=i) for i in range(8)]
            assert stack.evaluate_many(genomes) == [
                {"m": float(i)} for i in range(8)
            ]
            # The batch asked the given pool for its one helper; designs
            # ran there or on the calling thread.
            assert len(asked) == 1
            assert len(names) == 8
            assert all(
                name.startswith("shared") or name == caller for name in names
            )
            assert pool.submit(int, "7").result(timeout=10) == 7  # still open

    def test_fingerprint_defaults(self):
        inner = CallableEvaluator(lambda g: {"m": 1.0})
        assert evaluator_fingerprint(inner).endswith("CallableEvaluator")
        stack = EvaluationStack(inner, fingerprint="override")
        assert stack.fingerprint == "override"

    def test_fingerprint_is_computed_on_first_read(self, space, monkeypatch):
        from repro.core import DatasetEvaluator
        from repro.dataset import Dataset

        dataset = Dataset("d", space)
        for a in range(100):
            dataset.record({"a": a}, {"m": float(a % 17)})
        hashed = []
        content_fingerprint = Dataset.content_fingerprint

        def counting(self):
            hashed.append(self)
            return content_fingerprint(self)

        monkeypatch.setattr(Dataset, "content_fingerprint", counting)
        inner = DatasetEvaluator(dataset)
        stack = EvaluationStack(inner)
        GeneticSearch(
            space,
            stack,
            maximize("m"),
            GAConfig(population_size=6, generations=4, seed=3),
        ).run()
        stack.evaluate_many([space.genome(a=a) for a in range(10)])
        # No persistent cache, archive or fleet: nothing read the hash.
        assert hashed == []
        assert stack.fingerprint == evaluator_fingerprint(inner)
        assert hashed


class TestPoolBackends:
    """``backend="thread"``: a batch fans out to a thread pool, results
    come back in submission order, and one design's exception is returned
    in its place without poisoning the batch."""

    def test_order_preserved(self, space):
        """Results follow submission order, not completion order: later
        designs sleep less, so they finish first."""

        def fn(genome):
            time.sleep(0.002 * (20 - genome["a"]))
            return {"m": float(genome["a"])}

        stack = EvaluationStack(CallableEvaluator(fn), backend="thread", workers=4)
        results = stack.evaluate_many([space.genome(a=i) for i in range(20)])
        assert [r["m"] for r in results] == [float(i) for i in range(20)]

    def test_single_passthrough(self, space):
        stack = EvaluationStack(
            CallableEvaluator(lambda g: {"m": float(g["a"])}),
            backend="thread",
            workers=4,
        )
        assert stack.evaluate(space.genome(a=3)) == {"m": 3.0}
        assert stack.distinct_evaluations == 1

    def test_validation(self):
        inner = CallableEvaluator(lambda g: {"m": 1.0})
        with pytest.raises(NautilusError):
            EvaluationStack(inner, backend="thread", workers=0)
        with pytest.raises(NautilusError):
            EvaluationStack(inner, backend="thread", workers=-1)

    def test_actually_concurrent(self, space):
        active = 0
        peak = 0
        lock = threading.Lock()

        def slow(genome):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.02)
            with lock:
                active -= 1
            return {"m": 1.0}

        stack = EvaluationStack(CallableEvaluator(slow), backend="thread", workers=8)
        stack.evaluate_many([space.genome(a=i) for i in range(16)])
        assert peak > 1  # overlapping evaluations observed

    def test_exception_isolation(self, space):
        def fn(genome):
            if genome["a"] % 2:
                raise InfeasibleDesignError("odd")
            return {"m": float(genome["a"])}

        stack = EvaluationStack(CallableEvaluator(fn), backend="thread", workers=4)
        results = stack.evaluate_many([space.genome(a=i) for i in range(6)])
        assert results[0] == {"m": 0.0}
        assert isinstance(results[1], InfeasibleDesignError)
        assert results[4] == {"m": 4.0}

    def test_empty_batch(self):
        stack = EvaluationStack(
            CallableEvaluator(lambda g: {"m": 1.0}), backend="thread", workers=2
        )
        assert stack.evaluate_many([]) == []

    def test_distinct_accounting(self, space):
        stack = EvaluationStack(
            CallableEvaluator(lambda g: {"m": float(g["a"])}),
            backend="thread",
            workers=4,
        )
        genomes = [space.genome(a=i % 3) for i in range(9)]  # 3 distinct
        stack.evaluate_many(genomes)
        assert stack.distinct_evaluations == 3
        assert stack.total_requests == 9
        # Second batch fully cached.
        stack.evaluate_many(genomes)
        assert stack.distinct_evaluations == 3

    def test_mixed_with_sequential(self, space):
        stack = EvaluationStack(
            CallableEvaluator(lambda g: {"m": float(g["a"])}),
            backend="thread",
            workers=4,
        )
        stack.evaluate(space.genome(a=1))
        stack.evaluate_many([space.genome(a=1), space.genome(a=2)])
        assert stack.distinct_evaluations == 2

    def test_blocked_executor_cannot_stall_a_batch(self, space):
        """The given executor's only thread is busy: the calling thread
        works the whole batch instead of waiting for it."""
        started, release = threading.Event(), threading.Event()
        done = []

        def block():
            started.set()
            release.wait(30)

        with ThreadPoolExecutor(1, thread_name_prefix="busy") as pool:
            pool.submit(block)
            try:
                assert started.wait(10)
                stack = EvaluationStack(
                    CallableEvaluator(lambda g: {"m": float(g["a"])}),
                    backend="thread",
                    workers=2,
                    executor=pool,
                )
                runner = threading.Thread(
                    target=lambda: done.append(
                        stack.evaluate_many([space.genome(a=i) for i in range(3)])
                    )
                )
                runner.start()
                runner.join(10)
                assert not runner.is_alive()
            finally:
                release.set()
        assert done == [[{"m": 0.0}, {"m": 1.0}, {"m": 2.0}]]

    def test_slow_batch_runs_on_the_caller_and_the_pool(self, space):
        """20 ms designs on a warm pool: the calling thread and pool
        threads both take designs, at most ``workers`` run at once, and
        outcomes (exceptions included) come back in submission order."""
        ran_on = {}
        active = 0
        peak = 0
        lock = threading.Lock()

        def slow(genome):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            ran_on[genome["a"]] = threading.get_ident()
            time.sleep(0.02)
            with lock:
                active -= 1
            if genome["a"] % 3 == 0:
                raise InfeasibleDesignError("multiple of three")
            return {"m": float(genome["a"])}

        with ThreadPoolExecutor(6) as pool:
            list(pool.map(time.sleep, [0.01] * 6))  # start the pool's threads
            stack = EvaluationStack(
                CallableEvaluator(slow), backend="thread", workers=4, executor=pool
            )
            results = stack.evaluate_many([space.genome(a=i) for i in range(12)])
        for i, outcome in enumerate(results):
            if i % 3 == 0:
                assert isinstance(outcome, InfeasibleDesignError)
            else:
                assert outcome == {"m": float(i)}
        caller = threading.get_ident()
        assert len(ran_on) == 12
        assert caller in ran_on.values()
        assert set(ran_on.values()) - {caller}
        assert 1 < peak <= 4
        assert stack.stats().infeasible == 4

    @pytest.mark.parametrize("on_helper", [True, False])
    def test_base_exception_propagates_promptly(self, space, on_helper):
        """A BaseException from the evaluator re-raises in the caller, on
        whichever thread it was raised, and no further design starts."""

        class Abort(BaseException):
            pass

        calls = []
        raised = []
        caller = []
        lock = threading.Lock()

        def fn(genome):
            calls.append(genome["a"])
            time.sleep(0.005)
            with lock:
                fire = not raised and (
                    threading.get_ident() != caller[0]
                ) == on_helper
                if fire:
                    raised.append(genome["a"])
            if fire:
                raise Abort()
            return {"m": float(genome["a"])}

        outcome = []

        def run():
            caller.append(threading.get_ident())
            try:
                stack.evaluate_many([space.genome(a=i) for i in range(60)])
            except Abort:
                outcome.append("raised")

        with ThreadPoolExecutor(4) as pool:
            stack = EvaluationStack(
                CallableEvaluator(fn), backend="thread", workers=4, executor=pool
            )
            runner = threading.Thread(target=run)
            runner.start()
            runner.join(10)
            assert not runner.is_alive()
        assert outcome == ["raised"]
        assert len(raised) == 1
        assert len(calls) < 60  # the queue stopped

    def test_parallel_engine_matches_serial(self, space):
        """Pool evaluation must not change search results at all."""
        evaluator = CallableEvaluator(lambda g: {"m": float(g["a"])})
        objective = maximize("m")
        config = GAConfig(seed=9, generations=12)
        serial = GeneticSearch(space, evaluator, objective, config).run()
        parallel = GeneticSearch(
            space,
            EvaluationStack(evaluator, backend="thread", workers=4),
            objective,
            config,
        ).run()
        assert serial.best_config == parallel.best_config
        assert serial.curve() == parallel.curve()


class TestMemoTransfer:
    def test_preload_and_memo_items(self, space):
        calls = []
        stack = EvaluationStack(counting_evaluator(calls))
        # a=2 is a restored infeasible row.
        stack.preload([(space.genome(a=1), {"m": 1.0}), (space.genome(a=2), None)])
        assert stack.evaluate(space.genome(a=1)) == {"m": 1.0}
        with pytest.raises(InfeasibleDesignError):
            stack.evaluate(space.genome(a=2))
        assert calls == []  # everything came from the preloaded memo
        keys = {key for key, _ in stack.memo_items()}
        assert keys == {space.genome(a=1).key, space.genome(a=2).key}

    def test_preload_without_charge(self, space):
        """Preloading never charges; a resume restores the counters."""
        stack = EvaluationStack(CallableEvaluator(lambda g: {"m": 1.0}))
        stack.preload([(space.genome(a=1), {"m": 1.0})])
        assert stack.stats().counts() == EvalStats().counts()
        stack.restore_counts(
            {"requests": 5, "distinct": 3, "memo_hits": 2, "wall_time_s": 9.0}
        )
        stats = stack.stats()
        assert (stats.requests, stats.distinct, stats.memo_hits) == (5, 3, 2)
        assert stats.wall_time_s == 0.0  # timers measure this process

    def test_preload_records_rows_in_the_archive(self, space, tmp_path):
        """Restored rows never cross the store layer, so preload records
        them itself, under the stack's campaign, without charging them."""
        stack = EvaluationStack(
            CallableEvaluator(lambda g: {"m": 0.0}),
            archive=DesignArchive(tmp_path),
            campaign="c7",
            fingerprint="fp",
        )
        stack.preload([(space.genome(a=1), {"m": 1.0}), (space.genome(a=2), None)])
        (path,) = tmp_path.glob("*.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert rows == [
            {"values": [1], "metrics": {"m": 1.0}, "campaign": "c7"},
            {"values": [2], "metrics": None, "campaign": "c7"},
        ]
        assert DesignArchive(tmp_path).entries(space, "fp") == 2
        assert stack.stats().counts() == EvalStats().counts()

    def test_memo_items_from_watermark(self, space):
        stack = EvaluationStack(CallableEvaluator(lambda g: {"m": float(g["a"])}))
        stack.evaluate_many([space.genome(a=a) for a in (3, 1, 2)])
        tail = [key for key, __ in stack.memo_items(1)]
        assert tail == [space.genome(a=1).key, space.genome(a=2).key]


class TestPersistentCache:
    def test_file_format(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        stack = EvaluationStack(
            CallableEvaluator(
                lambda g: (_ for _ in ()).throw(InfeasibleDesignError("bad"))
                if g["a"] == 2
                else {"m": float(g["a"])}
            ),
            persistent=cache,
            fingerprint="fp1",
            campaign="c1",
        )
        stack.evaluate_many([space.genome(a=1), space.genome(a=2)])
        files = list(tmp_path.glob("stk-*.jsonl"))
        assert len(files) == 1
        lines = [json.loads(l) for l in files[0].read_text().splitlines()]
        assert lines[0] == {"space": "stk", "params": ["a"], "fingerprint": "fp1"}
        # Rows carry the campaign that paid for them.
        assert {"values": [1], "metrics": {"m": 1.0}, "campaign": "c1"} in lines[1:]
        assert {"values": [2], "metrics": None, "campaign": "c1"} in lines[1:]

    def test_shared_across_stacks_and_infeasible_replay(self, space, tmp_path):
        calls = []
        cache = PersistentCache(tmp_path)

        def fn(genome):
            calls.append(genome["a"])
            if genome["a"] == 2:
                raise InfeasibleDesignError("bad")
            return {"m": float(genome["a"])}

        first = EvaluationStack(
            CallableEvaluator(fn), persistent=cache, fingerprint="fp"
        )
        first.evaluate_many([space.genome(a=1), space.genome(a=2)])
        # A different process would build a fresh PersistentCache over the
        # same directory: everything must come back from disk.
        second = EvaluationStack(
            CallableEvaluator(fn),
            persistent=PersistentCache(tmp_path),
            fingerprint="fp",
        )
        assert second.evaluate(space.genome(a=1)) == {"m": 1.0}
        with pytest.raises(InfeasibleDesignError):
            second.evaluate(space.genome(a=2))
        assert second.distinct_evaluations == 0
        assert second.stats().persistent_hits == 2
        assert calls == [1, 2]  # never re-paid

    def test_transient_errors_not_persisted(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        attempts = []

        def flaky(genome):
            attempts.append(genome["a"])
            raise RuntimeError("tool crashed")

        stack = EvaluationStack(
            CallableEvaluator(flaky), persistent=cache, fingerprint="fp"
        )
        assert isinstance(
            stack.evaluate_many([space.genome(a=1)])[0], RuntimeError
        )
        retry = EvaluationStack(
            CallableEvaluator(lambda g: {"m": 1.0}),
            persistent=PersistentCache(tmp_path),
            fingerprint="fp",
        )
        assert retry.evaluate(space.genome(a=1)) == {"m": 1.0}
        assert attempts == [1]

    def test_torn_trailing_line_is_skipped(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        stack = EvaluationStack(
            CallableEvaluator(lambda g: {"m": float(g["a"])}),
            persistent=cache,
            fingerprint="fp",
        )
        stack.evaluate(space.genome(a=1))
        path = next(tmp_path.glob("stk-*.jsonl"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"values": [2], "met')  # killed mid-write
        calls = []
        recovered = EvaluationStack(
            counting_evaluator(calls),
            persistent=PersistentCache(tmp_path),
            fingerprint="fp",
        )
        assert recovered.evaluate(space.genome(a=1)) == {"m": 1.0}
        assert recovered.evaluate(space.genome(a=2)) == {"m": 2.0}
        assert calls == [2]  # the torn row is re-evaluated, the intact one not
        # The row appended after the torn one is on a line of its own, so
        # the next process finds it instead of paying for it again.
        after_restart = EvaluationStack(
            counting_evaluator(calls),
            persistent=PersistentCache(tmp_path),
            fingerprint="fp",
        )
        assert after_restart.evaluate(space.genome(a=2)) == {"m": 2.0}
        assert calls == [2]

    def test_a_row_that_fails_to_encode_is_not_cached(self, space, tmp_path):
        """Rows enter the index only once their line is written."""
        cache = PersistentCache(tmp_path)
        genome = space.genome(a=4)
        with pytest.raises(TypeError):
            cache.put_many([(genome, {"m": np.float32(1.5)})], "fp")
        assert cache.get(genome, "fp") == (False, None)
        assert cache.entries(space, "fp") == 0
        assert cache.put_many([(genome, {"m": 1.5})], "fp") == 1
        assert PersistentCache(tmp_path).get(genome, "fp") == (True, {"m": 1.5})

    def test_empty_file_gets_its_header(self, space, tmp_path):
        """A file left empty (killed between open and flush) is not a
        headerless file forever."""
        cache = PersistentCache(tmp_path)
        cache._path("stk", "fp").touch()
        cache.put_many([(space.genome(a=1), {"m": 1.0})], "fp")
        calls = []
        reloaded = EvaluationStack(
            counting_evaluator(calls),
            persistent=PersistentCache(tmp_path),
            fingerprint="fp",
        )
        assert reloaded.evaluate(space.genome(a=1)) == {"m": 1.0}
        assert calls == []

    def test_torn_header_gets_a_header_after_it(self, space, tmp_path):
        """A writer killed inside a new file's header leaves no complete
        line; the next append writes the header on a line of its own."""
        cache = PersistentCache(tmp_path)
        path = cache._path("stk", "fp")
        path.write_text('{"space": "stk", "par')
        assert cache.put_many([(space.genome(a=1), {"m": 1.0})], "fp") == 1
        lines = path.read_text().splitlines()
        assert lines[0] == '{"space": "stk", "par'
        assert json.loads(lines[1]) == {
            "space": "stk", "params": ["a"], "fingerprint": "fp",
        }
        assert json.loads(lines[2])["values"] == [1]
        fresh = PersistentCache(tmp_path)
        assert fresh.get(space.genome(a=1), "fp") == (True, {"m": 1.0})
        assert fresh.put_many([(space.genome(a=2), {"m": 2.0})], "fp") == 1
        assert len(path.read_text().splitlines()) == 4  # one header only

    def test_rows_before_the_header_are_rows(self, space, tmp_path):
        """A file a torn header left headerless (rows written after it
        with no header) loads its rows instead of failing every lookup."""
        path = PersistentCache(tmp_path)._path("stk", "fp")
        path.write_text(
            '{"space": "stk", "par\n'
            '{"values": [1], "metrics": {"m": 1.0}, "campaign": "c1"}\n'
        )
        fresh = PersistentCache(tmp_path)
        assert fresh.get(space.genome(a=1), "fp") == (True, {"m": 1.0})
        assert fresh.entries(space, "fp") == 1

    def test_a_headerless_file_gets_its_header_at_the_first_put(
        self, space, tmp_path
    ):
        """A torn header followed by rows alone: the first put rewrites the
        file as compact() would with a header, so listings, compaction
        and imports see its rows."""
        cache = PersistentCache(tmp_path)
        path = cache._path("stk", "fp")
        path.write_text(
            '{"space": "stk", "par\n'
            '{"values": [1], "metrics": {"m": 1.0}, "campaign": "c1"}\n'
            '{"values": [1], "metrics": {"m": 9.0}, "campaign": "c2"}\n'
        )
        assert cache.files() == []
        assert cache.put_many([(space.genome(a=2), {"m": 2.0})], "fp", "c3") == 1
        assert cache.files() == [("stk", ("a",), "fp")]
        assert [json.loads(line) for line in path.read_text().splitlines()] == [
            {"space": "stk", "params": ["a"], "fingerprint": "fp"},
            {"values": [1], "metrics": {"m": 1.0}, "campaign": "c1"},
            {"values": [2], "metrics": {"m": 2.0}, "campaign": "c3"},
        ]
        report = PersistentCache(tmp_path).compact()
        assert report["files"][path.name] == {"rows": 2, "reclaimed": 0}
        fresh = PersistentCache(tmp_path)
        assert fresh.get(space.genome(a=1), "fp") == (True, {"m": 1.0})
        assert fresh.get(space.genome(a=2), "fp") == (True, {"m": 2.0})

    def test_a_torn_header_line_alone_gets_its_header_at_the_first_put(
        self, space, tmp_path
    ):
        """A torn header ended by a newline, with no rows after it (two
        kills in a row inside the header): the first put rewrites the file
        with its header, so it is listed, compacted and read like any."""
        cache = PersistentCache(tmp_path)
        path = cache._path("stk", "fp")
        path.write_text('{"space": "stk", "par\n')
        assert cache.put_many([(space.genome(a=1), {"m": 1.0})], "fp", "c1") == 1
        assert [json.loads(line) for line in path.read_text().splitlines()] == [
            {"space": "stk", "params": ["a"], "fingerprint": "fp"},
            {"values": [1], "metrics": {"m": 1.0}, "campaign": "c1"},
        ]
        assert cache.files() == [("stk", ("a",), "fp")]
        assert PersistentCache(tmp_path).files() == [("stk", ("a",), "fp")]
        report = PersistentCache(tmp_path).compact()
        assert report["files"][path.name] == {"rows": 1, "reclaimed": 0}
        fresh = PersistentCache(tmp_path)
        assert fresh.get(space.genome(a=1), "fp") == (True, {"m": 1.0})

    def test_files_lists_a_file_whose_header_follows_a_torn_line(
        self, space, tmp_path
    ):
        cache = PersistentCache(tmp_path)
        path = cache._path("stk", "fp")
        path.write_text(
            '{"space": "stk", "par\n'
            '{"space": "stk", "params": ["a"], "fingerprint": "fp"}\n'
            '{"values": [1], "metrics": {"m": 1.0}, "campaign": "c1"}\n'
        )
        assert cache.files() == [("stk", ("a",), "fp")]

    def test_stray_lines_are_skipped(self, space, tmp_path):
        """A line that parses to anything but a row never breaks a lookup."""
        cache = PersistentCache(tmp_path)
        cache.put_many([(space.genome(a=1), {"m": 1.0})], "fp")
        path = next(tmp_path.glob("stk-*.jsonl"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"metrics": {"m": 5.0}}\nnull\n[]\n')
            fh.write('{"values": [3], "metrics": 7}\n')
        fresh = PersistentCache(tmp_path)
        assert fresh.get(space.genome(a=1), "fp") == (True, {"m": 1.0})
        assert fresh.get(space.genome(a=3), "fp") == (False, None)
        assert fresh.entries(space, "fp") == 1
        assert fresh.put_many([(space.genome(a=3), {"m": 3.0})], "fp") == 1
        assert PersistentCache(tmp_path).compact()["reclaimed"] == 4

    def test_fingerprint_isolation(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        old = EvaluationStack(
            CallableEvaluator(lambda g: {"m": 1.0}),
            persistent=cache,
            fingerprint="v1",
        )
        old.evaluate(space.genome(a=1))
        fresh = EvaluationStack(
            CallableEvaluator(lambda g: {"m": 2.0}),
            persistent=cache,
            fingerprint="v2",
        )
        # Different fingerprint -> different file -> no stale metrics.
        assert fresh.evaluate(space.genome(a=1)) == {"m": 2.0}
        assert fresh.stats().persistent_hits == 0

    def test_concurrent_stacks_share_one_cache(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        errors = []

        def worker(offset):
            try:
                stack = EvaluationStack(
                    CallableEvaluator(lambda g: {"m": float(g["a"])}),
                    persistent=cache,
                    fingerprint="fp",
                )
                stack.evaluate_many(
                    [space.genome(a=(offset + i) % 8) for i in range(8)]
                )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.entries(space, "fp") == 8


class TestKeptHandle:
    """Appends go through one handle per file, kept open across puts; its
    guard keeps every guarantee of opening the file per put."""

    def put(self, cache, space, a, campaign=""):
        return cache.put_many([(space.genome(a=a), {"m": float(a)})], "fp", campaign)

    def assert_rows(self, tmp_path, space, values):
        fresh = PersistentCache(tmp_path)
        assert ("stk", ("a",), "fp") in fresh.files()
        for a in values:
            assert fresh.get(space.genome(a=a), "fp") == (True, {"m": float(a)})
        assert fresh.entries(space, "fp") == len(values)

    def test_one_handle_per_file_across_puts(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        self.put(cache, space, 1)
        (appender,) = cache._appenders.values()
        handle = appender._handle
        self.put(cache, space, 2)
        assert appender._handle is handle and not handle.closed
        self.assert_rows(tmp_path, space, [1, 2])

    def test_compact_from_another_store_replaces_the_file(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        other = PersistentCache(tmp_path)
        assert other.entries(space, "fp") == 0  # loaded before the first put
        self.put(cache, space, 1)
        self.put(other, space, 1)  # a duplicate row, as two daemons leave
        self.put(cache, space, 2)
        inode = cache._path("stk", "fp").stat().st_ino
        assert PersistentCache(tmp_path).compact()["reclaimed"] == 1
        assert cache._path("stk", "fp").stat().st_ino != inode
        self.put(cache, space, 3)
        self.assert_rows(tmp_path, space, [1, 2, 3])

    def test_a_same_size_replacement_is_a_new_file(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        self.put(cache, space, 1)
        path = cache._path("stk", "fp")
        copy = path.with_name("copy.tmp")
        copy.write_bytes(path.read_bytes())
        copy.replace(path)
        self.put(cache, space, 2)
        self.assert_rows(tmp_path, space, [1, 2])

    def test_compact_closes_the_handles_before_it_rewrites(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        self.put(cache, space, 1)
        with open(cache._path("stk", "fp"), "a", encoding="utf-8") as fh:
            fh.write('{"values": [1], "metrics": {"m": 5.0}, "campaign": ""}\n')
        (appender,) = cache._appenders.values()
        handle = appender._handle
        assert cache.compact()["reclaimed"] == 1
        assert handle.closed
        self.put(cache, space, 2)
        self.assert_rows(tmp_path, space, [1, 2])

    def test_a_torn_tail_from_another_writer(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        self.put(cache, space, 1)
        path = cache._path("stk", "fp")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"values": [7], "met')  # another writer, killed
        self.put(cache, space, 2)
        assert path.read_text().splitlines()[-1] == (
            '{"values": [2], "metrics": {"m": 2.0}, "campaign": ""}'
        )
        self.assert_rows(tmp_path, space, [1, 2])

    def test_a_deleted_file_comes_back_with_its_header(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        self.put(cache, space, 1)
        cache._path("stk", "fp").unlink()
        self.put(cache, space, 2)
        self.assert_rows(tmp_path, space, [2])

    def test_a_failed_write_drops_the_handle(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        self.put(cache, space, 1)
        (appender,) = cache._appenders.values()
        real = appender._handle

        class Tearing:
            """Writes half of what it is given, then fails."""

            def __getattr__(self, name):
                return getattr(real, name)

            def write(self, text):
                real.write(text[: len(text) // 2])
                real.flush()
                raise OSError("disk full")

        appender._handle = Tearing()
        with pytest.raises(OSError, match="disk full"):
            self.put(cache, space, 2)
        assert appender._handle is None and real.closed
        assert cache.get(space.genome(a=2), "fp") == (False, None)
        assert self.put(cache, space, 2) == 1
        self.assert_rows(tmp_path, space, [1, 2])

    def test_close_releases_every_handle(self, space, tmp_path):
        cache = PersistentCache(tmp_path)
        self.put(cache, space, 1)
        cache.put_many([(space.genome(a=1), {"m": 1.0})], "fp2")
        handles = [a._handle for a in cache._appenders.values()]
        assert len(handles) == 2
        cache.close()
        assert all(handle.closed for handle in handles)
        assert cache._appenders == {}
        self.put(cache, space, 2)  # a later put reopens
        cache.close()
        self.assert_rows(tmp_path, space, [1, 2])

    def test_service_stop_closes_the_store(self, space, tmp_path):
        from repro.service import SearchService

        service = SearchService(tmp_path, port=0, eval_cache=True, archive=True)
        store = service.archive.store
        assert service.eval_cache is store
        store.put_many([(space.genome(a=1), {"m": 1.0})], "fp")
        (appender,) = store._appenders.values()
        handle = appender._handle
        service.start(run_scheduler=False)
        service.stop()
        assert handle.closed and store._appenders == {}


class TestSharedStore:
    """An eval cache and an archive given together are one store."""

    def test_each_fresh_design_written_once_with_its_campaign(
        self, space, tmp_path
    ):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        archive = DesignArchive(tmp_path, registry=registry)
        calls = []
        stack = EvaluationStack(
            counting_evaluator(calls),
            persistent=archive.store,
            archive=archive,
            fingerprint="fp",
            campaign="c1",
        )
        genomes = [space.genome(a=a) for a in (1, 2, 2, 3)]
        stack.evaluate_many(genomes)
        stack.evaluate_many(genomes)  # memo hits: nothing more to store
        (path,) = tmp_path.glob("*.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert rows == [
            {"values": [a], "metrics": {"m": float(a)}, "campaign": "c1"}
            for a in (1, 2, 3)
        ]
        assert registry.counter("nautilus_archive_rows_total", "").value() == 3
        assert stack.stats().persistent_hits == 0

        again = EvaluationStack(
            counting_evaluator(calls),
            persistent=archive.store,
            archive=archive,
            fingerprint="fp",
            campaign="c2",
        )
        assert again.evaluate(space.genome(a=2)) == {"m": 2.0}
        assert again.stats().persistent_hits == 1
        assert again.distinct_evaluations == 0
        assert calls == [1, 2, 3]
        assert len(path.read_text().splitlines()) == 4  # nothing rewritten
        assert registry.counter("nautilus_archive_rows_total", "").value() == 3

    def test_a_second_store_over_the_same_root_serves_hits(self, space, tmp_path):
        archive = DesignArchive(tmp_path)
        EvaluationStack(
            CallableEvaluator(lambda g: {"m": 1.0}),
            persistent=archive.store,
            archive=archive,
            fingerprint="fp",
        ).evaluate(space.genome(a=5))
        restarted = DesignArchive(tmp_path)
        calls = []
        stack = EvaluationStack(
            counting_evaluator(calls),
            persistent=restarted.store,
            archive=restarted,
            fingerprint="fp",
        )
        assert stack.evaluate(space.genome(a=5)) == {"m": 1.0}
        assert stack.stats().persistent_hits == 1
        assert calls == []

    def test_cache_and_archive_on_different_roots_rejected(self, tmp_path):
        with pytest.raises(NautilusError):
            EvaluationStack(
                CallableEvaluator(lambda g: {"m": 1.0}),
                persistent=PersistentCache(tmp_path / "cache"),
                archive=DesignArchive(tmp_path / "archive"),
                fingerprint="fp",
            )
        with pytest.raises(NautilusError):  # same directory, two stores
            EvaluationStack(
                CallableEvaluator(lambda g: {"m": 1.0}),
                persistent=PersistentCache(tmp_path),
                archive=DesignArchive(tmp_path),
                fingerprint="fp",
            )

    def test_archive_only_stack_records_through_the_archive(self, space, tmp_path):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        archive = DesignArchive(tmp_path, registry=registry)
        stack = EvaluationStack(
            CallableEvaluator(lambda g: {"m": 1.0}),
            archive=archive,
            fingerprint="fp",
            campaign="c3",
        )
        stack.push_trace_context({"trace": "t", "parent": 1})  # time the write
        stack.evaluate_many([space.genome(a=1), space.genome(a=2)])
        assert registry.counter("nautilus_archive_rows_total", "").value() == 2
        assert archive.stats()["campaigns"] == {"c3": 2}
        assert [w["entries"] for w in stack.pop_cache_writes()] == [2]
