"""Evaluation accounting across a checkpoint resume.

A resumed campaign restores its EvalStats counters from the checkpoint
journal instead of charging every restored memo row as a fresh distinct
evaluation, so its counts — and the per-generation distinct-evaluation
curve — equal the uninterrupted run's, and the accounting invariant
``requests == distinct + memo + persistent + batch-dedup hits`` closes.
"""

from __future__ import annotations

from repro.core.evalstack import PersistentCache
from repro.service import CampaignSpec
from repro.service.campaign import build_search


def _closes(stats) -> bool:
    return stats.requests == (
        stats.distinct + stats.memo_hits + stats.persistent_hits
        + stats.batch_dedup_hits
    )


def _run(spec, dataset, campaign_dir, persistent=None, stop_at=None):
    search = build_search(
        spec, dataset, campaign_dir=campaign_dir, persistent=persistent
    )
    if stop_at is None:
        return search, search.run()
    search.start()
    for _ in range(stop_at):
        search.step()
    search.close()  # the daemon dies here; its journal stays behind
    return search, None


def _resume(spec, dataset, campaign_dir, persistent=None):
    search = build_search(
        spec, dataset, campaign_dir=campaign_dir, persistent=persistent
    )
    search.resume()
    return search, search.run()


def _assert_same_accounting(full, full_result, resumed, resumed_result):
    assert resumed_result.curve() == full_result.curve()
    assert resumed_result.best_config == full_result.best_config
    assert [r.distinct_evaluations for r in resumed_result.records] == [
        r.distinct_evaluations for r in full_result.records
    ]
    assert resumed.eval_stats().counts() == full.eval_stats().counts()
    assert _closes(resumed.eval_stats())


def test_resumed_counters_equal_uninterrupted(fft_ds, tmp_path):
    spec = CampaignSpec(query="fft-luts", generations=40, seed=11)
    full, full_result = _run(spec, fft_ds, tmp_path / "full")
    _run(spec, fft_ds, tmp_path / "cut", stop_at=20)
    resumed, resumed_result = _resume(spec, fft_ds, tmp_path / "cut")
    _assert_same_accounting(full, full_result, resumed, resumed_result)


def test_eval_cache_hits_stay_hits_across_resume(noc_dataset, tmp_path):
    """Rows the shared --eval-cache served before the kill are not charged
    as paid after it."""
    warm = CampaignSpec(query="noc-area-delay", generations=40, seed=3)
    spec = CampaignSpec(query="noc-frequency", generations=40, seed=3)

    full_cache = PersistentCache(tmp_path / "full-cache")
    _run(warm, noc_dataset, tmp_path / "full-warm", persistent=full_cache)
    full, full_result = _run(
        spec, noc_dataset, tmp_path / "full", persistent=full_cache
    )
    assert full.eval_stats().persistent_hits > 0

    cache_dir = tmp_path / "cut-cache"
    _run(warm, noc_dataset, tmp_path / "cut-warm",
         persistent=PersistentCache(cache_dir))
    _run(spec, noc_dataset, tmp_path / "cut",
         persistent=PersistentCache(cache_dir), stop_at=15)
    # A restarted daemon reopens the cache from disk.
    resumed, resumed_result = _resume(
        spec, noc_dataset, tmp_path / "cut", persistent=PersistentCache(cache_dir)
    )
    _assert_same_accounting(full, full_result, resumed, resumed_result)
    assert resumed_result.distinct_evaluations == full_result.distinct_evaluations
