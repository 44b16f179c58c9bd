"""Measured child process for the ``replay`` and ``characterize`` workloads.

Started by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``. It talks to the parent in JSON lines on stdout:

* ``ready`` once set-up (imports, dataset loads, the untimed warm-up item)
  is done, with the set-up time and the reference-kernel readings taken
  just before and after it;
* ``result`` after the timed items, one summary per item with its raw and
  drift-corrected time and the outcome of its correctness checks.

Roles: ``setup`` stops after ``ready``; ``run`` times the items; ``trace``
installs the layer wrappers before set-up and writes the span dump at the
end; ``verify`` runs the in-process reference campaigns the ``daemon``
workload compares its results with (specs read from ``--specs``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import threading
import time

from refkernel import DriftClock, corrected

CONFIG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "config.json")


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def derive_seeds(tag: str, seed: int, count: int) -> list[int]:
    """``count`` GA seeds fixed by the workload seed and a tag."""
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# replay: complete campaigns over the committed datasets
# ---------------------------------------------------------------------------


class Replay:
    def __init__(self, config: dict):
        self.config = config

    def setup(self) -> None:
        from repro.queries import load_dataset
        from repro.service.campaign import CampaignSpec, build_search, query_space

        self.CampaignSpec = CampaignSpec
        self.build_search = build_search
        self.query_space = query_space
        self.datasets = {s: load_dataset(s) for s in self.config["spaces"]}

    def warmup(self) -> None:
        # One campaign per space pays each dataset's one-off content
        # fingerprint, which every later campaign's stack reuses.
        warmup = self.config["warmup"]
        for (query, engine), seed in zip(
            warmup, derive_seeds("replay-warmup", 0, len(warmup))
        ):
            self.run_item({"query": query, "engine": engine, "seed": seed,
                           "generations": self.config["generations"]})

    def items(self, seed: int, seconds: float) -> list[dict]:
        battery = self.config["battery"]
        rounds = max(1, round(seconds / self.config["nominal_battery_s"]))
        seeds = derive_seeds("replay", seed, rounds * len(battery))
        return [
            {"query": query, "engine": engine, "seed": seeds[i],
             "generations": self.config["generations"]}
            for i, (query, engine) in enumerate(battery * rounds)
        ]

    def run_item(self, item: dict) -> dict:
        spec = self.CampaignSpec(**item)
        dataset = self.datasets[self.query_space(spec)]
        result = self.build_search(spec, dataset).run()
        return self.summarize(spec, dataset, result)

    @staticmethod
    def summarize(spec, dataset, result) -> dict:
        stats = result.eval_stats
        errors = []
        if stats.requests != (stats.distinct + stats.memo_hits
                              + stats.persistent_hits + stats.batch_dedup_hits):
            errors.append(f"EvalStats does not close: {stats.as_dict()}")
        if spec.engine == "pareto":
            best = [list(r) for r in result.front_raws()]
            for ind in result.front:
                row = dataset.lookup(ind.genome)
                raws = tuple(obj.raw(row) for obj in result.objectives)
                if raws != tuple(ind.raws):
                    errors.append(f"front member {ind.raws} != dataset {raws}")
            config = sorted(sorted(c.items()) for c in result.front_configs())
        else:
            best = result.best_raw
            config = sorted(result.best_config.items())
            truth = result.objective.raw(dataset.lookup(result.best_config))
            if truth != best:
                errors.append(f"best_raw {best} != dataset value {truth}")
        return {
            "generations": result.records[-1].generation,
            "distinct": result.distinct_evaluations,
            "requests": stats.requests,
            "memo_hits": stats.memo_hits,
            "best": best,
            "config": config,
            "errors": errors,
        }


# ---------------------------------------------------------------------------
# characterize: live synthesis of sampled design points
# ---------------------------------------------------------------------------


class Characterize:
    """Characterization campaigns: each samples distinct design points of one
    space and streams them through a fresh ``EvaluationStack`` in
    ``batch_size`` chunks, as ``Dataset.characterize`` streams a space.

    An item is one chunk (one ``evaluate_many`` call, the counterpart of a
    GA generation's evaluation round); a campaign's chunks are consecutive
    items, so the drift clock is read between chunks.
    """

    def __init__(self, config: dict):
        self.config = config

    def setup(self) -> None:
        from repro.core.errors import InfeasibleDesignError
        from repro.core.evalstack import EvaluationStack
        from repro.dsp.space import FirEvaluator
        from repro.fft.space import FftEvaluator
        from repro.noc.space import RouterEvaluator
        from repro.queries import load_dataset

        self.Infeasible = InfeasibleDesignError
        self.EvaluationStack = EvaluationStack
        self.evaluators = {"noc": RouterEvaluator, "fft": FftEvaluator,
                           "fir": FirEvaluator}
        self.datasets = {s: load_dataset(s) for s in self.config["campaign_designs"]}
        self.stack = None

    def warmup(self) -> None:
        for space in self.datasets:
            design_space = self.datasets[space].space
            rng = random.Random(f"characterize-warmup:{space}")
            genomes = [design_space.random_genome(rng)
                       for _ in range(self.config["warmup_designs"])]
            self._check(space, genomes,
                        self.EvaluationStack(self.evaluators[space]())
                        .evaluate_many(genomes))

    def items(self, seed: int, seconds: float) -> list[dict]:
        batch = self.config["batch_size"]
        sizes = self.config["campaign_designs"]
        rounds = max(1, round(seconds / self.config["nominal_round_s"]))
        genomes = {s: list(d.space.iter_genomes()) for s, d in self.datasets.items()}
        items = []
        # One campaign per space per round, so host drift spreads evenly
        # over the spaces.
        for round_ in range(rounds):
            for index, (space, size) in enumerate(sizes.items()):
                rng = random.Random(f"characterize:{space}:{seed}:{round_}")
                sample = rng.sample(genomes[space], size)
                chunks = [sample[i:i + batch] for i in range(0, size, batch)]
                campaign = round_ * len(sizes) + index
                items.extend(
                    {"space": space, "campaign": campaign, "genomes": chunk,
                     "first": i == 0, "last": i == len(chunks) - 1}
                    for i, chunk in enumerate(chunks)
                )
        return items

    def run_item(self, item: dict) -> dict:
        if item["first"]:
            self.stack = self.EvaluationStack(self.evaluators[item["space"]]())
        before = self.stack.stats().distinct
        outcomes = self.stack.evaluate_many(item["genomes"])
        summary = self._check(item["space"], item["genomes"], outcomes)
        stats = self.stack.stats()
        summary.update(campaign=item["campaign"], generations=1,
                       distinct=stats.distinct - before)
        if item["last"] and stats.requests != (
            stats.distinct + stats.memo_hits + stats.persistent_hits
            + stats.batch_dedup_hits
        ):
            summary["errors"].append(
                f"{item['space']}: EvalStats does not close: {stats.as_dict()}")
        return summary

    def _check(self, space: str, genomes, outcomes) -> dict:
        dataset = self.datasets[space]
        errors = []
        for genome, outcome in zip(genomes, outcomes):
            try:
                row = dataset.lookup(genome)
            except self.Infeasible:
                row = None
            if row is None:
                ok = isinstance(outcome, self.Infeasible)
            else:
                ok = not isinstance(outcome, Exception) and outcome == row
            if not ok and len(errors) < 5:
                errors.append(f"{space} {genome.as_dict()}: {outcome!r} != {row!r}")
            elif not ok:
                errors.append("")
        return {"space": space, "designs": len(genomes), "errors": errors}


# ---------------------------------------------------------------------------
# verify: in-process reference campaigns for the daemon workload
# ---------------------------------------------------------------------------


def verify(specs_path: str) -> None:
    from repro.queries import load_dataset
    from repro.service.campaign import CampaignSpec, build_search, query_space

    with open(specs_path, encoding="utf-8") as fh:
        specs = json.load(fh)
    datasets: dict[str, object] = {}
    out = []
    for payload in specs:
        spec = CampaignSpec(**payload)
        space = query_space(spec)
        if space not in datasets:
            datasets[space] = load_dataset(space)
        result = build_search(spec, datasets[space]).run()
        out.append({"best_raw": result.best_raw, "best_config": result.best_config})
    emit({"event": "verified", "results": out})


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--role", required=True,
                        choices=("setup", "run", "trace", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--dump", default="")
    parser.add_argument("--specs", default="")
    args = parser.parse_args()
    if args.role == "verify":
        verify(args.specs)
        return 0
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        config = json.load(fh)
    nominal = config["nominal_kernel_s"]
    workload_config = config["workloads"][args.workload]
    clock = DriftClock()
    kernel_pre = clock.read()

    t0 = time.perf_counter()
    log = None
    missing: list[str] = []
    if args.role == "trace":
        import layers

        log = layers.SpanLog()
        missing = layers.install(log)
    workload = {"replay": Replay, "characterize": Characterize}[args.workload](
        workload_config
    )
    workload.setup()
    workload.warmup()
    setup_s = time.perf_counter() - t0
    kernel_post = clock.read()
    emit({"event": "ready", "setup_s": setup_s, "kernel_pre": kernel_pre,
          "kernel_post": kernel_post})
    if args.role == "setup":
        return 0

    items = workload.items(args.seed, args.seconds)
    snr_before = _snr_cache_info() if args.workload == "characterize" else None
    results = []
    before = kernel_post
    for index, item in enumerate(items):
        if log is not None:
            log.item = index
        t = time.perf_counter()
        summary = workload.run_item(item)
        raw = time.perf_counter() - t
        after = clock.read()
        summary.setdefault("campaign", index)
        summary["raw_s"] = raw
        summary["kernel_s"] = [before, after]
        summary["corrected_s"] = corrected(raw, before, after, nominal)
        results.append(summary)
        before = after
    extra = {}
    if args.workload == "characterize":
        after_info = _snr_cache_info()
        extra["snr_cache"] = {
            "hits": after_info[0] - snr_before[0],
            "misses": after_info[1] - snr_before[1],
        }
    emit({
        "event": "result",
        "items": results,
        "setup_s": setup_s,
        "kernel_median": clock.median(),
        "kernel_readings": len(clock.readings),
        "invalid_windows": clock.invalid_windows,
        "peak_rss_mb": peak_rss_mb(),
        "unwrapped": missing,
        **extra,
    })
    if log is not None:
        log.dump(
            args.dump,
            work_thread=threading.get_ident(),
            setup_s=setup_s,
            timed_wall_s=sum(r["raw_s"] for r in results),
            kernel_median=clock.median(),
        )
    return 0


def _snr_cache_info() -> tuple[int, int]:
    from repro.fft import fixedpoint

    info = fixedpoint.snr_db.cache_info()
    return info.hits, info.misses


if __name__ == "__main__":
    sys.exit(main())
