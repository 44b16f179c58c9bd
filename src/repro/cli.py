"""Command-line interface: ``nautilus`` (or ``python -m repro``).

Subcommands:

* ``characterize`` — build (or refresh) the offline datasets (Section 4.1's
  cluster step).
* ``optimize`` — run a baseline or guided search on one of the bundled IP
  spaces and print the result.
* ``figure`` — regenerate a paper figure and render it as an ASCII chart
  (optionally dumping the series to CSV).
* ``estimate`` — run the 80-design sweep and print the derived hints.
* ``simulate`` — run the flit-level NoC simulator on a topology and print
  the latency/throughput curve.
* ``report`` — compile the benchmark artifacts in ``results/`` into
  RESULTS.md, or (``--html <id>``) render one campaign's status, curve,
  health, and hint-attribution report into a standalone HTML file.
* ``serve`` — run the search-campaign daemon (REST API; see
  ``docs/service.md``). ``--log-json`` switches to structured JSON logs,
  ``--trace-max-events`` caps per-campaign event logs, ``--fleet`` opens
  a coordinator for distributed evaluation workers, ``--archive`` records
  every paid evaluation into the cross-campaign design archive.
* ``archive`` — inspect the cross-campaign design archive offline:
  ``stats``, ``query`` (top designs for a named query), ``export-hints``
  (mine a hints JSON from archived rows), and ``import`` (copy the rows
  of another store directory, such as an old eval cache).
* ``cache`` — maintain a store directory, an eval cache or an archive
  (``compact`` rewrites each space file dropping duplicate and torn rows;
  run it only while no daemon appends to that directory).
* ``worker`` — run one evaluation-fleet worker daemon against a
  coordinator (see ``docs/distributed.md``).
* ``fleet`` — show a daemon's evaluation-fleet status (workers, queue
  depth, retry/requeue counters).
* ``submit`` / ``status`` — submit campaigns to a running daemon and poll
  their progress, search curves, and health diagnostics.
* ``trace`` — dump a campaign's structured RunEvent log as JSONL.
* ``profile`` — phase budget, straggler report and critical path over a
  tracing campaign's span tree; ``--perfetto`` exports Chrome trace-event
  JSON loadable at https://ui.perfetto.dev.
* ``hints`` — print a campaign's aggregated hint-attribution report.
* ``top`` — live terminal dashboard over every campaign the daemon runs.

See ``docs/observability.md`` for the telemetry these commands surface.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import ascii_plot
from .core import (
    DatasetEvaluator,
    NautilusError,
    estimate_hints,
    hintset_to_json,
    objective_from_expression,
)
from .queries import MULTI_QUERIES, QUERIES, load_dataset, resolve_objective

__all__ = ["main"]

_FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


def _read_hints_file(path: str) -> dict:
    """Load a hints JSON file (as written by ``nautilus estimate --output``)."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise NautilusError(f"cannot read hints file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise NautilusError(f"hints file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise NautilusError(
            f"hints file {path!r} must contain a JSON object, "
            f"got {type(payload).__name__}"
        )
    return payload


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .dataset import data_dir, fft_dataset, fir_dataset, router_dataset

    targets = {"noc": router_dataset, "fft": fft_dataset, "fir": fir_dataset}
    names = [args.space] if args.space != "all" else list(targets)
    for name in names:
        dataset = targets[name](refresh=args.refresh)
        print(
            f"{name}: {len(dataset)} designs characterized "
            f"({dataset.feasible_count} feasible) -> {data_dir()}"
        )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .service.campaign import CampaignSpec, build_search

    query = QUERIES[args.query]
    objective = None
    if args.metric:
        objective = objective_from_expression(
            args.metric, args.direction or query.direction
        )
    elif args.direction:
        raise NautilusError("--direction requires --metric")
    spec = CampaignSpec(
        args.query,
        engine=args.engine,
        generations=args.generations,
        seed=args.seed,
        confidence=args.confidence,
        budget=args.budget,
        hints=None if args.hints is None else _read_hints_file(args.hints),
    )
    dataset = load_dataset(query.space)
    search = build_search(spec, dataset, objective=objective)
    result = search.run()
    objective = search.objective
    best = dataset.best_value(objective)
    print(
        f"query      : {args.query} "
        f"({objective.direction} {objective.name})"
    )
    print(f"engine     : {args.engine}")
    print(f"best found : {result.best_raw:.4g} (space optimum {best:.4g})")
    print(f"evaluated  : {result.distinct_evaluations} distinct designs")
    stats = result.eval_stats
    print(
        f"eval stack : {stats.requests} requests, {stats.cache_hits} cache "
        f"hits ({stats.hit_rate:.0%}), {stats.batches} batches "
        f"(max {stats.max_batch}), {stats.wall_time_s:.3f}s"
    )
    print(f"score      : {dataset.score_percent(objective, result.best_raw):.2f}% percentile")
    print("configuration:")
    for key, value in result.best_config.items():
        print(f"  {key} = {value}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from . import experiments

    kwargs = {}
    if args.name not in ("fig1", "fig2"):
        kwargs = {"runs": args.runs, "generations": args.generations}
        if args.name == "fig5":
            kwargs["generations"] = min(args.generations, 20)
    builder = getattr(experiments, args.name.replace("fig", "figure"))
    built = builder(**kwargs)
    figures = built if isinstance(built, tuple) else (built,)
    for figure in figures:
        print(ascii_plot(figure, logx=figure.name.startswith("fig2"),
                         logy=figure.name.startswith("fig2")))
        for line in figure.summary_rows():
            print(line)
        if args.csv:
            path = f"{figure.name}.csv"
            figure.to_csv(path)
            print(f"series written to {path}")
        print()
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    query = QUERIES[args.query]
    dataset = load_dataset(query.space)
    objective, __ = resolve_objective(query)
    hints, used = estimate_hints(
        dataset.space,
        DatasetEvaluator(dataset),
        objective,
        budget=args.budget,
        seed=args.seed,
    )
    if args.confidence is not None:
        hints = hints.with_confidence(args.confidence)
    print(f"estimated hints for {args.query} using {used} designs:")
    for name in dataset.space.param_names:
        if name in hints.params:
            h = hints.params[name]
            print(f"  {name:18s} importance={h.importance:3d} bias={h.bias:+.2f}")
        else:
            print(f"  {name:18s} (no signal)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(hintset_to_json(hints), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"hints written to {args.output} — feed them back with "
            f"'nautilus optimize {args.query} --hints {args.output}' or "
            f"'nautilus submit {args.query} --hints {args.output}'"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .noc import (
        NetworkSimulator,
        build_topology,
        default_router_config,
        make_pattern,
        saturation_throughput,
    )

    topology = build_topology(args.topology, args.endpoints)
    config = default_router_config(
        topology.router_radix,
        num_vcs=args.vcs,
        buffer_depth=args.buffer_depth,
    )
    simulator = NetworkSimulator(topology, config, routing=args.routing)
    pattern = make_pattern(args.pattern)
    print(
        f"{args.topology} x{args.endpoints} endpoints, "
        f"{topology.num_routers} routers radix {topology.router_radix}, "
        f"{args.vcs} VCs x depth {args.buffer_depth}, {args.pattern} traffic"
    )
    print(f"{'offered':>8s} {'delivered':>10s} {'latency cy':>11s} {'blocked':>8s}")
    for rate in (0.02, 0.05, 0.1, 0.2, 0.35, 0.5):
        report = simulator.run(rate, cycles=args.cycles, pattern=pattern)
        print(
            f"{report.offered_rate:8.2f} {report.delivered_rate:10.3f} "
            f"{report.avg_latency_cycles:11.1f} {report.blocked_fraction:8.2%}"
        )
    saturation = saturation_throughput(simulator, cycles=args.cycles)
    print(f"saturation throughput: {saturation:.3f} flits/endpoint/cycle")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.html:
        from .obs.htmlreport import render_campaign_html
        from .service import ServiceClient, ServiceError

        client = ServiceClient(host=args.host, port=args.port)
        status = client.status(args.html)
        curve = client.curve(args.html)
        try:
            hints = client.hints(args.html)
        except ServiceError:
            hints = None
        try:
            spans = client.spans(args.html)
        except ServiceError:
            spans = None
        output = args.output or f"campaign-{args.html}.html"
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(render_campaign_html(status, curve=curve,
                                              hint_report=hints,
                                              spans=spans))
        print(f"html report written to {output}")
        return 0
    from .experiments import generate_report

    path = generate_report(args.results_dir, args.output)
    print(f"report written to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import SearchService

    service = SearchService(
        args.dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quiet=not args.verbose,
        eval_cache=args.eval_cache,
        trace_max_events=args.trace_max_events,
        log_json=args.log_json,
        fleet=args.fleet,
        fleet_host=args.host,
        fleet_port=args.fleet_port,
        archive=args.archive,
    )
    print(f"nautilus daemon serving on {service.address} (store: {args.dir})")
    if service.eval_cache is not None:
        print(f"persistent eval cache: {service.eval_cache.root}")
    if service.archive is not None:
        print(f"design archive: {service.archive.root}")
    if service.fleet is not None:
        print(
            f"evaluation fleet on {service.fleet_address} — connect workers "
            f"with: nautilus worker --connect {service.fleet_address}"
        )
    print(
        "POST /campaigns, GET /campaigns/<id>[/curve|/trace|/spans|/hints], "
        "GET /fleet, GET /metrics[?format=prometheus]; Ctrl-C stops"
    )
    service.serve_forever()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .distributed import FleetWorker

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(
            f"error: --connect must be host:port, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    worker = FleetWorker(
        host,
        int(port),
        spaces=args.spaces,
        name=args.name,
        slots=args.slots,
    )
    print(
        f"worker {worker.name} connecting to {args.connect} "
        f"(slots={worker.slots})"
    )
    try:
        worker.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        worker.stop()
    except Exception as exc:
        print(f"worker stopped: {exc}", file=sys.stderr)
        return 1
    print(
        f"worker {worker.name} disconnected after "
        f"{worker.tasks_served} evaluations in {worker.batches_served} batches"
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    status = client.fleet()
    if args.json:
        json.dump(status, sys.stdout, indent=2)
        print()
        return 0
    if not status.get("enabled"):
        print("fleet: disabled (start the daemon with --fleet)")
        return 0
    totals = status.get("totals", {})
    print(
        f"fleet on {status['address']}: {status['live_workers']} worker(s), "
        f"{status['queue_depth']} queued, {status['in_flight']} in flight"
    )
    print(
        f"totals: {totals.get('dispatched', 0)} dispatched, "
        f"{totals.get('completed', 0)} completed, "
        f"{totals.get('retried', 0)} retried, "
        f"{totals.get('requeued', 0)} requeued, "
        f"{totals.get('exhausted', 0)} exhausted, "
        f"{totals.get('local_fallback', 0)} served locally"
    )
    rows = status.get("workers", []) + status.get("departed", [])
    if rows:
        print(
            f"{'worker':24s} {'state':10s} {'spaces':20s} {'done':>6s} "
            f"{'fail':>5s} {'retry':>5s} {'requeue':>7s} {'hb age':>7s} "
            f"{'rate/s':>8s}"
        )
    for row in rows:
        state = row.get("departed") or "live"
        print(
            f"{row['name']:24s} {state:10s} "
            f"{','.join(row['spaces']):20s} {row['completed']:6d} "
            f"{row['failed']:5d} {row['retried']:5d} {row['requeued']:7d} "
            f"{row['heartbeat_age_s']:7.1f} {row['throughput_per_s']:8.2f}"
        )
    return 0


def _archive_objective(query_name: str):
    """(query, dataset, objective, fingerprint) for an offline archive command."""
    query = QUERIES[query_name]
    dataset = load_dataset(query.space)
    objective, __ = resolve_objective(query)
    evaluator = DatasetEvaluator(dataset)
    return query, dataset, objective, evaluator.fingerprint


def _cmd_archive_stats(args: argparse.Namespace) -> int:
    from .archive import DesignArchive

    stats = DesignArchive(args.dir).stats()
    if args.json:
        json.dump(stats, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print(
        f"archive {args.dir}: {stats['rows']} rows in {stats['files']} "
        f"file(s) ({stats['feasible']} feasible, "
        f"{stats['infeasible']} infeasible)"
    )
    for space, count in sorted(stats["spaces"].items()):
        print(f"  space {space:12s} {count} rows")
    for campaign, count in sorted(stats["campaigns"].items()):
        print(f"  campaign {campaign:20s} {count} rows")
    return 0


def _cmd_archive_query(args: argparse.Namespace) -> int:
    from .archive import DesignArchive

    query, dataset, objective, fingerprint = _archive_objective(args.query)
    rows = DesignArchive(args.dir).top_k(
        dataset.space, fingerprint, objective, k=args.top
    )
    if args.json:
        json.dump(rows, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    if not rows:
        print(
            f"no archived designs for {args.query} — run campaigns with "
            f"'nautilus serve --archive' or backfill with "
            f"'nautilus archive import'"
        )
        return 0
    print(
        f"top {len(rows)} archived designs for {args.query} "
        f"({objective.direction} {objective.name}):"
    )
    for rank, row in enumerate(rows, 1):
        config = " ".join(f"{k}={v}" for k, v in row["config"].items())
        campaign = f" [{row['campaign']}]" if row.get("campaign") else ""
        print(f"  {rank:2d}. {row['raw']:.4g}{campaign}  {config}")
    return 0


def _cmd_archive_export_hints(args: argparse.Namespace) -> int:
    from .archive import DesignArchive, mine_hints

    query, dataset, objective, fingerprint = _archive_objective(args.query)
    hints, used = mine_hints(
        DesignArchive(args.dir),
        dataset.space,
        objective,
        fingerprint,
        confidence=args.confidence,
        min_rows=args.min_rows,
    )
    if not used:
        raise NautilusError(
            f"not enough archived rows for {args.query} "
            f"(need {args.min_rows}); run campaigns with "
            f"'nautilus serve --archive' or lower --min-rows"
        )
    # The miner works on engine-internal (maximized) scores; exported
    # hints re-enter through StaticHints, which flips bias/ordering for
    # minimizing objectives — pre-flip so the round trip is neutral.
    if not objective.maximizing:
        hints = hints.for_minimization()
    print(f"archive-mined hints for {args.query} using {used} designs:")
    for name in dataset.space.param_names:
        if name in hints.params:
            h = hints.params[name]
            target = f" target={h.target}" if h.target is not None else ""
            print(
                f"  {name:18s} importance={h.importance:3d} "
                f"bias={h.bias:+.2f}{target}"
            )
        else:
            print(f"  {name:18s} (no signal)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(hintset_to_json(hints), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"hints written to {args.output} — feed them back with "
            f"'nautilus optimize {args.query} --hints {args.output}' or "
            f"'nautilus submit {args.query} --hints {args.output}'"
        )
    return 0


def _cmd_archive_import(args: argparse.Namespace) -> int:
    from .archive import DesignArchive

    archive = DesignArchive(args.dir)
    try:
        report = archive.import_cache(args.source, campaign=args.campaign)
    finally:
        archive.store.close()
    print(
        f"imported {report['imported']} row(s) from {report['files']} store "
        f"file(s) ({report['skipped']} skipped) into {args.dir}"
    )
    return 0


def _cmd_cache_compact(args: argparse.Namespace) -> int:
    from .core.evalstack import PersistentCache

    report = PersistentCache(args.dir).compact()
    for name, cell in sorted(report["files"].items()):
        print(
            f"  {name:24s} {cell['rows']} rows kept, "
            f"{cell['reclaimed']} reclaimed"
        )
    print(
        f"compacted {args.dir}: {report['rows']} rows kept, "
        f"{report['reclaimed']} duplicate/torn row(s) reclaimed"
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import CampaignSpec, ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    spec = CampaignSpec(
        query=args.query,
        engine=args.engine,
        generations=args.generations,
        seed=args.seed,
        priority=args.priority,
        confidence=args.confidence,
        budget=args.budget,
        trace_max_events=args.trace_max_events,
        tracing=args.tracing,
        label=args.label,
    )
    payload = spec.to_json()
    # --workers and --hints ride as raw fields so validation happens
    # server-side (a bad value answers 400 with a JSON error — field-level
    # for hints — not a local traceback).
    if args.workers is not None:
        payload["workers"] = args.workers
    if args.warm_start is not None:
        payload["warm_start"] = args.warm_start
    if args.hints is not None:
        payload["hints"] = _read_hints_file(args.hints)
    campaign_id = client.submit(payload)
    print(campaign_id)
    if args.wait:
        status = client.wait(campaign_id, timeout=args.timeout)
        print(f"state      : {status['state']}")
        if "best_raw" in status:
            print(f"best found : {status['best_raw']:.4g}")
            print(f"evaluated  : {status['distinct_evaluations']} distinct designs")
        if "front" in status:
            print(f"front      : {len(status['front'])} non-dominated designs")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    if args.id is None:
        campaigns = client.list_campaigns()
        metrics = client.metrics()
        eval_times = metrics.get("campaign_eval_time_s", {})
        evals = metrics.get("campaign_evaluations", {})
        if not campaigns:
            print("no campaigns")
        for status in campaigns:
            cid = status["id"]
            best = (
                f" best={status['best_raw']:.4g}" if "best_raw" in status else ""
            )
            timing = (
                f" evals={evals[cid]} eval_time={eval_times[cid]:.3f}s"
                if cid in eval_times
                else ""
            )
            print(
                f"{cid}  {status['state']:9s} "
                f"{status['spec']['query']}/{status['spec']['engine']} "
                f"gen={status['generations_done']}{best}{timing}"
            )
        print(
            f"service: {metrics['evaluations_total']} evaluations, "
            f"cache hit rate {metrics['cache_hit_rate']:.0%}, "
            f"persistent hits {metrics['persistent_hits_total']} "
            f"({metrics['persistent_cache_hit_rate']:.0%}), "
            f"eval time {metrics['eval_time_s']:.3f}s"
        )
        return 0
    status = client.status(args.id)
    for key in ("id", "state", "generations_done", "best_raw",
                "distinct_evaluations", "stop_reason", "error"):
        if key in status:
            print(f"{key:21s}: {status[key]}")
    print(f"{'query':21s}: {status['spec']['query']} ({status['spec']['engine']})")
    health = status.get("health")
    if health:
        print(
            f"{'health':21s}: diversity={health['diversity']:.3f} "
            f"dup={health['duplicate_rate']:.0%} "
            f"infeasible={health['infeasible_rate']:.0%} "
            f"velocity={health['convergence_velocity']:+.4g} "
            f"stall_risk={health['stall_risk']:.2f} "
            f"(stalled {health['stalled_generations']} gen)"
        )
    if "front" in status:
        print(f"{'pareto front':21s}: {len(status['front'])} designs")
        for raws in status["front"]:
            print("  " + "  ".join(f"{value:.4g}" for value in raws))
    if args.curve:
        print(f"{'generation':>10s} {'evals':>8s} {'best':>12s}")
        for point in client.curve(args.id):
            print(
                f"{point['generation']:10d} {point['distinct_evaluations']:8d} "
                f"{point['best_raw']:12.4g}"
            )
    if args.trace:
        operators = (
            client.metrics()
            .get("campaign_operator_time_s", {})
            .get(args.id, {})
        )
        if operators:
            print("operator time:")
            for operator in sorted(operators):
                print(f"  {operator:12s} {operators[operator]:.3f}s")
        print("recent events:")
        for event in client.trace(args.id, limit=args.trace_limit):
            kind = event.get("kind", "?")
            generation = event.get("generation")
            detail = {
                k: v
                for k, v in event.items()
                if k not in ("seq", "kind", "generation")
            }
            print(f"  [{generation}] {kind} {json.dumps(detail, sort_keys=True)}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    for event in client.trace(args.id, limit=args.limit):
        print(json.dumps(event, sort_keys=True))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.tracing import (
        critical_path,
        perfetto_export,
        phase_budget,
        straggler_report,
        validate_accounting,
    )
    from .service import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    spans = client.spans(args.id)
    if not spans:
        print(
            f"{args.id}: no spans recorded — submit the campaign with "
            f"--tracing to profile it",
            file=sys.stderr,
        )
        return 1
    budget = phase_budget(spans)
    stragglers = straggler_report(spans)
    path = critical_path(spans)
    accounting = validate_accounting(spans)
    if args.perfetto:
        with open(args.perfetto, "w", encoding="utf-8") as handle:
            json.dump(perfetto_export(spans), handle)
        print(
            f"perfetto trace written to {args.perfetto} — load it at "
            f"https://ui.perfetto.dev or chrome://tracing"
        )
    if args.json:
        print(
            json.dumps(
                {
                    "phase_budget": budget,
                    "stragglers": stragglers,
                    "critical_path": path,
                    "accounting": accounting,
                },
                sort_keys=True,
                indent=2,
            )
        )
        return 0
    generations = budget["generations"]
    print(
        f"{args.id}: {len(spans)} spans, {len(generations)} generation(s), "
        f"{budget['wall_time_s']:.3f}s wall "
        f"(phase coverage {budget['coverage']:.0%})"
    )
    if not accounting["ok"]:
        print(f"accounting: {len(accounting['errors'])} violation(s)")
        for error in accounting["errors"][:5]:
            print(f"  {error}")
    total_wall = budget["wall_time_s"] or 1.0
    print("phase budget:")
    for label, seconds in sorted(
        budget["phases"].items(), key=lambda kv: -kv[1]
    ):
        print(f"  {label:12s} {seconds:9.3f}s {seconds / total_wall:6.1%}")
    if stragglers:
        print("eval batches (slowest task per batch):")
        print(
            f"  {'gen':>4s} {'tasks':>5s} {'wall':>8s} {'worker':20s} "
            f"{'total':>8s} {'exec':>8s} {'queue':>8s} {'retry':>5s}"
        )
        for entry in stragglers:
            slow = entry["slowest"]
            gen = entry["generation"]
            print(
                f"  {gen if gen is not None else '?':>4} "
                f"{entry['tasks']:5d} {entry['wall_time_s']:8.3f} "
                f"{slow['worker']:20s} {slow['total_s']:8.3f} "
                f"{slow['exec_s']:8.3f} {slow['queue_s']:8.3f} "
                f"{slow['retries']:5d}"
            )
    if path:
        print("critical path:")
        for node in path:
            attrs = node["attrs"]
            detail = ""
            if node["name"] == "generation":
                detail = f" #{attrs.get('generation', '?')}"
            elif node["name"] == "phase":
                detail = f" {attrs.get('phase', '?')}"
            elif attrs.get("worker"):
                detail = f" on {attrs['worker']}"
            print(f"  {node['name']}{detail}  {node['duration_s']:.3f}s")
    return 0


def _cmd_hints(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    report = client.hints(args.id)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0
    hinted = "guided" if report.get("hinted") else "unguided"
    confidence = report.get("confidence")
    conf = f", confidence {confidence:.2f}" if confidence is not None else ""
    print(
        f"{args.id}: {report['generations']} generations, "
        f"{report['children']} children bred ({hinted}{conf})"
    )
    header = (
        f"{'scope':18s} {'channel':9s} {'proposals':>9s} {'feasible':>8s} "
        f"{'improved':>8s} {'rate':>6s} {'mean Δ':>10s}"
    )
    print(header)
    for channel, cell in report.get("channels", {}).items():
        print(
            f"{'(all params)':18s} {channel:9s} {cell['proposals']:9d} "
            f"{cell['feasible']:8d} {cell['improved']:8d} "
            f"{cell['improvement_rate']:6.0%} {cell['mean_delta']:+10.4g}"
        )
    for name, param in report.get("params", {}).items():
        for channel, cell in param.get("channels", {}).items():
            print(
                f"{name:18s} {channel:9s} {cell['proposals']:9d} "
                f"{cell['feasible']:8d} {cell['improved']:8d} "
                f"{cell['improvement_rate']:6.0%} {cell['mean_delta']:+10.4g}"
            )
    importance = report.get("effective_importance", {})
    if importance:
        print("effective importance (latest generation):")
        for name, value in sorted(importance.items()):
            print(f"  {name:18s} {value:.2f}")
    return 0


def _render_top(campaigns, metrics) -> str:
    """One frame of the ``nautilus top`` dashboard (plain text)."""
    health_by_id = metrics.get("campaign_health", {})
    best_by_id = metrics.get("campaign_best_score", {})
    evals = metrics.get("campaign_evaluations", {})
    lines = [
        f"nautilus top — {metrics['evaluations_total']} evaluations, "
        f"{metrics['evaluations_per_sec']:.1f}/s, "
        f"cache hit rate {metrics['cache_hit_rate']:.0%}, "
        f"queue depth {metrics['queue_depth']}",
        f"{'id':12s} {'state':9s} {'query/engine':28s} {'gen':>5s} "
        f"{'evals':>7s} {'best':>10s} {'divers':>6s} {'stall':>5s}",
    ]
    for status in campaigns:
        cid = status["id"]
        health = health_by_id.get(cid, {})
        best = best_by_id.get(cid)
        lines.append(
            f"{cid:12s} {status['state']:9s} "
            f"{status['spec']['query'] + '/' + status['spec']['engine']:28s} "
            f"{status['generations_done']:5d} "
            f"{evals.get(cid, 0):7d} "
            + (f"{best:10.4g} " if best is not None else f"{'-':>10s} ")
            + (
                f"{health['diversity']:6.2f} {health['stall_risk']:5.2f}"
                if health
                else f"{'-':>6s} {'-':>5s}"
            )
        )
    if not campaigns:
        lines.append("(no campaigns)")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .service import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    iteration = 0
    try:
        while True:
            frame = _render_top(client.list_campaigns(), client.metrics())
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(frame)
            iteration += 1
            if args.iterations is not None and iteration >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nautilus",
        description="Nautilus (DAC 2015) reproduction: guided-GA IP design space search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="build the offline datasets")
    p.add_argument("space", choices=("noc", "fft", "fir", "all"))
    p.add_argument("--refresh", action="store_true", help="recharacterize even if cached")
    p.set_defaults(fn=_cmd_characterize)

    p = sub.add_parser("optimize", help="run one optimization query")
    p.add_argument("query", choices=sorted(QUERIES))
    p.add_argument("--engine", choices=("baseline", "nautilus", "random"), default="nautilus")
    p.add_argument(
        "--metric",
        default=None,
        help="composite metric expression overriding the query's default, "
        "e.g. 'fmax_mhz / (luts + 8 * brams)'",
    )
    p.add_argument(
        "--direction",
        choices=("max", "min"),
        default=None,
        help="optimize --metric upward or downward (default: the query's)",
    )
    p.add_argument("--confidence", type=float, default=None)
    p.add_argument(
        "--hints",
        metavar="HINTS_JSON",
        default=None,
        help="JSON hints file (e.g. from 'nautilus estimate --output') "
        "replacing the query's bundled hint set; nautilus engine only",
    )
    p.add_argument("--generations", type=int, default=80)
    p.add_argument("--budget", type=int, default=400, help="random-search budget")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("name", choices=_FIGURES)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--generations", type=int, default=80)
    p.add_argument("--csv", action="store_true", help="write series CSV")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("estimate", help="derive hints from a parameter sweep")
    p.add_argument("query", choices=sorted(QUERIES))
    p.add_argument("--budget", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--confidence",
        type=float,
        default=None,
        help="confidence written into the derived hint set "
        "(default: the estimator's own)",
    )
    p.add_argument(
        "--output",
        metavar="HINTS_JSON",
        default=None,
        help="write the derived hints as schema-versioned JSON, ready for "
        "'nautilus optimize --hints' / 'nautilus submit --hints'",
    )
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("simulate", help="flit-level NoC simulation")
    from .noc.topology import TOPOLOGY_FAMILIES
    from .noc.traffic import TRAFFIC_PATTERNS

    p.add_argument("topology", choices=sorted(TOPOLOGY_FAMILIES))
    p.add_argument("--endpoints", type=int, default=64)
    p.add_argument("--vcs", type=int, default=2)
    p.add_argument("--buffer-depth", type=int, default=8)
    p.add_argument("--pattern", choices=sorted(TRAFFIC_PATTERNS), default="uniform")
    p.add_argument(
        "--routing", choices=("deterministic", "diverse"), default="deterministic"
    )
    p.add_argument("--cycles", type=int, default=1500)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "report",
        help="compile results/ into RESULTS.md, or --html <id> for one campaign",
    )
    p.add_argument("--results-dir", default=None)
    p.add_argument("--output", default=None)
    p.add_argument(
        "--html",
        metavar="CAMPAIGN_ID",
        default=None,
        help="render one campaign (status, curve, health, hint report) "
        "from a running daemon into a standalone HTML file",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "serve", help="run the search-campaign daemon (REST API)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765, help="0 picks an ephemeral port")
    p.add_argument("--dir", default="campaigns", help="campaign store directory")
    p.add_argument(
        "--workers",
        type=int,
        default=4,
        help="size of the evaluation thread pool the daemon's campaigns "
        "share (1 evaluates inline)",
    )
    p.add_argument(
        "--eval-cache",
        action="store_true",
        help="share evaluation results across campaigns and restarts via an "
        "on-disk cache under the store directory",
    )
    p.add_argument(
        "--trace-max-events",
        type=int,
        default=None,
        help="cap each campaign's on-disk event log at N events "
        "(oldest and newest halves are kept around a truncation marker)",
    )
    p.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs (one object per line) with "
        "campaign-id correlation",
    )
    p.add_argument(
        "--fleet",
        action="store_true",
        help="open a distributed-evaluation coordinator; workers join with "
        "'nautilus worker --connect host:port'",
    )
    p.add_argument(
        "--fleet-port",
        type=int,
        default=8766,
        help="coordinator TCP port (0 picks an ephemeral port)",
    )
    p.add_argument(
        "--archive",
        nargs="?",
        const=True,
        default=False,
        metavar="DIR",
        help="record every paid evaluation into the cross-campaign design "
        "archive (default location: <store>/archive; pass DIR to place it "
        "elsewhere); enables warm-started campaigns and GET /archive/*",
    )
    p.add_argument("--verbose", action="store_true", help="log HTTP requests")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "worker", help="run one evaluation-fleet worker daemon"
    )
    p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address printed by 'nautilus serve --fleet'",
    )
    p.add_argument(
        "--spaces",
        nargs="+",
        default=None,
        metavar="SPACE",
        choices=("noc", "fft", "fir"),
        help="dataset spaces this worker serves (default: all bundled)",
    )
    p.add_argument("--name", default=None, help="worker name (default host-pid)")
    p.add_argument(
        "--slots", type=int, default=1, help="concurrent evaluations per batch"
    )
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "fleet", help="show a daemon's evaluation-fleet status"
    )
    p.add_argument("--json", action="store_true", help="dump the raw status")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.set_defaults(fn=_cmd_fleet)

    p = sub.add_parser("submit", help="submit a campaign to a running daemon")
    p.add_argument(
        "query",
        choices=sorted(QUERIES) + sorted(MULTI_QUERIES),
        help="single-objective query, or a multi-objective one for --engine pareto",
    )
    p.add_argument(
        "--engine",
        choices=("baseline", "nautilus", "random", "pareto"),
        default="nautilus",
    )
    p.add_argument("--generations", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--priority", type=int, default=0, help="higher runs first")
    p.add_argument("--confidence", type=float, default=None)
    p.add_argument(
        "--hints",
        metavar="HINTS_JSON",
        default=None,
        help="inline JSON hints file replacing the query's bundled hint "
        "set (guided engines; validated server-side with field-level "
        "errors)",
    )
    p.add_argument("--budget", type=int, default=400, help="random-search budget")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="per-campaign evaluation pool size (overrides the daemon "
        "default; validated server-side, must be >= 1)",
    )
    p.add_argument(
        "--warm-start",
        type=int,
        default=None,
        metavar="N",
        help="seed the initial GA population with the top N archived "
        "designs (needs a daemon started with --archive; validated "
        "server-side)",
    )
    p.add_argument(
        "--trace-max-events",
        type=int,
        default=None,
        help="cap this campaign's event log (overrides the daemon default)",
    )
    p.add_argument(
        "--tracing",
        action="store_true",
        help="record a span tree for the campaign (inspect with "
        "'nautilus profile'); zero RNG cost, results stay bit-identical",
    )
    p.add_argument("--label", default="")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--wait", action="store_true", help="block until terminal")
    p.add_argument("--timeout", type=float, default=600.0)
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "archive", help="inspect the cross-campaign design archive"
    )
    archive_sub = p.add_subparsers(dest="archive_command", required=True)

    p = archive_sub.add_parser("stats", help="row/feasibility/campaign counts")
    p.add_argument("--dir", default="campaigns/archive", help="archive directory")
    p.add_argument("--json", action="store_true", help="dump the raw stats")
    p.set_defaults(fn=_cmd_archive_stats)

    p = archive_sub.add_parser(
        "query", help="top archived designs for a named query, best first"
    )
    p.add_argument("query", choices=sorted(QUERIES))
    p.add_argument("--dir", default="campaigns/archive", help="archive directory")
    p.add_argument(
        "-k", "--top", type=int, default=10, help="number of designs shown"
    )
    p.add_argument("--json", action="store_true", help="dump the raw rows")
    p.set_defaults(fn=_cmd_archive_query)

    p = archive_sub.add_parser(
        "export-hints",
        help="mine a hints JSON from archived rows (no extra evaluations)",
    )
    p.add_argument("query", choices=sorted(QUERIES))
    p.add_argument("--dir", default="campaigns/archive", help="archive directory")
    p.add_argument(
        "--confidence",
        type=float,
        default=0.5,
        help="confidence written into the mined hint set",
    )
    p.add_argument(
        "--min-rows",
        type=int,
        default=20,
        help="fewest archived rows worth mining",
    )
    p.add_argument(
        "--output",
        metavar="HINTS_JSON",
        default=None,
        help="write the mined hints as schema-versioned JSON, ready for "
        "'nautilus optimize --hints' / 'nautilus submit --hints'",
    )
    p.set_defaults(fn=_cmd_archive_export_hints)

    p = archive_sub.add_parser(
        "import",
        help="copy the rows the archive lacks from another store directory "
        "(an old eval cache or another archive)",
    )
    p.add_argument("--dir", default="campaigns/archive", help="archive directory")
    p.add_argument(
        "--from",
        dest="source",
        required=True,
        metavar="CACHE_DIR",
        help="store directory to copy from (e.g. campaigns/evalcache)",
    )
    p.add_argument(
        "--campaign",
        default="import",
        help="campaign label recorded on imported rows that carry none",
    )
    p.set_defaults(fn=_cmd_archive_import)

    p = sub.add_parser(
        "cache", help="maintain a store of paid-for evaluations"
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    p = cache_sub.add_parser(
        "compact",
        help="rewrite store files dropping duplicate and torn rows",
        description="Rewrite the files of a store directory (an eval cache "
        "or an archive), keeping each design's first row and dropping "
        "duplicate and torn rows. Run it only while no daemon appends to "
        "the directory: a row appended during compaction is lost.",
    )
    p.add_argument(
        "--dir",
        default="campaigns/evalcache",
        help="store directory (an eval cache or an archive)",
    )
    p.set_defaults(fn=_cmd_cache_compact)

    p = sub.add_parser("status", help="show campaign status (all, or one by id)")
    p.add_argument("id", nargs="?", default=None)
    p.add_argument("--curve", action="store_true", help="print the search curve")
    p.add_argument(
        "--trace",
        action="store_true",
        help="print operator timings and the most recent trace events",
    )
    p.add_argument(
        "--trace-limit", type=int, default=10, help="events shown by --trace"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.set_defaults(fn=_cmd_status)

    p = sub.add_parser(
        "trace", help="dump a campaign's structured RunEvent log as JSONL"
    )
    p.add_argument("id")
    p.add_argument(
        "--limit", type=int, default=None, help="keep only the last N events"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="phase budget, stragglers and critical path of a tracing campaign",
    )
    p.add_argument("id")
    p.add_argument(
        "--perfetto",
        metavar="OUT_JSON",
        default=None,
        help="also write Chrome trace-event JSON (open at ui.perfetto.dev)",
    )
    p.add_argument("--json", action="store_true", help="dump the raw reports")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "hints", help="print a campaign's aggregated hint-attribution report"
    )
    p.add_argument("id")
    p.add_argument("--json", action="store_true", help="dump the raw report")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.set_defaults(fn=_cmd_hints)

    p = sub.add_parser(
        "top", help="live dashboard over a running daemon's campaigns"
    )
    p.add_argument("--interval", type=float, default=2.0, help="refresh period, seconds")
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    p.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (pipe-friendly)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.set_defaults(fn=_cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NautilusError as exc:
        # Covers ServiceError too: a daemon's 400/404 answer (bad spec,
        # unknown campaign) is a user error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly instead of
        # tracebacking. Redirect stdout so interpreter teardown can't
        # raise a second BrokenPipeError while flushing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
