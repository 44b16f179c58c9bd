"""Cross-cutting observability for Nautilus searches.

This package is deliberately dependency-free (stdlib only) and imports
nothing from the rest of :mod:`repro`, so every layer — the core kernel,
the evaluation stack, the service scheduler, and the CLI — can use it
without import cycles. It provides four largely independent pieces:

* :mod:`repro.obs.registry` — a small Prometheus-style metrics registry
  (counters / gauges / histograms with labels) with text exposition,
  shared by the evaluation stack, the scheduler, and the kernel and
  served at ``GET /metrics?format=prometheus``.
* :mod:`repro.obs.attribution` — hint-attribution telemetry: the
  per-child provenance breeding records (which params mutated, through
  which hint channel, confidence-gate outcomes), summarized per
  generation and aggregated into per-param / per-channel
  :class:`HintEffectReport`\\ s.
* :mod:`repro.obs.health` — per-generation search-health diagnostics
  (population diversity, duplicate/infeasible rates, convergence
  velocity, stall risk) derived from the population without consuming
  any RNG.
* :mod:`repro.obs.logs` / :mod:`repro.obs.htmlreport` — a JSON log
  formatter with campaign-id correlation and a no-dependency HTML
  report renderer for ``nautilus report --html``.
* :mod:`repro.obs.clock` / :mod:`repro.obs.tracing` — the injectable
  time source shared by every timed layer, and the span layer: one
  causal timing tree per run (run → generation → phase → eval-batch →
  task → dispatch/worker-exec/retry), with phase budget, straggler,
  critical-path, and Perfetto trace-event analysis on top.

Everything here is *read-only* with respect to the search: enabling
observability never consumes RNG draws, so seeded runs stay bit-identical
with it on or off (enforced by the engine-parity CI job).
"""

from .attribution import HintEffectReport, hint_effect_report
from .clock import DEFAULT_CLOCK, FakeClock
from .health import population_health, stall_risk
from .logs import JsonLogFormatter, configure_json_logging
from .registry import Counter, Gauge, Histogram, MetricsRegistry, parse_prometheus
from .tracing import (
    Span,
    SpanRecorder,
    critical_path,
    perfetto_export,
    phase_budget,
    span_tree,
    straggler_report,
    validate_accounting,
)

__all__ = [
    "HintEffectReport",
    "hint_effect_report",
    "population_health",
    "stall_risk",
    "JsonLogFormatter",
    "configure_json_logging",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
    "DEFAULT_CLOCK",
    "FakeClock",
    "Span",
    "SpanRecorder",
    "span_tree",
    "validate_accounting",
    "phase_budget",
    "straggler_report",
    "critical_path",
    "perfetto_export",
]
