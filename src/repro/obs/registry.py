"""A small Prometheus-style metrics registry (stdlib only).

The service already serves a JSON metrics snapshot; operators want the
same numbers scrapeable by Prometheus. Rather than depending on
``prometheus_client`` (not available in the image, and overkill for a
handful of families), this module implements the three metric kinds the
repo needs — counters, gauges, histograms — with label support and the
text exposition format 0.0.4 that every Prometheus scraper understands.

Conventions:

* metric names are ``nautilus_*`` and follow Prometheus naming rules
  (counters end in ``_total``, durations are ``_seconds``);
* a metric family is created once via :meth:`MetricsRegistry.counter` /
  ``gauge`` / ``histogram`` — repeated calls with the same name return
  the same family object, so layers can share families without passing
  them around;
* all mutation goes through one registry lock, so the eval stack's
  worker threads, the scheduler thread, and HTTP handler threads can
  record concurrently; :meth:`MetricsRegistry.render` holds the same lock
  while it formats, so an exposition never shows a torn series.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram buckets, tuned for fast analytical evaluations
#: (sub-millisecond) through real synthesis jobs (minutes).
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_INF = float("inf")


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _unescape_label_value(value: str) -> str:
    """Invert :func:`_escape_label_value` (exposition-format escaping)."""
    out, i = [], 0
    while i < len(value):
        char = value[i]
        if char == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(char)
        i += 1
    return "".join(out)


def _format_value(value: float) -> str:
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Family:
    """Shared machinery of one named metric family with labels."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
    ):
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._series: dict[tuple, object] = {}

    def _key(self, labels: Mapping[str, str]) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def remove(self, **labels: str) -> None:
        """Drop one label set (e.g. a worker that left the fleet).

        Long-lived daemons must prune per-worker series when the worker
        deregisters or expires, or ``/metrics`` grows without bound.
        Removing a series that was never recorded is a no-op.
        """
        with self._lock:
            self._series.pop(self._key(labels), None)

    def _render_header(self) -> list[str]:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Family):
    """A monotonically increasing value (per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))

    def _render(self) -> list[str]:
        lines = self._render_header()
        for key in sorted(self._series):
            suffix = _label_suffix(self.labelnames, key)
            lines.append(f"{self.name}{suffix} {_format_value(self._series[key])}")
        return lines


class Gauge(_Family):
    """A value that can go up and down (per label set)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))

    def _render(self) -> list[str]:
        lines = self._render_header()
        for key in sorted(self._series):
            suffix = _label_suffix(self.labelnames, key)
            lines.append(f"{self.name}{suffix} {_format_value(self._series[key])}")
        return lines


class Histogram(_Family):
    """Cumulative-bucket histogram of observed values (per label set)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames, lock)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")
        self.buckets = tuple(bounds)

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
                self._series[key] = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series["counts"][i] += 1
            series["sum"] += value
            series["count"] += 1

    def snapshot(self, **labels: str) -> dict:
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is None:
                return {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            return {
                "counts": list(series["counts"]),
                "sum": series["sum"],
                "count": series["count"],
            }

    def _render(self) -> list[str]:
        lines = self._render_header()
        bucket_names = self.labelnames + ("le",)
        for key in sorted(self._series):
            series = self._series[key]
            for bound, count in zip(self.buckets, series["counts"]):
                suffix = _label_suffix(bucket_names, key + (_format_value(bound),))
                lines.append(f"{self.name}_bucket{suffix} {count}")
            suffix = _label_suffix(bucket_names, key + ("+Inf",))
            lines.append(f"{self.name}_bucket{suffix} {series['count']}")
            plain = _label_suffix(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(series['sum'])}")
            lines.append(f"{self.name}_count{plain} {series['count']}")
        return lines


class MetricsRegistry:
    """Get-or-create home for metric families, with text exposition.

    One registry serves one process (the service daemon creates one and
    threads it through the scheduler into every campaign's evaluation
    stack). Families are identified by name; asking for an existing name
    with a different kind or label set raises, which catches layer
    mismatches early.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, cls, name, help_text, labelnames, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls) or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.labelnames}"
                    )
                return family
            family = cls(name, help_text, labelnames, self._lock, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        kwargs = {} if buckets is None else {"buckets": buckets}
        return self._get_or_create(Histogram, name, help_text, labelnames, **kwargs)

    def families(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format 0.0.4.

        Formatted under the registry lock, so a concurrent ``remove()``
        or ``observe()`` cannot change a series while it is written out.
        """
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                lines.extend(self._families[name]._render())
        return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse text exposition back into ``{family: {"type", "samples"}}``.

    A deliberately small parser — enough to round-trip what
    :meth:`MetricsRegistry.render` produces and to let tests and the
    obs-smoke job assert on families and sample values. ``samples`` maps
    a ``(sample_name, ((label, value), ...))`` key to a float.
    """
    families: dict[str, dict] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            families.setdefault(name, {"type": kind, "samples": {}})
            continue
        if line.startswith("#"):
            continue
        name_and_labels, _, raw_value = line.rpartition(" ")
        labels: tuple = ()
        sample_name = name_and_labels
        if "{" in name_and_labels:
            sample_name, _, label_body = name_and_labels.partition("{")
            label_body = label_body.rstrip("}")
            parsed = []
            for part in _split_labels(label_body):
                label, _, quoted = part.partition("=")
                if quoted.startswith('"') and quoted.endswith('"') and len(quoted) >= 2:
                    quoted = quoted[1:-1]
                parsed.append((label, _unescape_label_value(quoted)))
            labels = tuple(parsed)
        family_name = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name.removesuffix(suffix)
            if base != sample_name and families.get(base, {}).get("type") == "histogram":
                family_name = base
                break
        family = families.setdefault(family_name, {"type": "untyped", "samples": {}})
        family["samples"][(sample_name, labels)] = float(raw_value)
    return families


def _split_labels(body: str) -> Iterable[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    part, in_quotes, escaped = "", False, False
    for char in body:
        if escaped:
            part += char
            escaped = False
        elif char == "\\":
            part += char
            escaped = True
        elif char == '"':
            part += char
            in_quotes = not in_quotes
        elif char == "," and not in_quotes:
            if part:
                yield part
            part = ""
        else:
            part += char
    if part:
        yield part
