"""The unified evaluation stack — every fitness score flows through here.

The paper's entire cost model is the evaluation: each fitness score
"requires running computationally expensive CAD tools ... and/or
simulations", so a search is judged by the number of distinct synthesis
jobs it pays for. This module makes that critical path *one* composable
pipeline instead of four divergent implementations::

    EvaluationStack.evaluate_many(genomes)
        │
        ▼
    MemoCache          in-memory key → outcome; revisits are free
        │ misses
        ▼
    Store              optional: serves hits from the on-disk eval cache
        │ misses       (PersistentCache) and records what the layers below
        │              paid for — through the design archive when there
        ▼              is one (repro.archive), else into the eval cache
    Batcher            coalesces duplicate keys within one batch
        │ unique
        ▼
    Instrumentation    charges distinct evaluations, times the backend,
        │              counts infeasible results and batch sizes
        ▼
    Backend            inline | thread pool | process pool — the layer
                       that actually runs the inner evaluator

``evaluate_many`` is the primitive; ``evaluate`` is a batch of one. Every
layer preserves submission order and returns one outcome (a metrics dict or
the exception the evaluation raised) per genome, so batch and serial paths
are bit-identical — the engines rely on this for seeded reproducibility.

Accounting invariant::

    total_requests == distinct_evaluations + memo_hits
                      + persistent_hits + batch_dedup_hits

``cache_hits`` (requests that did not pay for a backend execution) is the
derived ``total_requests - distinct_evaluations``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import operator
import threading
import time
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Sequence, TYPE_CHECKING

from .errors import InfeasibleDesignError, NautilusError
from .fileio import KeptAppender, dumps
from .fitness import Metrics
from .genome import Genome
from .params import values_key

if TYPE_CHECKING:  # pragma: no cover
    from .evaluator import Evaluator
    from .space import DesignSpace

__all__ = [
    "EvalStats",
    "EvaluationStack",
    "PersistentCache",
    "evaluator_fingerprint",
]

#: An evaluation outcome: the metrics dict, or the exception the run raised.
Outcome = Any

_BACKENDS = ("inline", "thread", "process", "fleet")


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


class EvalStats(NamedTuple):
    """One consistent snapshot of every counter/timer in a stack.

    All counters are cumulative since stack construction; subtract two
    snapshots with :meth:`minus` to get the delta over an interval (the
    service scheduler does this once per generation step). A tuple, so a
    snapshot is one read of the counter slots.
    """

    requests: int = 0
    distinct: int = 0
    memo_hits: int = 0
    persistent_hits: int = 0
    batch_dedup_hits: int = 0
    batches: int = 0
    max_batch: int = 0
    infeasible: int = 0
    errors: int = 0
    backend_time_s: float = 0.0
    wall_time_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        """Requests that did not pay for a backend execution."""
        return self.requests - self.distinct

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def persistent_hit_rate(self) -> float:
        return self.persistent_hits / self.requests if self.requests else 0.0

    @property
    def mean_batch(self) -> float:
        return self.distinct / self.batches if self.batches else 0.0

    @property
    def infeasible_rate(self) -> float:
        """Fraction of paid evaluations that came back unbuildable."""
        return self.infeasible / self.distinct if self.distinct else 0.0

    def minus(self, other: "EvalStats") -> "EvalStats":
        """Per-field delta ``self - other`` (``max_batch`` keeps the max)."""
        delta = list(map(operator.sub, self, other))
        delta[_MAX_BATCH] = self.max_batch
        return EvalStats._make(delta)

    def counts(self) -> dict[str, int]:
        """The integer counters only (no timers) — what a checkpoint keeps."""
        return dict(zip(_COUNT_FIELDS, _count_values(self)))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view including the derived rates."""
        payload = self._asdict()
        payload["cache_hits"] = self.cache_hits
        payload["hit_rate"] = self.hit_rate
        payload["persistent_hit_rate"] = self.persistent_hit_rate
        payload["mean_batch"] = self.mean_batch
        payload["infeasible_rate"] = self.infeasible_rate
        return payload


_MAX_BATCH = EvalStats._fields.index("max_batch")
#: The integer counters, in field order (timers end in ``_s``).
_COUNT_FIELDS = tuple(
    name for name in EvalStats._fields if not name.endswith("_s")
)
_count_values = operator.itemgetter(*map(EvalStats._fields.index, _COUNT_FIELDS))
_read_counters = operator.attrgetter(*EvalStats._fields)


class _Counters:
    """Mutable counter block shared by the layers of one stack."""

    __slots__ = EvalStats._fields

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0.0 if name.endswith("_s") else 0)

    def snapshot(self) -> EvalStats:
        return EvalStats._make(_read_counters(self))


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def evaluator_fingerprint(evaluator: Any) -> str:
    """A stable identity string for an evaluator's *content*.

    The persistent cache keys rows by genome key **and** this fingerprint,
    so two evaluators that would score designs differently never share
    cached metrics. Evaluators may expose a ``fingerprint`` attribute or
    method (e.g. :class:`~repro.core.evaluator.DatasetEvaluator` hashes its
    dataset's rows); anything else falls back to its qualified class name.
    """
    fp = getattr(evaluator, "fingerprint", None)
    if callable(fp):
        fp = fp()
    if fp:
        return str(fp)
    cls = type(evaluator)
    return f"{cls.__module__}.{cls.__qualname__}"


# ---------------------------------------------------------------------------
# backend layers
# ---------------------------------------------------------------------------


class _InlineBackend:
    """Run the inner evaluator directly, one design at a time."""

    def __init__(self, inner: "Evaluator"):
        self.inner = inner

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        results: list[Outcome] = []
        for genome in genomes:
            try:
                results.append(self.inner.evaluate(genome))
            except Exception as exc:
                results.append(exc)
        return results


class _SharedBatch:
    """One thread-backend batch, its designs taken from one queue by the
    calling thread and by pool helpers.

    Each design's outcome lands at its submission index. A helper that
    meets a :class:`BaseException` records it and empties the queue; the
    calling thread re-raises it once the designs helpers took have
    finished.
    """

    __slots__ = ("_evaluate", "_genomes", "results", "_next", "_lock",
                 "_settled", "_helping", "_failure")

    def __init__(self, evaluate, genomes: Sequence[Genome]):
        self._evaluate = evaluate
        self._genomes = genomes
        self.results: list[Outcome] = [None] * len(genomes)
        self._next = 0
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        #: Designs a helper took and has not finished.
        self._helping = 0
        self._failure: BaseException | None = None

    def _take(self, helping: int = 0) -> int:
        """The next design's index, or -1 once the queue is empty;
        ``helping=1`` counts the design as taken by a helper."""
        with self._lock:
            i = self._next
            if i >= len(self._genomes):
                return -1
            self._next = i + 1
            self._helping += helping
            return i

    def _stop(self, failure: BaseException | None = None) -> None:
        """Empty the queue, keeping the first failure."""
        with self._lock:
            self._next = len(self._genomes)
            if self._failure is None:
                self._failure = failure

    def _run(self, i: int) -> None:
        try:
            self.results[i] = self._evaluate(self._genomes[i])
        except Exception as exc:
            self.results[i] = exc

    def help(self) -> None:
        """A pool helper: take designs until the queue is empty.

        Never raises, so no helper future holds an exception nobody reads.
        """
        i = self._take(1)
        while i >= 0:
            try:
                self._run(i)
            except BaseException as exc:
                self._stop(exc)
                return
            finally:
                with self._lock:
                    self._helping -= 1
                    if not self._helping:
                        self._settled.notify()
            i = self._take(1)

    def work(self, pool, helpers: int) -> list[Outcome]:
        """The calling thread's part: ask ``pool`` for ``helpers``
        helpers, take designs until the queue is empty, then wait only for
        the designs helpers took."""
        try:
            for __ in range(helpers):
                pool.submit(self.help)
            i = self._take()
            while i >= 0:
                self._run(i)
                i = self._take()
        except BaseException:
            self._stop()
            raise
        with self._lock:
            while self._helping:
                self._settled.wait()
            failure = self._failure
        if failure is not None:
            raise failure
        return self.results


class _PoolBackend:
    """Fan a batch out to a thread or process pool, preserving order.

    Per-design exceptions are captured and returned in place rather than
    aborting the batch — exactly how a cluster of synthesis jobs behaves
    when one run fails.

    ``executor`` is an optional caller-owned pool (see
    :class:`EvaluationStack`). A batch of one design runs on the calling
    thread: a pool cannot parallelize a single job. A thread batch is
    worked by the calling thread alongside up to ``workers - 1`` pool
    helpers, all taking designs from one queue: a batch of cheap designs
    is done before a helper wakes, and a saturated pool cannot stall a
    batch, since the calling thread always makes progress. A process
    pool cannot share the queue, so it gets one task per design.
    """

    def __init__(self, inner: "Evaluator", workers: int, kind: str, executor=None):
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        if workers < 1:
            raise NautilusError("workers must be >= 1")
        self.inner = inner
        self.workers = workers
        self.kind = kind
        self._executor = executor
        self._executor_cls = (
            ProcessPoolExecutor if kind == "process" else ThreadPoolExecutor
        )
        self._inline = _InlineBackend(inner)

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        if len(genomes) < 2:
            return self._inline.evaluate_many(genomes)
        if self.kind == "thread":
            return self._share(genomes)
        if self._executor is not None:
            return self._collect(self._executor, genomes)
        with self._executor_cls(max_workers=self.workers) as pool:
            return self._collect(pool, genomes)

    def _share(self, genomes: Sequence[Genome]) -> list[Outcome]:
        batch = _SharedBatch(self.inner.evaluate, genomes)
        helpers = min(self.workers, len(genomes)) - 1
        if self._executor is None and helpers:
            with self._executor_cls(max_workers=helpers) as pool:
                return batch.work(pool, helpers)
        return batch.work(self._executor, helpers)

    def _collect(self, pool, genomes: Sequence[Genome]) -> list[Outcome]:
        futures = [pool.submit(self.inner.evaluate, g) for g in genomes]
        results: list[Outcome] = []
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:
                results.append(exc)
        return results


# ---------------------------------------------------------------------------
# mid-stack layers
# ---------------------------------------------------------------------------


class _Instrumentation:
    """Charge distinct evaluations and time the backend per batch."""

    def __init__(self, next_layer, counters: _Counters, clock=time.perf_counter):
        self.next = next_layer
        self._counters = counters
        self._clock = clock

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        counters = self._counters
        counters.batches += 1
        counters.distinct += len(genomes)
        counters.max_batch = max(counters.max_batch, len(genomes))
        started = self._clock()
        outcomes = self.next.evaluate_many(genomes)
        counters.backend_time_s += self._clock() - started
        for outcome in outcomes:
            if isinstance(outcome, InfeasibleDesignError):
                counters.infeasible += 1
            elif isinstance(outcome, Exception):
                counters.errors += 1
        return outcomes


class _Batcher:
    """Coalesce duplicate keys within one batch; optionally chunk huge ones.

    Duplicates cost nothing extra — a generation that breeds the same
    genome twice pays for one synthesis job.
    """

    def __init__(self, next_layer, counters: _Counters, batch_size: int | None = None):
        if batch_size is not None and batch_size < 1:
            raise NautilusError("batch_size must be >= 1")
        self.next = next_layer
        self._counters = counters
        self._batch_size = batch_size

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        unique: list[Genome] = []
        index: dict[tuple, int] = {}
        for genome in genomes:
            if genome.key not in index:
                index[genome.key] = len(unique)
                unique.append(genome)
        self._counters.batch_dedup_hits += len(genomes) - len(unique)
        outcomes: list[Outcome] = []
        if self._batch_size is None:
            if unique:
                outcomes = self.next.evaluate_many(unique)
        else:
            for start in range(0, len(unique), self._batch_size):
                outcomes.extend(
                    self.next.evaluate_many(unique[start : start + self._batch_size])
                )
        return [outcomes[index[g.key]] for g in genomes]


class _StoreLayer:
    """Serve misses from the eval cache; record what the layers below paid for.

    ``cache`` (the stack's :class:`PersistentCache`, or None) serves hits.
    ``record`` is the one call that stores the outcomes the inner layers
    return, under ``campaign``: the archive's ``record_many`` when the
    stack has an archive, else the cache's ``put_many``. Recording draws
    no RNG and touches no counter, so seeded curves are bit-identical with
    or without an archive.
    """

    def __init__(
        self,
        next_layer,
        cache: "PersistentCache | None",
        record,
        fingerprint: str,
        campaign: str,
        counters: _Counters,
        clock=time.perf_counter,
    ):
        self.next = next_layer
        self.cache = cache
        self.record = record
        self.fingerprint = fingerprint
        self.campaign = campaign
        self._counters = counters
        self._clock = clock
        #: Timed writes since the last :meth:`pop_writes` — surfaced to
        #: tracing kernels as ``cache-write`` spans.
        self._writes: list[dict] = []

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        if self.cache is None:
            return self._pay(genomes)
        results: list[Outcome] = [None] * len(genomes)
        misses: list[Genome] = []
        positions: list[int] = []
        for i, genome in enumerate(genomes):
            found, metrics = self.cache.get(genome, self.fingerprint)
            if found:
                self._counters.persistent_hits += 1
                results[i] = (
                    metrics
                    if metrics is not None
                    else InfeasibleDesignError(
                        "design recorded as infeasible in the persistent cache"
                    )
                )
            else:
                misses.append(genome)
                positions.append(i)
        if misses:
            for position, outcome in zip(positions, self._pay(misses)):
                results[position] = outcome
        return results

    def _pay(self, genomes: Sequence[Genome]) -> list[Outcome]:
        """The inner layers' outcomes for ``genomes``, recorded and timed."""
        outcomes = self.next.evaluate_many(genomes)
        started = self._clock()
        self.record(zip(genomes, outcomes), self.fingerprint, campaign=self.campaign)
        self._writes.append(
            {"entries": len(genomes), "duration_s": self._clock() - started}
        )
        return outcomes

    def pop_writes(self) -> list[dict]:
        """Timed writes since the last call (then reset)."""
        writes, self._writes = self._writes, []
        return writes


class _MemoCache:
    """The outermost layer: in-memory memoization and request accounting."""

    def __init__(self, next_layer, counters: _Counters):
        self.next = next_layer
        self.entries: dict[tuple, Outcome] = {}
        self._counters = counters

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        entries = self.entries
        self._counters.requests += len(genomes)
        misses = [g for g in genomes if g.key not in entries]
        self._counters.memo_hits += len(genomes) - len(misses)
        if misses:
            for genome, outcome in zip(misses, self.next.evaluate_many(misses)):
                entries[genome.key] = outcome
        return [entries[g.key] for g in genomes]


# ---------------------------------------------------------------------------
# the row store
# ---------------------------------------------------------------------------


def _parse_row(payload: Any) -> tuple | None:
    """``(values key, metrics, campaign)`` of one row line's payload, or None
    for anything but an object with list ``values`` and object-or-null
    ``metrics``."""
    if not isinstance(payload, dict) or "metrics" not in payload:
        return None
    values, metrics = payload.get("values"), payload["metrics"]
    if not isinstance(values, list) or not (
        metrics is None or isinstance(metrics, dict)
    ):
        return None
    key = values_key(values)
    try:
        hash(key)
    except TypeError:
        return None
    campaign = payload.get("campaign", "")
    return key, metrics, campaign if isinstance(campaign, str) else ""


def _read_file(path: Path) -> tuple[Any, list[tuple], int]:
    """One store file: its header, its rows as ``(values key, metrics,
    campaign)`` in file order, and how many lines were skipped because
    they are torn or not rows.

    The header is the first line that parses and is not a row: a writer
    killed inside a new file's header leaves a torn first line, and the
    header the next writer adds follows it. A file whose torn header line
    was followed by rows alone has no header, and still loads its rows.
    """
    header: Any = None
    rows: list[tuple] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            try:
                payload = json.loads(line)
            except ValueError:
                skipped += 1  # a torn line from a killed writer
                continue
            row = _parse_row(payload)
            if row is not None:
                rows.append(row)
            elif header is None:
                header = payload
            else:
                skipped += 1
    return header, rows, skipped


def _holds_a_line(path: Path) -> bool:
    """Whether a file holds a complete line. A headerless file that holds
    none gets its header from :func:`~repro.core.fileio.open_append`; one
    that does (a torn header ended by a newline) needs a rewrite."""
    with open(path, "rb") as fh:
        return fh.readline().endswith(b"\n")


def _first_header(lines: Iterable[str]) -> Any:
    """The header :func:`_read_file` finds, reading no further than it."""
    for line in lines:
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if _parse_row(payload) is None:
            return payload
    return None


def _named_by(header: Any) -> tuple[str, tuple[str, ...], str] | None:
    """The ``(space, params, fingerprint)`` a store header names, or None."""
    if not isinstance(header, dict):
        return None
    space, params = header.get("space"), header.get("params")
    fingerprint = header.get("fingerprint")
    if not (
        space
        and isinstance(space, str)
        and isinstance(params, list)
        and isinstance(fingerprint, str)
    ):
        return None
    return space, tuple(params), fingerprint


def _encode_rows(rows: dict[tuple, tuple[dict | None, str]]) -> str:
    return "".join(
        dumps({"values": list(key), "metrics": metrics, "campaign": campaign})
        + "\n"
        for key, (metrics, campaign) in rows.items()
    )


def _first_rows(rows: Iterable[tuple]) -> dict[tuple, tuple[dict | None, str]]:
    """``(values key, metrics, campaign)`` rows keyed by values, the first
    row of each design winning, in file order."""
    kept: dict[tuple, tuple[dict | None, str]] = {}
    for key, metrics, campaign in rows:
        kept.setdefault(key, (metrics, campaign))
    return kept


def _rewrite(path: Path, header: Any, rows: dict[tuple, tuple[dict | None, str]]) -> None:
    """Replace a store file, atomically (tmp + rename), with ``header``
    and ``rows``."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as out:
        out.write(dumps(header) + "\n")
        out.write(_encode_rows(rows))
    tmp.replace(path)


class PersistentCache:
    """The one store of paid-for evaluations, append-only and shared
    across runs.

    The eval cache (``nautilus serve --eval-cache``) is a store, and the
    design archive (:class:`repro.archive.DesignArchive`) is queries over
    one. Layout: one JSON-lines file per (design space, evaluator
    fingerprint) under ``root``, named
    ``<space>-<sha1(fingerprint)[:12]>.jsonl``. The first line is a
    self-describing header (space, parameter names, the full fingerprint);
    each following line is one design point and the campaign that paid
    for it::

        {"space": "spiral_fft", "params": ["radix", ...], "fingerprint": "..."}
        {"values": [4, 16, ...], "metrics": {"luts": 512.0, ...}, "campaign": "c000003"}
        {"values": [8, 16, ...], "metrics": null, "campaign": "c000003"}

    Older files load too: archive headers add ``kind`` and ``schema``, and
    eval-cache rows carry no ``campaign`` (read as ``""``).

    ``metrics: null`` records an :class:`InfeasibleDesignError` — a failed
    synthesis attempt still consumed a job, and replaying it must fail the
    same way. The first row stored for a design wins: two evaluators
    sharing a fingerprint return identical metrics. A batch's rows are
    appended with one write and flushed, and enter the in-memory index only
    once written. Each file is appended to through one handle kept open
    across puts (:class:`~repro.core.fileio.KeptAppender`), whose guard
    reopens the file whenever it was deleted, replaced or appended to by
    another writer since this store's last write; :meth:`close` closes the
    handles. A line that does not parse, or is not a row object, is
    skipped on load — a torn trailing line from a killed daemon among
    them; the next append starts on a line of its own, and a file left
    empty gets its header (see :func:`~repro.core.fileio.open_append`). A
    file whose header was lost (torn, then ended by a newline, with or
    without rows after it) is rewritten with its header before the first
    put into it. So the store survives crashes without any locking
    protocol beyond append.

    Thread safety: one lock guards the in-memory index and file appends,
    so every campaign stack of a daemon shares one instance.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        #: (space, fingerprint) -> (params, {values key: (metrics | None, campaign)})
        self._index: dict[tuple[str, str], tuple[tuple[str, ...], dict]] = {}
        #: One kept append handle per store file written to.
        self._appenders: dict[Path, KeptAppender] = {}
        #: (space, fingerprint) whose file loaded no header but holds rows
        #: or a complete line.
        self._headerless: set[tuple[str, str]] = set()

    # -- file mapping -----------------------------------------------------------

    def _path(self, space_name: str, fingerprint: str) -> Path:
        digest = hashlib.sha1(fingerprint.encode("utf-8")).hexdigest()[:12]
        return self.root / f"{space_name}-{digest}.jsonl"

    def _paths(self) -> list[Path]:
        return sorted(self.root.glob("*.jsonl")) if self.root.is_dir() else []

    # The canonical key (repro.core.params.values_key) — the same frozen
    # form Genome.key carries, so JSON round-trips (tuples → lists) land
    # back on identical keys. This *is* the on-disk key format; changing it
    # orphans every existing store file.
    _values_key = staticmethod(values_key)

    def _load(
        self, space_name: str, params: tuple[str, ...], fingerprint: str
    ) -> dict[tuple, tuple[dict | None, str]]:
        """The index of one (space, fingerprint) file, read on first
        access. Call it with the lock held."""
        slot = self._index.get((space_name, fingerprint))
        if slot is not None:
            if slot[0] is not params and slot[0] != params:
                raise NautilusError(
                    f"store for space {space_name!r} indexes parameters "
                    f"{slot[0]!r}, not {params!r}"
                )
            return slot[1]
        rows: dict[tuple, tuple[dict | None, str]] = {}
        path = self._path(space_name, fingerprint)
        if path.exists():
            header, parsed, __ = _read_file(path)
            if header is not None and _named_by(header) != (
                space_name, params, fingerprint
            ):
                raise NautilusError(
                    f"store file {path} does not match space {space_name!r} "
                    f"/ parameters {params!r} / fingerprint {fingerprint!r}"
                )
            if header is None and (parsed or _holds_a_line(path)):
                self._headerless.add((space_name, fingerprint))
            rows = _first_rows(parsed)
        self._index[(space_name, fingerprint)] = (params, rows)
        return rows

    # -- access -----------------------------------------------------------------

    def get(self, genome: Genome, fingerprint: str) -> tuple[bool, dict | None]:
        """``(found, metrics)``; ``metrics is None`` marks infeasible."""
        space = genome.space
        with self._lock:
            row = self._load(space.name, space.param_names, fingerprint).get(
                genome.key[1]
            )
        if row is None:
            return False, None
        metrics = row[0]
        return True, dict(metrics) if metrics is not None else None

    def put_many(self, outcomes, fingerprint: str, campaign: str = "") -> int:
        """Store fresh ``(genome, outcome)`` rows under ``campaign``;
        returns rows written.

        Metrics and :class:`InfeasibleDesignError` outcomes are stored;
        other exceptions (transient failures, setup bugs) are not — they
        must not poison future campaigns. A design already stored keeps
        its first row.
        """
        grouped: dict[str, tuple["DesignSpace", list]] = {}
        for genome, outcome in outcomes:
            if isinstance(outcome, InfeasibleDesignError):
                metrics = None
            elif isinstance(outcome, Exception):
                continue
            else:
                metrics = dict(outcome)
            space = genome.space
            grouped.setdefault(space.name, (space, []))[1].append(
                (genome.key[1], metrics, campaign)
            )
        return sum(
            self.put_rows(space.name, space.param_names, fingerprint, rows)
            for space, rows in grouped.values()
        )

    def put_rows(
        self,
        space_name: str,
        params: Sequence[str],
        fingerprint: str,
        rows: Iterable[tuple[tuple, dict | None, str]],
    ) -> int:
        """Append the ``(values key, metrics, campaign)`` rows of one file
        that the store lacks; returns rows written.

        The new lines are encoded first, then written together and
        flushed, and only then indexed: a row that fails to encode or write
        is not stored. The first put into a file that loaded without a
        header rewrites it first, as :meth:`compact` would with one.
        """
        params = tuple(params)
        with self._lock:
            index = self._load(space_name, params, fingerprint)
            fresh: dict[tuple, tuple[dict | None, str]] = {}
            for key, metrics, campaign in rows:
                if key not in index:
                    fresh.setdefault(key, (metrics, campaign))
            if not fresh:
                return 0
            lines = _encode_rows(fresh)
            path = self._path(space_name, fingerprint)
            header = {
                "space": space_name,
                "params": list(params),
                "fingerprint": fingerprint,
            }
            if (space_name, fingerprint) in self._headerless:
                found, parsed, __ = _read_file(path)
                if found is None:  # no other writer restored it since
                    _rewrite(path, header, _first_rows(parsed))
                self._headerless.discard((space_name, fingerprint))
            appender = self._appenders.get(path)
            if appender is None:
                appender = self._appenders[path] = KeptAppender(path)
            appender.append(lines, header)
            index.update(fresh)
            return len(fresh)

    def rows(
        self, space_name: str, params: Sequence[str], fingerprint: str
    ) -> list[tuple[tuple, tuple[dict | None, str]]]:
        """``(values key, (metrics, campaign))`` for every row of one
        (space, fingerprint), in the order they were first written."""
        with self._lock:
            return list(self._load(space_name, tuple(params), fingerprint).items())

    def files(self) -> list[tuple[str, tuple[str, ...], str]]:
        """``(space, params, fingerprint)`` of every store file under
        ``root``, by file name; a file without a store header (see
        :func:`_read_file`), or whose name is not the one its header
        implies, is not a store file."""
        found = []
        with self._lock:
            for path in self._paths():
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        named = _named_by(_first_header(fh))
                except (OSError, ValueError):
                    continue
                if named is not None and path == self._path(named[0], named[2]):
                    found.append(named)
        return found

    def entries(self, space: "DesignSpace", fingerprint: str) -> int:
        """Number of stored rows for one (space, fingerprint)."""
        with self._lock:
            return len(self._load(space.name, space.param_names, fingerprint))

    def compact(self) -> dict[str, Any]:
        """Rewrite every store file, dropping duplicate and torn rows.

        ``put_rows`` dedupes within one process, but several writers
        appending to the same file (fleet workers, parallel daemons,
        repeated crash-restart cycles) accrete duplicate rows — the file
        only ever grows. Compaction keeps each design's first row (the one
        reads serve) in file order and drops duplicates and lines that do
        not parse or are not rows. A file that had any is rewritten
        atomically (tmp + rename): its header as it was, its rows in the
        current format. The in-memory index is cleared so the next access
        reloads from the rewritten files.

        Run it only while no daemon appends to ``root``: a row appended
        between a file's read and its replace is lost.

        Returns ``{"files": {name: {"rows", "reclaimed"}}, "rows", "reclaimed"}``.
        """
        report: dict[str, Any] = {"files": {}, "rows": 0, "reclaimed": 0}
        with self._lock:
            self._close_appenders()
            for path in self._paths():
                header, rows, dropped = _read_file(path)
                if header is None:
                    continue  # empty or headerless file; nothing to keep
                kept = _first_rows(rows)
                dropped += len(rows) - len(kept)
                if dropped:
                    _rewrite(path, header, kept)
                report["files"][path.name] = {
                    "rows": len(kept),
                    "reclaimed": dropped,
                }
                report["rows"] += len(kept)
                report["reclaimed"] += dropped
            self._index.clear()
            self._headerless.clear()
        return report

    def close(self) -> None:
        """Close every kept append handle; a later put reopens its file."""
        with self._lock:
            self._close_appenders()

    def _close_appenders(self) -> None:
        appenders, self._appenders = self._appenders, {}
        for appender in appenders.values():
            appender.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PersistentCache({str(self.root)!r})"


# ---------------------------------------------------------------------------
# the stack
# ---------------------------------------------------------------------------


class _RegistryMetrics:
    """Publishes stack counters into a Prometheus-style metrics registry.

    The registry is duck-typed (``counter``/``histogram`` factories with
    ``inc``/``observe``) so :mod:`repro.core` never imports
    :mod:`repro.obs`; in practice it is a
    :class:`repro.obs.registry.MetricsRegistry` shared by every campaign
    stack of one service daemon.
    """

    def __init__(self, registry):
        self.requests = registry.counter(
            "nautilus_eval_requests_total",
            "Evaluation requests, including every kind of cache hit.",
        )
        self.distinct = registry.counter(
            "nautilus_eval_distinct_total",
            "Distinct designs paid for at the backend (synthesis jobs).",
        )
        self.memo_hits = registry.counter(
            "nautilus_eval_memo_hits_total",
            "Requests served by the in-memory memo cache.",
        )
        self.persistent_hits = registry.counter(
            "nautilus_eval_persistent_hits_total",
            "Requests served by the persistent on-disk cache.",
        )
        self.infeasible = registry.counter(
            "nautilus_eval_infeasible_total",
            "Paid evaluations that came back unbuildable.",
        )
        self.errors = registry.counter(
            "nautilus_eval_errors_total",
            "Paid evaluations that raised a non-infeasibility error.",
        )
        self.batch_seconds = registry.histogram(
            "nautilus_eval_batch_seconds",
            "Wall time of one evaluation batch through the stack.",
        )

    def record(self, delta: EvalStats, elapsed_s: float) -> None:
        if delta.requests:
            self.requests.inc(delta.requests)
        if delta.distinct:
            self.distinct.inc(delta.distinct)
        if delta.memo_hits:
            self.memo_hits.inc(delta.memo_hits)
        if delta.persistent_hits:
            self.persistent_hits.inc(delta.persistent_hits)
        if delta.infeasible:
            self.infeasible.inc(delta.infeasible)
        if delta.errors:
            self.errors.inc(delta.errors)
        self.batch_seconds.observe(elapsed_s)


class EvaluationStack:
    """One layered, batch-first evaluation pipeline (see module docstring).

    Args:
        inner: The base evaluator that actually scores designs.
        backend: ``"inline"`` (default: one design at a time on the calling
            thread), ``"thread"`` or ``"process"`` (pool fan-out, results
            in submission order, each design's exception returned in its
            place; the useful pool size is the GA population — the paper's
            parallelism cap; a ``"process"`` evaluator must be picklable),
            or ``"fleet"`` (dispatch batches to the distributed worker
            fleet of ``fleet``, degrading to inline execution when no
            worker can serve the space — see :mod:`repro.distributed`).
        workers: Pool size for the thread/process backends.
        executor: Optional pool the thread/process backend submits to,
            owned by the caller (the service scheduler shares one per
            worker count among every campaign). The stack never shuts it
            down. Without one, each batch starts and joins its own pool.
        fleet: The :class:`repro.distributed.FleetCoordinator` backing the
            ``"fleet"`` backend (required for it, ignored otherwise).
        persistent: Optional shared :class:`PersistentCache` (the eval
            cache) that serves hits; campaigns over the same space then
            never re-pay a synthesis job, across processes and daemon
            restarts. Given with ``archive``, it must be ``archive.store``.
        batch_size: Optional chunking of huge batches (the dataset
            characterization pipeline streams a whole space through one
            stack this way).
        fingerprint: Evaluator-content fingerprint override; defaults to
            :func:`evaluator_fingerprint` of ``inner``, computed on first
            read of :attr:`fingerprint`.
        clock: Timer used for the wall/backend timings (tests inject one).
        registry: Optional :class:`repro.obs.registry.MetricsRegistry`;
            when given, the stack also publishes its counters as
            Prometheus families (``nautilus_eval_*``) after every batch.
            Duck-typed — the stack never imports :mod:`repro.obs` — and
            purely additive: the :class:`EvalStats` accounting is
            byte-for-byte identical with or without a registry.
        archive: Optional :class:`repro.archive.DesignArchive`. The rows
            the backend pays for, and every row :meth:`preload` restores,
            are recorded through its ``record_many`` under ``campaign``;
            without one they go to ``persistent``. Recording changes no
            counter and draws no RNG, so seeded curves are identical with
            or without an archive.
        campaign: Campaign id stamped onto stored rows.
    """

    def __init__(
        self,
        inner: "Evaluator",
        *,
        backend: str = "inline",
        workers: int = 1,
        persistent: PersistentCache | None = None,
        batch_size: int | None = None,
        fingerprint: str | None = None,
        clock=time.perf_counter,
        registry=None,
        fleet=None,
        archive=None,
        campaign: str = "",
        executor=None,
    ):
        if backend not in _BACKENDS:
            raise NautilusError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        if isinstance(inner, EvaluationStack):
            raise NautilusError("cannot stack an EvaluationStack inside another")
        if persistent is not None and archive is not None and (
            archive.store is not persistent
        ):
            raise NautilusError(
                "an eval cache given with an archive must be the archive's "
                "store (persistent=archive.store)"
            )
        self.inner = inner
        self.backend_kind = backend
        self.workers = workers
        self.persistent = persistent
        self.archive = archive
        self.campaign = campaign
        self._fingerprint = fingerprint or None
        self._counters = _Counters()
        self._clock = clock
        self.registry = registry
        self._metrics = _RegistryMetrics(registry) if registry is not None else None

        if backend == "fleet":
            if fleet is None:
                raise NautilusError(
                    "backend='fleet' requires a FleetCoordinator via fleet="
                )
            # Imported lazily: repro.distributed depends on this module.
            from ..distributed.fleetbackend import FleetBackend

            tail = FleetBackend(inner, fleet, self.fingerprint)
        elif backend in ("thread", "process"):
            tail = _PoolBackend(
                inner, workers=workers, kind=backend, executor=executor
            )
        else:
            tail = _InlineBackend(inner)
        self._tail = tail
        layer = _Instrumentation(tail, self._counters, clock=clock)
        layer = _Batcher(layer, self._counters, batch_size=batch_size)
        self._store_layer: _StoreLayer | None = None
        if archive is not None or persistent is not None:
            layer = self._store_layer = _StoreLayer(
                layer,
                persistent,
                archive.record_many if archive is not None else persistent.put_many,
                self.fingerprint,
                campaign,
                self._counters,
                clock=clock,
            )
        self._memo = _MemoCache(layer, self._counters)

    @property
    def fingerprint(self) -> str:
        """The inner evaluator's content fingerprint, computed on first read.

        Only the store layer, the fleet backend and their callers read it;
        for a dataset it hashes every row, which a stack without those
        layers never needs to pay.
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            fingerprint = self._fingerprint = evaluator_fingerprint(self.inner)
        return fingerprint

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def wrap(cls, evaluator: "Evaluator | EvaluationStack", **options) -> "EvaluationStack":
        """Return ``evaluator`` unchanged if it already is a stack."""
        if isinstance(evaluator, EvaluationStack):
            return evaluator
        return cls(evaluator, **options)

    # -- evaluation -------------------------------------------------------------

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        """Evaluate a batch; one metrics dict or exception per genome.

        This is the primitive every layer composes over; callers re-raise
        or score exceptions as infeasible as appropriate.
        """
        batch = list(genomes)
        before = self._counters.snapshot() if self._metrics is not None else None
        started = self._clock()
        outcomes = self._memo.evaluate_many(batch)
        elapsed = self._clock() - started
        self._counters.wall_time_s += elapsed
        if self._metrics is not None and batch:
            self._metrics.record(self._counters.snapshot().minus(before), elapsed)
        return outcomes

    def evaluate(self, genome: Genome) -> Metrics:
        """A batch of one. Cached failures re-raise as *fresh* copies.

        Re-raising the cached exception instance itself would append to its
        ``__traceback__`` on every revisit, growing an unbounded chain over
        a long campaign; the copy keeps the original (with its first
        traceback) reachable as ``__cause__`` instead.
        """
        outcome = self.evaluate_many([genome])[0]
        if isinstance(outcome, Exception):
            raise _fresh_exception(outcome) from outcome
        return outcome

    def seen(self, genome: Genome) -> bool:
        """Whether this design point is already memoized."""
        return genome.key in self._memo.entries

    # -- accounting -------------------------------------------------------------

    @property
    def distinct_evaluations(self) -> int:
        """Unique design points paid for at the backend (synthesis jobs)."""
        return self._counters.distinct

    @property
    def total_requests(self) -> int:
        """Evaluation requests, including every kind of cache hit."""
        return self._counters.requests

    @property
    def cache_hits(self) -> int:
        """Requests served without paying for a backend execution."""
        return self._counters.requests - self._counters.distinct

    def stats(self) -> EvalStats:
        """A consistent snapshot of every layer's counters and timers."""
        return self._counters.snapshot()

    def pop_annotations(self) -> dict[str, Any] | None:
        """Backend-specific trace annotations since the last call, or None.

        Duck-typed on the tail backend: the fleet backend reports which
        workers served the recent evaluations (``{"workers": {name: n}}``)
        so run traces can attribute eval batches; local backends have
        nothing to add and the kernel emits its events unchanged.
        """
        pop = getattr(self._tail, "pop_dispatch_log", None)
        if pop is None:
            return None
        log = pop()
        return {"workers": log} if log else None

    # -- span tracing pass-throughs (duck-typed; see repro.obs.tracing) ----------

    def push_trace_context(self, ctx: dict[str, Any]) -> None:
        """Forward a span context to the tail backend for the next batch.

        Only the fleet backend consumes it (the context travels in the
        protocol's batch frames); other backends have no hook and the call
        is a no-op, so tracing kernels can push unconditionally.
        """
        push = getattr(self._tail, "push_trace_context", None)
        if push is not None:
            push(ctx)

    def pop_task_traces(self) -> list[dict[str, Any]]:
        """Per-task fleet timelines since the last call (empty inline)."""
        pop = getattr(self._tail, "pop_task_traces", None)
        return pop() if pop is not None else []

    def pop_cache_writes(self) -> list[dict[str, Any]]:
        """Timed store writes since the last call."""
        layer = self._store_layer
        return layer.pop_writes() if layer is not None else []

    # -- memo import/export (checkpointing) -------------------------------------

    def memo_items(self, start: int = 0) -> Iterator[tuple[tuple, Outcome]]:
        """Iterate ``(genome key, outcome)`` over the in-memory cache.

        Entries come in insertion order and are never removed, so
        ``start`` skips the first ``start`` of them — a checkpoint journal
        uses it as a watermark to export only the rows added since its
        previous line.
        """
        return islice(self._memo.entries.items(), start, None)

    def preload(self, rows: Iterable[tuple[Genome, Metrics | None]]) -> None:
        """Seed the memo with already-paid-for ``(genome, metrics)`` rows
        (checkpoint resume).

        ``metrics=None`` restores an infeasible result. Counters are left
        alone: a resumed search restores them with :meth:`restore_counts`
        from the same checkpoint, so a row served by the persistent cache
        before the interruption stays a persistent hit. With an archive or
        an eval cache, the rows are recorded in one call under the stack's
        campaign, as the store layer records the rows it pays for.
        """
        entries = self._memo.entries
        restored = []
        for genome, metrics in rows:
            outcome: Outcome = (
                metrics
                if metrics is not None
                else InfeasibleDesignError("restored from checkpoint")
            )
            entries[genome.key] = outcome
            restored.append((genome, outcome))
        layer = self._store_layer
        if layer is not None and restored:
            layer.record(restored, self.fingerprint, campaign=self.campaign)

    def restore_counts(self, counts: dict[str, int]) -> None:
        """Overwrite the integer counters (see :meth:`EvalStats.counts`).

        Timers are not restored: they measure this process. Missing names
        keep their current value.
        """
        for name, value in counts.items():
            if name in _Counters.__slots__ and not name.endswith("_s"):
                setattr(self._counters, name, int(value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self._counters
        return (
            f"EvaluationStack({type(self.inner).__name__}, "
            f"backend={self.backend_kind!r}, distinct={s.distinct}, "
            f"requests={s.requests})"
        )


def _fresh_exception(exc: Exception) -> Exception:
    """A traceback-free copy of a cached exception, safe to re-raise."""
    try:
        fresh = copy.copy(exc)
        if fresh is exc:  # a pathological __copy__; fall back to the original
            return exc
    except Exception:
        return exc
    fresh.__traceback__ = None
    return fresh
