"""Reference kernel and drift clock for host-speed correction.

The host's CPU speed drifts by up to a factor of two from one run to the
next (shared cores, frequency scaling), so a raw wall-clock time measures
the host as much as the program. A fixed pure-Python kernel, timed in the
measured process right around each timed item, gives the host's speed at
that moment; dividing an item's wall time by it and multiplying by the
nominal kernel time recorded in ``perfbench/config.json`` gives the item's
time at nominal host speed.

This module uses the standard library only and never imports ``repro``:
the kernel must stay the same code whatever the program under test does.
"""

from __future__ import annotations

import gc
import statistics
import time

__all__ = ["reference_kernel", "DriftClock", "corrected"]


def reference_kernel() -> int:
    """Fixed interpreter work: dict updates, tuple building, a sort.

    0.9-1.6 ms on the 2-vCPU host the benchmark was tuned on, as its load
    changes; the mix resembles the program's own hot loops (dict lookups,
    small tuples, list appends).
    """
    acc = 0
    table: dict[int, int] = {}
    rows = []
    for i in range(2000):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        rows.append((key, i % 7, i))
        acc ^= key
    rows.sort()
    return acc + len(table) + rows[0][2]


class DriftClock:
    """Time the reference kernel in short windows while the process idles.

    One :meth:`read` takes ``WINDOWS`` valid windows of ``REPEATS`` kernel
    runs each and returns the median run, with the cyclic garbage collector
    paused so that the program's garbage is collected on the program's
    clock, not the kernel's. A window is invalid when other threads of the
    process used CPU during it (process CPU time minus this thread's CPU
    time above ``MAX_FOREIGN_SHARE`` of the window): work a change leaves
    running in the background would otherwise slow the kernel and read as
    a gain. Invalid windows are dropped; a read gives up after
    ``WINDOWS + RETRIES`` attempts.
    """

    REPEATS = 5
    WINDOWS = 3
    RETRIES = 6
    MAX_FOREIGN_SHARE = 0.02

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.invalid_windows = 0

    def _window(self) -> list[float] | None:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            cpu0, own0 = time.process_time(), time.thread_time()
            wall0 = time.perf_counter()
            samples = []
            for _ in range(self.REPEATS):
                t0 = time.perf_counter()
                reference_kernel()
                samples.append(time.perf_counter() - t0)
            wall = time.perf_counter() - wall0
            foreign = (time.process_time() - cpu0) - (time.thread_time() - own0)
        finally:
            if was_enabled:
                gc.enable()
        if foreign > self.MAX_FOREIGN_SHARE * wall:
            self.invalid_windows += 1
            return None
        return samples

    def read(self) -> float | None:
        """Median kernel seconds over the valid windows; None if none was."""
        samples: list[float] = []
        valid = 0
        for _ in range(self.WINDOWS + self.RETRIES):
            window = self._window()
            if window is not None:
                samples.extend(window)
                valid += 1
                if valid == self.WINDOWS:
                    break
        if not samples:
            return None
        value = statistics.median(samples)
        self.readings.append(value)
        return value

    def median(self) -> float | None:
        """Median over every valid reading so far."""
        return statistics.median(self.readings) if self.readings else None


def corrected(
    raw_s: float,
    before: float | None,
    after: float | None,
    nominal_s: float,
) -> float:
    """An item's time at nominal host speed, from the readings around it.

    With no valid reading on either side the raw time is returned: the
    kernel could not be trusted, so nothing is corrected.
    """
    readings = [r for r in (before, after) if r is not None]
    if not readings:
        return raw_s
    return raw_s * nominal_s / statistics.fmean(readings)
