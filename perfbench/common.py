"""Pieces shared by the benchmark runner, its traced CLI child and its self-test.

The benchmark measures binpack3d from outside: it imports the package from
the checkout's own ``src/`` directory and never from an installed copy, so a
checkout without sources fails instead of measuring something else.
"""

from __future__ import annotations

import gc
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (sources missing or foreign)."""


def import_package():
    """Import binpack3d from ``<checkout>/src`` and return the module."""
    if not os.path.isfile(os.path.join(SRC, "binpack3d", "__init__.py")):
        raise SetupError(f"no binpack3d sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import binpack3d

    if not os.path.abspath(binpack3d.__file__).startswith(SRC + os.sep):
        raise SetupError(f"binpack3d imported from {binpack3d.__file__}, not {SRC}")
    return binpack3d


def lower_bound(inst) -> float:
    """Volume lower bound on the objective of a single-bin instance.

    ``H + max(V / (L * W), max_i mindim_i) + sum_i w_i * mindim_i``: the used
    bin costs its height H; its top g holds the packed volume V over the
    floor and the tallest case at its flattest; every case top is at least
    its smallest dimension.  Valid for free (6-way) rotation only.
    """
    if inst.num_bins != 1:
        raise ValueError(f"{inst.name}: the volume bound needs exactly one bin")
    bn = inst.bins[0]
    m = inst.num_cases
    vmax = max(c.volume for c in inst.cases)
    volume = sum(c.volume for c in inst.cases)
    mindims = [min(c.length, c.width, c.height) for c in inst.cases]
    top = max(volume / (bn.length * bn.width), max(mindims))
    weighted = sum(c.volume / (m * vmax) * d for c, d in zip(inst.cases, mindims))
    return bn.height + top + weighted


class Tracer:
    """In-memory spans around calls into the package's public functions.

    ``call`` records ``(name, start, end)`` for each call; spans stay in
    memory and are written out once the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((name, start, time.perf_counter()))
        return result

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end in self.spans if n == name)


def untraced_call(_name: str, fn, *args, **kwargs):
    """Drop-in for ``Tracer.call`` that records nothing."""
    return fn(*args, **kwargs)


# Calibration-loop rate (chunks per second) that counts as speed 1.0.  It
# only fixes the scale of reference seconds: about the loop's typical rate
# on a shared 2-vCPU Xeon virtual machine with Python 3.11.
REFERENCE_RATE = 6500.0

# 100 x 100 float64 temporaries (80 KB) stay below glibc's initial mmap
# threshold (128 KB), so the loop's rate does not depend on what the
# process allocated and freed before: larger ones are mmapped afresh on
# every chunk until a large free raises the threshold.
_PROBE_ARRAY = np.linspace(0.0, 50.0, 100)


def _probe_chunk() -> float:
    """Under a millisecond of the package's kind of work: small tuples and
    dicts, string formatting and a broadcast numpy reduction.  It never calls
    the package, so a faster package does not change the machine's speed."""
    rows = [(i, i * 0.5, str(i)) for i in range(300)]
    index = {r[2]: r for r in rows}
    total = sum(index[str(i)][1] for i in range(0, 300, 3))
    text = " ".join(f"{x:.3f}" for _, x, _ in rows[:100])
    spread = np.maximum(_PROBE_ARRAY[:, None] - _PROBE_ARRAY[None, :], 0.0)
    return total + len(text) + float(spread.sum(axis=1)[0])


def machine_speed(seconds: float) -> float:
    """Rate of the calibration loop over ``seconds``, relative to
    REFERENCE_RATE.  The collector is paused so the size of the caller's
    heap does not slow the loop."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        chunks = 0
        while (elapsed := time.perf_counter() - start) < seconds:
            _probe_chunk()
            chunks += 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return chunks / elapsed / REFERENCE_RATE


class SpeedClock:
    """Converts measured seconds into seconds at the reference speed.

    The speed of a shared virtual machine drifts, by up to a factor of two
    within a minute, and an unchanged program's wall time drifts with it.
    The clock runs the calibration loop for ``probe_s`` seconds at the start
    and after each timed stretch, and scales the stretch by the mean speed
    at its two ends.
    """

    def __init__(self, probe_s: float) -> None:
        self.probe_s = probe_s
        self.speeds = [machine_speed(probe_s)]

    def scale(self, seconds: float) -> float:
        """Scale a stretch measured since the previous probe."""
        self.speeds.append(machine_speed(self.probe_s))
        return seconds * (self.speeds[-2] + self.speeds[-1]) / 2

    def start(self) -> None:
        """Start the stretch that the next ``lap`` measures."""
        self._since = time.perf_counter()

    def lap(self) -> float:
        """Scaled seconds since ``start`` or the previous lap, whose probe
        is not counted."""
        scaled = self.scale(time.perf_counter() - self._since)
        self._since = time.perf_counter()
        return scaled
