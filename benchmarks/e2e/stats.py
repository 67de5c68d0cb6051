"""Sample statistics, timing loops and result stamping shared by the workloads."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

#: seconds one execution of the reference probe stands for (what it takes on
#: the quiet 2-core reference host), so corrected times read as that host's.
REFERENCE_S = 0.002


class Reference:
    """The interference yardstick timed beside every measured operation.

    The host is a shared 2-vCPU VM: for minutes at a time it runs this process
    up to 1.6x slower (CPU time rises with wall time, so it is not
    descheduling), and over 23 windows of 10 s of one statement the median
    moved by 39 % between windows and p10 by 25 %.  A fixed bare-NumPy minibatch SGD (many
    small array calls, the system's own inner-loop shape) slows by nearly the
    same factor, so each operation's seconds are divided by the probe's
    seconds next to it and multiplied by :data:`REFERENCE_S`; the median of
    the corrected samples moved by 3 %.  The probe never touches ``src/`` and
    its data is fixed, so a slower system still reads slower.
    """

    def __init__(self) -> None:
        rows = np.random.default_rng(0).normal(size=(8192, 17))
        self._x, self._y = rows[:, :16], rows[:, 16]

    def _run(self) -> None:
        # Frozen on purpose: changing this arithmetic redefines every
        # corrected metric, so it shares no code with the NumPy floors.
        x, y = self._x, self._y
        w = np.zeros(16)
        for start in range(0, len(x), 16):
            xb = x[start : start + 16]
            w = w - 0.003 * ((xb @ w - y[start : start + 16]) @ xb)

    def seconds(self, repeats: int = 3) -> float:
        """Median seconds of ``repeats`` executions of the probe."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


@dataclass
class Samples:
    """Seconds per operation of one measured loop, and the probes between them."""

    raw: list[float] = field(default_factory=list)
    #: probe seconds before each operation, plus one after the last.
    probes: list[float] = field(default_factory=list)

    def factors(self) -> list[float]:
        """Per operation: ``REFERENCE_S`` over the mean of the probes either side."""
        return [
            2.0 * REFERENCE_S / (before + after)
            for before, after in zip(self.probes, self.probes[1:])
        ]

    @property
    def corrected(self) -> list[float]:
        """``raw`` as the quiet reference host would have timed it."""
        return [s * f for s, f in zip(self.raw, self.factors())]


def summary(samples: Sequence[float]) -> dict:
    """Sample count, median and quartiles (``statistics.quantiles`` n=4)."""
    values = [float(v) for v in samples]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    """Seconds one call took (``gc.collect()`` runs before the timer)."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def median_seconds(fn: Callable[[], object], repeats: int = 3) -> float:
    """Median seconds of ``repeats`` calls of ``fn``."""
    return statistics.median(timed(fn)[0] for _ in range(repeats))


def median_ratio(
    numerator: Callable[[], object], denominator: Callable[[], object], pairs: int = 3
) -> float:
    """Median over back-to-back pairs of ``numerator`` seconds / ``denominator`` seconds."""
    return statistics.median(
        timed(numerator)[0] / timed(denominator)[0] for _ in range(pairs)
    )


def closed_loop(
    fn: Callable[[], object],
    seconds: float,
    warmup: int = 2,
    min_samples: int = 10,
    after: Callable[[object], None] | None = None,
) -> Samples:
    """One client, back-to-back calls for ``seconds``: per-call seconds.

    ``after`` runs untimed on each call's result (cleanup such as
    ``DROP MODEL``).  At least ``min_samples`` calls are made even when they
    overrun ``seconds``.  The reference probe runs between calls.
    """
    for _ in range(warmup):
        result = fn()
        if after is not None:
            after(result)
    reference = Reference()
    samples = Samples()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples.raw) < min_samples:
        samples.probes.append(reference.seconds())
        elapsed, result = timed(fn)
        samples.raw.append(elapsed)
        if after is not None:
            after(result)
    samples.probes.append(reference.seconds())
    return samples


def paired_overhead(
    bare: Callable[[], object], armed: Callable[[], object], pairs: int
) -> dict:
    """Per-pair ``armed / bare - 1`` with alternating order: median and quartiles."""
    ratios = []
    for i in range(pairs):
        if i % 2:
            a, _ = timed(armed)
            b, _ = timed(bare)
        else:
            b, _ = timed(bare)
            a, _ = timed(armed)
        ratios.append(a / b - 1.0)
    return summary(ratios)


def peak_rss_mib() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stamp(seed: int) -> dict:
    """Provenance every result file carries."""
    root = Path(__file__).resolve().parents[2]

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "git_rev": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        # cores this process may run on, not the machine's core count
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "argv": sys.argv[1:],
    }
