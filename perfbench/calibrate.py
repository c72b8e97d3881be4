"""A fixed reference kernel that measures how fast the machine runs right now.

The hosts this benchmark runs on are shared: the same code runs up to 1.5x
slower or faster from one minute to the next, in user time as well as wall
time.  A slow phase slows the kernel about as much as it slows the
package, so a job's time divided by the kernel's time next to it cancels
most of that drift.  The kernel does the kind of work the package does
(tuple arithmetic, set and dict building, a graph walk, a sort) on inputs
fixed here; it never imports the package, so no change to the package
moves it.

Kernel times are taken in the gap before and after every job
(`gap`), and while a job runs, from a timer signal every `INTERVAL_S`
(`Sampler`), so that a long job is tracked through it; the time the kernel
takes inside a job is subtracted from the job's time.  A job's time in
`cal` units is its time over the median of the kernel times of its two gaps
and of those taken inside it.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

GAP_SAMPLES = 2
INTERVAL_S = 0.12  # about ten kernel times: the kernel takes ~10% of a long job

_rng = random.Random("perfbench:calibrate")
_A = [(_rng.randrange(85), _rng.randrange(85)) for _ in range(350)]
_B = [(_rng.randrange(5), _rng.randrange(5)) for _ in range(10)]


def kernel() -> float:
    """One run of the reference kernel; returns its time in seconds."""
    t0 = perf_counter()
    layer = {(a[0] + b[0], a[1] + b[1]) for a in _A for b in _B}
    adjacent: dict = {}
    for x in layer:
        for b in _B:
            y = (x[0] + b[0], x[1] + b[1])
            if y in layer:
                adjacent.setdefault(x, []).append(y)
    seen: set = set()
    stack = [min(layer)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adjacent.get(v, ()))
    sorted(layer)
    return perf_counter() - t0


def gap() -> list[float]:
    """Kernel times for one gap between jobs."""
    return [kernel() for _ in range(GAP_SAMPLES)]


class Sampler:
    """Kernel times taken from a SIGALRM handler while the block runs, if
    `active`."""

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.samples: list[float] = []

    def __enter__(self) -> "Sampler":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.samples.append(kernel())


def normalise(times: list[float], gaps: list[list[float]],
              inside: list[list[float]]) -> list[float]:
    """Each job's time over the median kernel time of the gaps around it and
    of the samples taken inside it; `gaps` has one more entry than `times`."""
    return [t / statistics.median(gaps[j] + inside[j] + gaps[j + 1])
            for j, t in enumerate(times)]
