"""Machine-speed probe for the timed passes.

On a shared VM the CPU speed one process sees drifts by 10-20% over seconds
to minutes, which moves whole runs at once, so medians over passes cannot
remove it. A fixed calibration routine that does not touch the program is
therefore timed every ``PERIOD_S`` seconds from a ``SIGALRM`` handler while
a pass runs, and right before and after each set-up. A timed interval is
reported as its own wall time minus the probes inside it, scaled by
``REFERENCE_S`` over the mean probe time around it: seconds at the speed at
which one probe takes ``REFERENCE_S``.

The routine allocates, sorts and groups a few thousand small objects with
float arithmetic, as the compiler's validator and mapper do; the cyclic GC
is off while it runs, so its time does not depend on the program's heap.
"""
from __future__ import annotations

import gc
import math
import random
import signal
import statistics
import time

PERIOD_S = 0.25
# about one probe's time during a pass on the 2-core x86-64 Xeon VM the
# bounds were set on; it only sets the scale of the reported times
REFERENCE_S = 0.012
_RECORDS = 6000


class _Rec:
    __slots__ = ("key", "start", "end", "val")

    def __init__(self, key: int, start: float) -> None:
        self.key = key
        self.start = start
        self.end = start + math.sqrt(start + 1.0)
        self.val = 0.0


def _calibrate() -> float:
    rng = random.Random(7)
    recs: list[_Rec] = []
    by_key: dict[int, list[_Rec]] = {}
    for _ in range(_RECORDS):
        r = _Rec(rng.randrange(200), rng.random() * 100.0)
        recs.append(r)
        by_key.setdefault(r.key, []).append(r)
    recs.sort(key=lambda r: (r.start, r.key))
    acc = 0.0
    for chain in by_key.values():
        chain.sort(key=lambda r: r.start)
        prev = 0.0
        for r in chain:
            if r.start < prev:
                acc += 1.0
            r.val = prev = r.end
            acc += r.val * 0.5
    return acc


def probe() -> float:
    """Seconds one run of the calibration routine takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _calibrate()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_seconds(elapsed: float, probes: list[float]) -> float:
    """``elapsed`` seconds, timed while probes took ``probes``, at reference speed."""
    return elapsed * REFERENCE_S / statistics.fmean(probes)


class Sampler:
    """Probe the machine every ``PERIOD_S`` seconds while the block runs.

    ``probes`` holds the probe times; ``spent`` is the wall time the
    handler took, to be taken off the block's own time.
    """

    def __enter__(self) -> Sampler:
        self.probes: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start
