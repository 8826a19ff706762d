"""Core-speed calibration: a fixed slice of pure-Python work, timed
between ops, so that a run's timings read at one reference core speed.

The benchmark's host shares its cores.  Over minutes the same code runs
up to ~1.7x faster or slower as neighbours come and go, and CPU time
moves with wall time (the core slows; no time is stolen), so neither
clock alone compares two runs.  The slice is object, generator, set,
dict and tuple work like the library's.  It lives here, not in the
library, so no change to the library moves it.

An op's latency is scaled by ``NOMINAL_S / s``, where ``s`` is the
median of the slices timed around the op: the result is the op's time
in seconds on a core that runs the slice in ``NOMINAL_S``.  The raw
wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: Seconds one slice takes on the reference core (a quiet core of a
#: 2-core Xeon VM, where these figures were first taken).
NOMINAL_S = 0.008
#: Slices on each side of an op whose median scales it.
WINDOW = 5
#: Slices timed after each set-up, on the core it ran on.
SETUP_SLICES = 5
_REPS = 16


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key) -> None:
        self.key = key
        self.kids: list[_Node] = []

    def walk(self):
        yield self.key
        for kid in self.kids:
            yield from kid.walk()


def _work() -> int:
    """Objects, generators, frozensets, sorting, a hash join and string
    formatting: a mix that tracked the library's slowdowns (a bare hash
    join tracked them with a slope of 0.8, this mix with 1.1)."""
    nodes = [_Node((i % 13, i % 7)) for i in range(120)]
    for i in range(1, 120):
        nodes[(i - 1) // 3].kids.append(nodes[i])
    keys = list(nodes[0].walk())
    sets = {frozenset((k, (k[1], k[0]))) for k in keys}
    rows = sorted({(a, b) for a, b in keys} | {(b, a) for a, b in keys})
    index: dict[int, set[int]] = {}
    for a, b in rows:
        index.setdefault(a, set()).add(b)
    joined = {(a, c) for a, bs in index.items() for b in bs for c in index.get(b, ())}
    text = "".join(f"{a}:{c};" for a, c in sorted(joined)[:50])
    return len(sets) + len(joined) + len(text)


def slice_s() -> float:
    """Seconds this core takes for one slice of the reference work."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        _work()
    return time.perf_counter() - t0


class Speed:
    """Slices timed between ops; ``factor(i)`` scales op *i*'s seconds.

    Call ``mark()`` once before op 0 and once after every op; op *i*
    then lies between marks *i* and *i + 1*.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []

    def mark(self) -> None:
        self.slices.append(slice_s())

    def factor(self, i: int) -> float:
        """``NOMINAL_S`` over the median of the ``WINDOW`` slices on
        each side of op *i*: near enough to follow the host's drift,
        which takes seconds to minutes, and many enough that one
        slice's hiccup does not move the op."""
        window = self.slices[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        return NOMINAL_S / statistics.median(window)

    def seconds(self) -> float:
        """Wall time spent in slices (to leave out of a throughput)."""
        return sum(self.slices)
