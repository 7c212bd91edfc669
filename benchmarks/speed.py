"""
The machine's speed around each timed operation.

On a shared host the processor's speed changes with the host's other load:
a plain loop runs up to twice as slow for seconds to minutes at a time, and
no statistic over a run of half a minute hides a slow phase that lasts two.
So the benchmark times a fixed probe, pure-Python work that slows down as
the solver does, between operations, and reports every time at the probe's
nominal speed: an operation's wall time divided by the slowdown the probes
around it show.

``Meter.add`` takes each operation's wall time and a list to receive its
scaled time.  Once ``due`` says that ``PROBE_EVERY_S`` of operation time
are pending, ``settle`` probes again and scales the pending operations by
the mean slowdown of the probe before them and the probe after them; it
must also be called before the scaled times are read.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

# The probe's wall time at nominal speed.  It is a fixed constant, not a
# figure of the run, so that runs at different times compare; it is about
# the probe's time in the fast state of a 2.1 GHz Xeon.
PROBE_NOMINAL_S = 0.0005
# A probe's time is the fastest of this many back-to-back probes.
PROBE_REPS = 5
# Operation time between probes.
PROBE_EVERY_S = 0.1


class _Node:
    __slots__ = ("depth", "word", "children")

    def __init__(self, depth: int, word: Tuple[int, ...]) -> None:
        self.depth = depth
        self.word = word
        self.children: List["_Node"] = []


def _probe_work() -> int:
    """A small tree of objects with tuple labels folded through a set, as
    the solver's graphs are, then string substitution and comparison, as
    its labels and checks do.  Both kinds of work are needed: on the
    machine this was written on, a slow phase slowed the solver by 1.6–1.7×,
    the tree alone by 1.73× and the strings alone by 1.59×."""
    root = _Node(0, ())
    nodes = [root]
    seen = set()
    for i in range(400):
        parent = nodes[i // 3] if i // 3 < len(nodes) else root
        word = parent.word[-3:] + (i % 5,)
        if (parent.depth + 1, word) in seen:
            continue
        seen.add((parent.depth + 1, word))
        node = _Node(parent.depth + 1, word)
        parent.children.append(node)
        nodes.append(node)
    text = "xAyBzx" * 40
    same = 0
    for _ in range(120):
        image = text.replace("x", "AB").replace("y", "")
        same += image == text
        text = text[1:] + text[0]
    return len(nodes) + same


def probe() -> float:
    """The slowdown of the machine now: the probe's time over its nominal."""
    best = float("inf")
    for _ in range(PROBE_REPS):
        started = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - started)
    return best / PROBE_NOMINAL_S


class Meter:
    def __init__(self) -> None:
        self.last = probe()
        self.slowdowns: List[float] = [self.last]
        self._pending: List[Tuple[float, List[float]]] = []
        self._since = 0.0

    def add(self, elapsed: float, sink: List[float]) -> None:
        """Take one operation's wall time; its scaled time goes to ``sink``
        at the next probe."""
        self._pending.append((elapsed, sink))
        self._since += elapsed

    def due(self) -> bool:
        return self._since >= PROBE_EVERY_S

    def settle(self) -> None:
        now = probe()
        slowdown = (self.last + now) / 2
        for elapsed, sink in self._pending:
            sink.append(elapsed / slowdown)
        self._pending.clear()
        self._since = 0.0
        self.last = now
        self.slowdowns.append(now)

    def time_call(self, function: Callable[[], object]) -> float:
        """The scaled wall time of one call of ``function``, between two probes."""
        self.settle()
        before = self.last
        started = time.perf_counter()
        function()
        elapsed = time.perf_counter() - started
        self.settle()
        return elapsed / ((before + self.last) / 2)
